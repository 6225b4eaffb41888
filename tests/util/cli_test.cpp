#include "util/cli.hpp"

#include <gtest/gtest.h>

namespace byz::util {
namespace {

ArgParser make_parser() {
  ArgParser p("prog", "test program");
  p.add_option("n", "size", "1024");
  p.add_option("rate", "a real", "0.5");
  p.add_option("name", "a string", "default");
  p.add_option("sizes", "csv ints", "1,2,3");
  p.add_flag("verbose", "chatty");
  return p;
}

TEST(ArgParser, DefaultsApply) {
  auto p = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_EQ(p.integer("n"), 1024);
  EXPECT_DOUBLE_EQ(p.real("rate"), 0.5);
  EXPECT_EQ(p.str("name"), "default");
  EXPECT_FALSE(p.flag("verbose"));
}

TEST(ArgParser, EqualsSyntax) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--n=2048", "--rate=0.25", "--verbose"};
  ASSERT_TRUE(p.parse(4, argv));
  EXPECT_EQ(p.integer("n"), 2048);
  EXPECT_DOUBLE_EQ(p.real("rate"), 0.25);
  EXPECT_TRUE(p.flag("verbose"));
}

TEST(ArgParser, SpaceSyntax) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--name", "hello"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_EQ(p.str("name"), "hello");
}

TEST(ArgParser, IntListParses) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--sizes=10,20,30"};
  ASSERT_TRUE(p.parse(2, argv));
  const auto v = p.int_list("sizes");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v[2], 30);
}

TEST(ArgParser, UnknownOptionThrows) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW((void)p.parse(2, argv), std::invalid_argument);
}

TEST(ArgParser, MissingValueThrows) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--name"};
  EXPECT_THROW((void)p.parse(2, argv), std::invalid_argument);
}

TEST(ArgParser, PositionalThrows) {
  auto p = make_parser();
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW((void)p.parse(2, argv), std::invalid_argument);
}

TEST(ArgParser, BadIntegerThrows) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--n=12abc"};
  ASSERT_TRUE(p.parse(2, argv));
  EXPECT_THROW((void)p.integer("n"), std::invalid_argument);
}

TEST(ArgParser, IntegerInAcceptsTheClosedRange) {
  for (const char* arg : {"--n=0", "--n=1024"}) {
    auto p = make_parser();
    const char* argv[] = {"prog", arg};
    ASSERT_TRUE(p.parse(2, argv));
    const auto v = p.integer_in<unsigned>("n", 0, 1024);
    EXPECT_EQ(v, static_cast<unsigned>(p.integer("n")));
  }
}

TEST(ArgParser, IntegerInRejectsOutOfRangeBeforeTheCast) {
  // -3 cast to unsigned would be 2^32 - 3; the accessor must refuse it
  // (and its upper neighbour) with a message naming option and range.
  for (const char* arg : {"--n=-3", "--n=1025", "--n=4294967293"}) {
    auto p = make_parser();
    const char* argv[] = {"prog", arg};
    ASSERT_TRUE(p.parse(2, argv));
    try {
      (void)p.integer_in<unsigned>("n", 0, 1024);
      ADD_FAILURE() << arg << " accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--n"), std::string::npos) << what;
      EXPECT_NE(what.find("[0, 1024]"), std::string::npos) << what;
    }
  }
  auto p = make_parser();
  const char* argv[] = {"prog", "--n=abc"};
  ASSERT_TRUE(p.parse(2, argv));
  EXPECT_THROW((void)p.integer_in<unsigned>("n", 0, 1024),
               std::invalid_argument);
}

TEST(ArgParser, HelpReturnsFalse) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(ArgParser, HelpTextListsOptions) {
  auto p = make_parser();
  const std::string h = p.help();
  EXPECT_NE(h.find("--n"), std::string::npos);
  EXPECT_NE(h.find("--verbose"), std::string::npos);
  EXPECT_NE(h.find("default: 1024"), std::string::npos);
}

}  // namespace
}  // namespace byz::util
