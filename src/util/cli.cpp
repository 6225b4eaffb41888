#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace byz::util {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {
  add_flag("help", "Show this help message");
}

void ArgParser::add_flag(std::string name, std::string help) {
  options_.push_back(Option{std::move(name), std::move(help), "false", true, false});
}

void ArgParser::add_option(std::string name, std::string help,
                           std::string default_value) {
  options_.push_back(
      Option{std::move(name), std::move(help), std::move(default_value), false, false});
}

const ArgParser::Option* ArgParser::find(std::string_view name) const {
  for (const auto& o : options_) {
    if (o.name == name) return &o;
  }
  return nullptr;
}

ArgParser::Option* ArgParser::find(std::string_view name) {
  for (auto& o : options_) {
    if (o.name == name) return &o;
  }
  return nullptr;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument: " +
                                  std::string(arg));
    }
    arg.remove_prefix(2);
    std::string name;
    std::optional<std::string> value;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    } else {
      name = std::string(arg);
    }
    Option* opt = find(name);
    if (opt == nullptr) {
      throw std::invalid_argument("unknown option --" + name + "\n" + help());
    }
    if (opt->is_flag) {
      opt->value = value.value_or("true");
    } else if (value) {
      opt->value = *value;
    } else {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for --" + name);
      }
      opt->value = argv[++i];
    }
    opt->seen = true;
  }
  if (flag("help")) {
    std::fputs(help().c_str(), stdout);
    return false;
  }
  return true;
}

bool ArgParser::flag(std::string_view name) const {
  const Option* opt = find(name);
  if (opt == nullptr) throw std::invalid_argument("undeclared flag: " + std::string(name));
  return opt->value == "true" || opt->value == "1" || opt->value == "yes";
}

std::string ArgParser::str(std::string_view name) const {
  const Option* opt = find(name);
  if (opt == nullptr) {
    throw std::invalid_argument("undeclared option: " + std::string(name));
  }
  return opt->value;
}

std::int64_t ArgParser::integer(std::string_view name) const {
  const std::string v = str(name);
  // stoll throws its own terse invalid_argument/out_of_range on garbage;
  // rethrow everything with the option name attached.
  try {
    std::size_t pos = 0;
    const std::int64_t result = std::stoll(v, &pos);
    if (pos != v.size()) throw std::invalid_argument("trailing characters");
    return result;
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + std::string(name) +
                                " expects an integer, got: " + v);
  }
}

std::int64_t ArgParser::checked_integer(std::string_view name,
                                        std::int64_t lo,
                                        std::int64_t hi) const {
  const std::int64_t value = integer(name);
  if (value < lo || value > hi) {
    throw std::invalid_argument("option --" + std::string(name) +
                                " must be in [" + std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got " +
                                std::to_string(value));
  }
  return value;
}

double ArgParser::real(std::string_view name) const {
  const std::string v = str(name);
  try {
    std::size_t pos = 0;
    const double result = std::stod(v, &pos);
    if (pos != v.size()) throw std::invalid_argument("trailing characters");
    return result;
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + std::string(name) +
                                " expects a real number, got: " + v);
  }
}

std::vector<std::int64_t> ArgParser::int_list(std::string_view name) const {
  const std::string v = str(name);
  std::vector<std::int64_t> out;
  std::stringstream ss(v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    try {
      std::size_t pos = 0;
      const std::int64_t value = std::stoll(item, &pos);
      if (pos != item.size()) throw std::invalid_argument("trailing characters");
      out.push_back(value);
    } catch (const std::exception&) {
      throw std::invalid_argument("option --" + std::string(name) +
                                  " expects comma-separated integers, got: " +
                                  v);
    }
  }
  return out;
}

std::string ArgParser::help() const {
  std::ostringstream os;
  os << program_ << " - " << description_ << "\n\nOptions:\n";
  for (const auto& o : options_) {
    os << "  --" << o.name;
    if (!o.is_flag) os << "=<value>";
    os << "\n      " << o.help;
    if (!o.is_flag) os << " (default: " << o.value << ")";
    os << "\n";
  }
  return os.str();
}

}  // namespace byz::util
