// Minimal command-line parser for the bench/example binaries:
// `--name=value` or `--name value`, typed getters with defaults, automatic
// --help generation. No external dependencies.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace byz::util {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Declares an option (for --help) and registers its default.
  void add_flag(std::string name, std::string help);
  void add_option(std::string name, std::string help, std::string default_value);

  /// Parses argv. Returns false (after printing help) when --help is given.
  /// Throws std::invalid_argument on unknown options or missing values.
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  [[nodiscard]] bool flag(std::string_view name) const;
  [[nodiscard]] std::string str(std::string_view name) const;
  [[nodiscard]] std::int64_t integer(std::string_view name) const;
  /// integer(), range-checked to [lo, hi] before the cast to T, so a
  /// negative --jobs can never wrap to ~4e9 workers. Throws
  /// std::invalid_argument naming the option and the range otherwise.
  template <std::integral T>
  [[nodiscard]] T integer_in(std::string_view name, T lo, T hi) const {
    return static_cast<T>(checked_integer(name, static_cast<std::int64_t>(lo),
                                          static_cast<std::int64_t>(hi)));
  }
  [[nodiscard]] double real(std::string_view name) const;
  /// Parses comma-separated integers, e.g. --sizes=1024,2048,4096.
  [[nodiscard]] std::vector<std::int64_t> int_list(std::string_view name) const;

  [[nodiscard]] std::string help() const;

 private:
  struct Option {
    std::string name;
    std::string help;
    std::string value;
    bool is_flag = false;
    bool seen = false;
  };
  [[nodiscard]] std::int64_t checked_integer(std::string_view name,
                                             std::int64_t lo,
                                             std::int64_t hi) const;
  [[nodiscard]] const Option* find(std::string_view name) const;
  Option* find(std::string_view name);

  std::string program_;
  std::string description_;
  std::vector<Option> options_;
};

}  // namespace byz::util
