// Minimal command-line option parser for the bench harness and examples.
//
// Accepts --key=value, --key value (next token not itself a flag) and
// bare --flag forms; anything else is a positional argument. Typed
// getters fall back to supplied defaults, so every harness binary runs
// with sensible parameters when invoked bare (as the top-level "run
// everything in build/bench" loop does).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace decor::common {

class Options {
 public:
  Options() = default;
  Options(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  std::string get(const std::string& key, const std::string& def) const;
  std::int64_t get_int(const std::string& key, std::int64_t def) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;

  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Declares every flag the command reads and returns the first given
  /// flag outside `known` (empty when there is none). From then on,
  /// reading an undeclared flag throws std::logic_error, so a
  /// declaration cannot fall behind the code that reads the flags.
  std::string declare(std::vector<std::string> known);

 private:
  void check_declared(const std::string& key) const;

  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
  std::vector<std::string> known_;  // empty until declare()
};

}  // namespace decor::common
