#include "common/options.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace decor::common {

Options::Options(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        kv_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      } else if (i + 1 < argc &&
                 std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
        // "--key value" form: the next token is the value unless it is
        // itself a flag (negative numbers bind as values, as expected).
        kv_[arg.substr(2)] = argv[++i];
      } else {
        kv_[arg.substr(2)] = "true";
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

std::string Options::declare(std::vector<std::string> known) {
  known_ = std::move(known);
  for (const auto& [key, value] : kv_) {
    (void)value;
    if (std::find(known_.begin(), known_.end(), key) == known_.end()) {
      return key;
    }
  }
  return {};
}

void Options::check_declared(const std::string& key) const {
  if (!known_.empty() &&
      std::find(known_.begin(), known_.end(), key) == known_.end()) {
    throw std::logic_error("flag --" + key + " is read but not declared");
  }
}

bool Options::has(const std::string& key) const {
  check_declared(key);
  return kv_.count(key) > 0;
}

std::string Options::get(const std::string& key, const std::string& def) const {
  check_declared(key);
  auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

std::int64_t Options::get_int(const std::string& key, std::int64_t def) const {
  check_declared(key);
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double Options::get_double(const std::string& key, double def) const {
  check_declared(key);
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  return std::strtod(it->second.c_str(), nullptr);
}

bool Options::get_bool(const std::string& key, bool def) const {
  check_declared(key);
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace decor::common
