// Minimal command-line option parsing for the driver executables.
//
// Mirrors the artifact's "-hpddm_krylov_method gcrodr -hpddm_recycle 10"
// style: flags are "-name value" (or "-name" for booleans); unknown flags
// are collected so drivers can report them. A token that starts with '-'
// is the next flag unless it parses fully as a number: "-recycle -1" gives
// recycle the value "-1", so the driver's own check sees it.
#pragma once

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace bkr {

class Options {
 public:
  Options(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.size() < 2 || arg[0] != '-') {
        positional_.push_back(std::move(arg));
        continue;
      }
      const std::string name = arg.substr(1);
      if (i + 1 < argc && (argv[i + 1][0] != '-' || is_number(argv[i + 1]))) {
        values_[name] = argv[++i];
      } else {
        values_[name] = "";  // boolean flag
      }
    }
  }

  [[nodiscard]] bool has(const std::string& name) const { return values_.count(name) > 0; }

  [[nodiscard]] std::string get(const std::string& name, const std::string& fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  [[nodiscard]] index_t get(const std::string& name, index_t fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() || it->second.empty() ? fallback : index_t(std::stoll(it->second));
  }

  [[nodiscard]] double get(const std::string& name, double fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() || it->second.empty() ? fallback : std::stod(it->second);
  }

  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }
  [[nodiscard]] const std::map<std::string, std::string>& all() const { return values_; }

 private:
  static bool is_number(const char* token) {
    char* end = nullptr;
    std::strtod(token, &end);
    return end != token && *end == '\0';
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace bkr
