// Tiny command-line flag parser for the bench/example binaries.
//
// Supports `--name value` and `--name=value`.  Unknown flags raise, so typos
// in experiment scripts fail loudly instead of silently running the default
// configuration.  Every accessor optionally registers a one-line description;
// `handle_help()` prints the registered flags (with their defaults) when the
// user passed `--help`, before any real work runs:
//
//   util::Flags flags(argc, argv);
//   const auto n = flags.integer("n", 1024, "vertex count");
//   ...
//   if (flags.handle_help("my_bench — what it measures")) return 0;
//   flags.reject_unknown();
#pragma once

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace nas::util {

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        throw std::invalid_argument("unexpected positional argument: " + arg);
      }
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "true";  // bare boolean flag
      }
    }
    help_ = values_.count("help") > 0;
  }

  [[nodiscard]] std::string str(const std::string& name,
                                const std::string& fallback,
                                const std::string& desc = "") const {
    describe(name, fallback.empty() ? "\"\"" : fallback, desc);
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  [[nodiscard]] std::int64_t integer(const std::string& name,
                                     std::int64_t fallback,
                                     const std::string& desc = "") const {
    describe(name, std::to_string(fallback), desc);
    const auto it = values_.find(name);
    if (it == values_.end() || help_) return fallback;
    return parse_integer(name, it->second);
  }

  [[nodiscard]] double real(const std::string& name, double fallback,
                            const std::string& desc = "") const {
    describe(name, std::to_string(fallback), desc);
    const auto it = values_.find(name);
    if (it == values_.end() || help_) return fallback;
    return parse_real(name, it->second);
  }

  [[nodiscard]] bool boolean(const std::string& name, bool fallback,
                             const std::string& desc = "") const {
    describe(name, fallback ? "true" : "false", desc);
    const auto it = values_.find(name);
    if (it == values_.end() || help_) return fallback;
    return parse_boolean(name, it->second);
  }

  /// integer(), range-checked into T through narrow().
  template <typename T>
  [[nodiscard]] T integer_as(const std::string& name, T fallback,
                             const std::string& desc = "") const {
    return narrow<T>(name, integer(name, static_cast<std::int64_t>(fallback),
                                   desc));
  }

  /// The one boolean vocabulary, shared with scenario-file values:
  /// true|1|yes and false|0|no.  Anything else (a typo like "ture") throws
  /// std::invalid_argument naming the flag instead of reading as false.
  [[nodiscard]] static bool parse_boolean(const std::string& name,
                                          const std::string& text) {
    if (text == "true" || text == "1" || text == "yes") return true;
    if (text == "false" || text == "0" || text == "no") return false;
    throw std::invalid_argument("flag --" + name +
                                " expects true|1|yes|false|0|no, got \"" +
                                text + "\"");
  }

  /// Range-checked narrowing of a parsed integer into T, within [lo, hi]
  /// (T's whole range by default).  A value that would wrap in a plain
  /// static_cast (--n 4294967306 -> 10, --threads -1 -> 4294967295) throws
  /// std::invalid_argument naming the flag and the value.
  template <typename T>
  [[nodiscard]] static T narrow(const std::string& name, std::int64_t value,
                                T lo = std::numeric_limits<T>::min(),
                                T hi = std::numeric_limits<T>::max()) {
    if (std::cmp_less(value, lo) || std::cmp_greater(value, hi)) {
      throw std::invalid_argument(
          "flag --" + name + " must be in [" + std::to_string(lo) + ", " +
          std::to_string(hi) + "], got " + std::to_string(value));
    }
    return static_cast<T>(value);
  }

  /// Strict parse helpers shared with list-valued flags: the whole string
  /// must be consumed, and failures name the flag and the offending value
  /// instead of surfacing a bare std::invalid_argument("stoll").
  [[nodiscard]] static std::int64_t parse_integer(const std::string& name,
                                                  const std::string& text) {
    std::size_t pos = 0;
    std::int64_t v = 0;
    try {
      v = std::stoll(text, &pos);
    } catch (const std::exception&) {
      pos = std::string::npos;
    }
    if (pos != text.size() || text.empty()) {
      throw std::invalid_argument("flag --" + name +
                                  " expects an integer, got \"" + text + "\"");
    }
    return v;
  }

  [[nodiscard]] static double parse_real(const std::string& name,
                                         const std::string& text) {
    std::size_t pos = 0;
    double v = 0;
    try {
      v = std::stod(text, &pos);
    } catch (const std::exception&) {
      pos = std::string::npos;
    }
    if (pos != text.size() || text.empty()) {
      throw std::invalid_argument("flag --" + name +
                                  " expects a number, got \"" + text + "\"");
    }
    return v;
  }

  /// True iff the user passed --name (with or without a value).
  [[nodiscard]] bool provided(const std::string& name) const {
    return values_.count(name) > 0;
  }

  [[nodiscard]] bool help_requested() const { return help_; }

  /// The registered flags (in first-read order) as an aligned usage listing.
  [[nodiscard]] std::string help_text(const std::string& about) const {
    std::string out = about.empty() ? "" : about + "\n";
    out += "flags:\n";
    std::size_t width = std::string("--help").size();
    for (const auto& d : descriptions_) {
      width = std::max(width, d.name.size() + d.fallback.size() + 5);
    }
    for (const auto& d : descriptions_) {
      std::string head = "--" + d.name + " [" + d.fallback + "]";
      head.resize(std::max(width, head.size()), ' ');
      out += "  " + head + "  " + d.desc + "\n";
    }
    std::string head = "--help";
    head.resize(width, ' ');
    out += "  " + head + "  print this listing and exit\n";
    return out;
  }

  /// Call after all flags were read: prints the usage listing and returns
  /// true iff the user passed --help (the binary should then exit 0).
  [[nodiscard]] bool handle_help(const std::string& about,
                                 std::ostream& out = std::cout) const {
    if (!help_) return false;
    out << help_text(about);
    return true;
  }

  /// Call after all flags were read; throws on flags the binary never asked
  /// about (catches typos like --kapa).
  void reject_unknown() const {
    for (const auto& [name, value] : values_) {
      if (name != "help" && !known_.count(name)) {
        throw std::invalid_argument("unknown flag --" + name + "=" + value);
      }
    }
  }

 private:
  struct Description {
    std::string name, fallback, desc;
  };

  void describe(const std::string& name, const std::string& fallback,
                const std::string& desc) const {
    if (known_.insert(name).second) {
      descriptions_.push_back({name, fallback, desc});
    }
  }

  std::map<std::string, std::string> values_;
  bool help_ = false;
  mutable std::set<std::string> known_;
  mutable std::vector<Description> descriptions_;
};

/// Runs a command-line binary's `body` and turns an exception escaping it (a
/// bad flag value, an unknown workload family, an unreadable file) into
/// "<name>: error: <what>" on stderr and exit code 2, the usage-error code of
/// every binary here, instead of std::terminate:
///
///   int main(int argc, char** argv) {
///     return util::guarded_main("my_bench", argc, argv, bench_main);
///   }
inline int guarded_main(const char* name, int argc, char** argv,
                        int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << name << ": error: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace nas::util
