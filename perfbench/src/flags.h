// Strict command-line flags for the benchmark driver. Unlike a lenient
// --key=value scan, every flag must be declared, every value must parse in
// full, and a flag may be given once: a typo or a garbage number is an
// error, never a silently different measurement.

#ifndef PERFBENCH_FLAGS_H_
#define PERFBENCH_FLAGS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class FlagSet {
 public:
  /// Declares --name taking a string (any non-empty value).
  void String(const std::string& name, std::string* dst,
              const std::string& help);
  /// Declares --name taking an unsigned decimal integer in [lo, hi].
  void Uint(const std::string& name, uint64_t* dst, uint64_t lo, uint64_t hi,
            const std::string& help);

  /// Parses argv[1..argc). Accepts "--name value" and "--name=value".
  /// Returns false and fills *error on an unknown flag, a positional
  /// argument, a missing or malformed value, an out-of-range number, or a
  /// repeated flag. Destinations of flags not given keep their defaults.
  bool Parse(int argc, const char* const* argv, std::string* error);

  /// One line per flag: "  --name  help (default ...)".
  std::string Usage() const;

 private:
  struct Flag {
    std::string name;
    std::string help;
    std::string* str = nullptr;
    uint64_t* num = nullptr;
    uint64_t lo = 0;
    uint64_t hi = 0;
    bool seen = false;
  };
  Flag* Find(const std::string& name);
  static bool Assign(Flag* f, const std::string& value, std::string* error);

  std::vector<Flag> flags_;
};

}  // namespace perfbench

#endif  // PERFBENCH_FLAGS_H_
