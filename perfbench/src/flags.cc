#include "src/flags.h"

#include <charconv>

namespace perfbench {

void FlagSet::String(const std::string& name, std::string* dst,
                     const std::string& help) {
  Flag f;
  f.name = name;
  f.help = help;
  f.str = dst;
  flags_.push_back(f);
}

void FlagSet::Uint(const std::string& name, uint64_t* dst, uint64_t lo,
                   uint64_t hi, const std::string& help) {
  Flag f;
  f.name = name;
  f.help = help;
  f.num = dst;
  f.lo = lo;
  f.hi = hi;
  flags_.push_back(f);
}

FlagSet::Flag* FlagSet::Find(const std::string& name) {
  for (Flag& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

bool FlagSet::Assign(Flag* f, const std::string& value, std::string* error) {
  if (value.empty()) {
    *error = "--" + f->name + " needs a value";
    return false;
  }
  if (f->str != nullptr) {
    *f->str = value;
    return true;
  }
  uint64_t v = 0;
  const char* end = value.data() + value.size();
  auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc() || ptr != end) {
    *error = "--" + f->name + ": '" + value + "' is not an unsigned integer";
    return false;
  }
  if (v < f->lo || v > f->hi) {
    *error = "--" + f->name + ": " + value + " is outside [" +
             std::to_string(f->lo) + ", " + std::to_string(f->hi) + "]";
    return false;
  }
  *f->num = v;
  return true;
}

bool FlagSet::Parse(int argc, const char* const* argv, std::string* error) {
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    if (arg.size() < 3 || arg.compare(0, 2, "--") != 0) {
      *error = "unexpected argument '" + arg + "'";
      return false;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool inline_value = false;
    size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
      inline_value = true;
    }
    Flag* f = Find(name);
    if (f == nullptr) {
      *error = "unknown flag --" + name;
      return false;
    }
    if (f->seen) {
      *error = "--" + name + " given twice";
      return false;
    }
    f->seen = true;
    if (!inline_value) {
      if (i + 1 >= argc) {
        *error = "--" + name + " needs a value";
        return false;
      }
      value = argv[++i];
    }
    if (!Assign(f, value, error)) return false;
  }
  return true;
}

std::string FlagSet::Usage() const {
  std::string out;
  for (const Flag& f : flags_) {
    out += "  --" + f.name + "  " + f.help + " (default ";
    out += f.str != nullptr ? "'" + *f.str + "'" : std::to_string(*f.num);
    out += ")\n";
  }
  return out;
}

}  // namespace perfbench
