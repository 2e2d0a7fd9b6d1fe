#include "src/util/cli.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace spinfer {
namespace {

// Bad command lines are user errors, not broken invariants: say what is
// wrong and exit 1 rather than abort.
[[noreturn]] void Reject(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::exit(1);
}

// Runs `parse` (a strtoll/strtod call) over flag `name`'s value, rejecting it
// unless the whole value is read and in range.
template <typename Parse>
auto ParseWhole(const std::string& name, const std::string& value,
                const char* kind, const Parse& parse) {
  char* end = nullptr;
  errno = 0;
  const auto parsed = parse(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
    Reject("--" + name + " takes " + kind + ", got '" + value + "'");
  }
  return parsed;
}

}  // namespace

CliFlags::CliFlags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      Reject("unexpected argument '" + arg + "'; flags start with --");
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";  // bare boolean flag
    }
  }
}

void CliFlags::RestrictTo(std::initializer_list<const char*> allowed) const {
  for (const auto& [name, value] : flags_) {
    bool known = false;
    for (const char* a : allowed) {
      if (name == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      Reject("unknown flag --" + name);
    }
  }
}

std::string CliFlags::GetString(const std::string& name, const std::string& def) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

int64_t CliFlags::GetInt(const std::string& name, int64_t def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    return def;
  }
  return ParseWhole(name, it->second, "an integer", [](const char* text, char** end) {
    return std::strtoll(text, end, 10);
  });
}

double CliFlags::GetDouble(const std::string& name, double def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    return def;
  }
  return ParseWhole(name, it->second, "a number", [](const char* text, char** end) {
    return std::strtod(text, end);
  });
}

bool CliFlags::GetBool(const std::string& name, bool def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    return def;
  }
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") {
    return true;
  }
  if (v == "false" || v == "0" || v == "no") {
    return false;
  }
  Reject("--" + name + " takes true or false, got '" + v + "'");
}

}  // namespace spinfer
