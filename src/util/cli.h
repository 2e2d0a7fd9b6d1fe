// Minimal command-line flag parsing shared by examples and benches.
//
// Supports `--name=value` and `--name value` forms. Callers that know their
// full flag set pass it to RestrictTo so typos fail loudly instead of
// silently running with defaults. Every rejection prints an `error:` line
// naming the argument, flag or value on stderr and exits with status 1.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>

namespace spinfer {

class CliFlags {
 public:
  // Parses argv; rejects an argument that does not start with `--`.
  CliFlags(int argc, char** argv);

  // Typed getters with defaults. GetInt and GetDouble reject a value that is
  // not wholly a number in range (`--threads=four`, `--reps=5x`, `--n=`);
  // GetBool takes true/1/yes or false/0/no and rejects anything else
  // (`--measure=ture`).
  std::string GetString(const std::string& name, const std::string& def) const;
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def) const;

  bool Has(const std::string& name) const { return flags_.count(name) > 0; }

  // Rejects, by name, a parsed flag that is not in `allowed`.
  void RestrictTo(std::initializer_list<const char*> allowed) const;

 private:
  std::map<std::string, std::string> flags_;
};

}  // namespace spinfer
