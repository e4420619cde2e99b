// Minimal command-line flag parser for the bench/example binaries.
// Syntax: --name=value or --name value; bare --name sets a bool flag true.
// Unknown flags are collected so binaries can report them; positional
// arguments are preserved.
//
// Numeric getters (GetInt, GetDouble, GetDoubleList) validate strictly: a
// value that does not parse in full — trailing junk, an empty value, a
// flag present without any value, or an empty list element — prints the
// offending flag name to stderr and exits with status 2, instead of
// silently reading as 0 (or the default) and producing a garbage run.
#ifndef SSSJ_UTIL_FLAGS_H_
#define SSSJ_UTIL_FLAGS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace sssj {

// Non-exiting strict parse cores behind the numeric getters: full-value
// consumption (no trailing junk, no empty values/elements), false on any
// malformation (an integer outside int64_t counts as one) without
// touching *out. Exposed so tools that want a Status instead of exit(2)
// — and the flag-parsing fuzz harness — can reuse the exact validation
// the binaries apply.
bool ParseFlagInt(const std::string& value, int64_t* out);
bool ParseFlagDouble(const std::string& value, double* out);
bool ParseFlagDoubleList(const std::string& value, std::vector<double>* out);

class Flags {
 public:
  Flags(int argc, char** argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name, const std::string& def) const;
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def) const;
  // Comma-separated list of doubles, e.g. --theta-list=0.5,0.7,0.9.
  std::vector<double> GetDoubleList(const std::string& name,
                                    const std::vector<double>& def) const;

  // Guards against typos: every flag on the command line must be in
  // `known`, or the program prints the offending flag (and the accepted
  // list) to stderr and exits with status 2 — the flag-name analogue of
  // the strict numeric-value validation below. Call it once, right after
  // construction, with the binary's full flag set.
  void RejectUnknown(const std::vector<std::string>& known) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  struct Entry {
    std::string name;
    std::string value;
    bool has_value;
  };
  const Entry* Find(const std::string& name) const;

  std::string program_;
  std::vector<Entry> entries_;
  std::vector<std::string> positional_;
};

}  // namespace sssj

#endif  // SSSJ_UTIL_FLAGS_H_
