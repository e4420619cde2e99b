#include "util/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace sssj {

namespace {

// A malformed numeric flag value used to fall through strtod/strtoll with
// a null endptr and silently become 0 — a typo'd --theta=O.7 then produced
// garbage output with a zero exit status. Numeric getters now require the
// whole value to parse and exit non-zero naming the offending flag.
[[noreturn]] void FlagValueError(const std::string& name,
                                 const std::string& value,
                                 const char* expected) {
  std::fprintf(stderr, "invalid value for --%s: '%s' (expected %s)\n",
               name.c_str(), value.c_str(), expected);
  std::exit(2);
}

}  // namespace

bool ParseFlagInt(const std::string& value, int64_t* out) {
  const char* s = value.c_str();
  char* end = nullptr;
  errno = 0;
  const int64_t v = std::strtoll(s, &end, 10);
  // Out of range, strtoll clamps to INT64_MIN/MAX: reject it instead.
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

bool ParseFlagDouble(const std::string& value, double* out) {
  const char* s = value.c_str();
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseFlagDoubleList(const std::string& value, std::vector<double>* out) {
  if (value.empty() || value.back() == ',') return false;
  std::vector<double> parsed;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    // An empty element ("0.5,,0.7") used to be skipped silently,
    // shrinking the sweep grid without a trace.
    double v = 0.0;
    if (item.empty() || !ParseFlagDouble(item, &v)) return false;
    parsed.push_back(v);
  }
  *out = std::move(parsed);
  return true;
}

Flags::Flags(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      entries_.push_back({arg.substr(0, eq), arg.substr(eq + 1), true});
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      entries_.push_back({arg, argv[i + 1], true});
      ++i;
    } else {
      entries_.push_back({arg, "", false});
    }
  }
}

void Flags::RejectUnknown(const std::vector<std::string>& known) const {
  for (const auto& e : entries_) {
    bool found = false;
    for (const auto& k : known) {
      if (e.name == k) {
        found = true;
        break;
      }
    }
    if (found) continue;
    std::ostringstream accepted;
    for (size_t i = 0; i < known.size(); ++i) {
      accepted << (i > 0 ? ", " : "") << "--" << known[i];
    }
    std::fprintf(stderr, "unknown flag --%s (accepted: %s)\n",
                 e.name.c_str(), accepted.str().c_str());
    std::exit(2);
  }
}

const Flags::Entry* Flags::Find(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

bool Flags::Has(const std::string& name) const { return Find(name) != nullptr; }

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  const Entry* e = Find(name);
  return (e != nullptr && e->has_value) ? e->value : def;
}

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  const Entry* e = Find(name);
  if (e == nullptr) return def;
  // A present-but-valueless numeric flag ("--seed --tsv": the value was
  // forgotten) must not silently read as the default either.
  if (!e->has_value) FlagValueError(name, "", "an integer");
  int64_t v = 0;
  if (!ParseFlagInt(e->value, &v)) {
    FlagValueError(name, e->value, "an integer");
  }
  return v;
}

double Flags::GetDouble(const std::string& name, double def) const {
  const Entry* e = Find(name);
  if (e == nullptr) return def;
  if (!e->has_value) FlagValueError(name, "", "a number");
  double v = 0.0;
  if (!ParseFlagDouble(e->value, &v)) {
    FlagValueError(name, e->value, "a number");
  }
  return v;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  const Entry* e = Find(name);
  if (e == nullptr) return def;
  if (!e->has_value) return true;
  return e->value == "1" || e->value == "true" || e->value == "yes";
}

std::vector<double> Flags::GetDoubleList(const std::string& name,
                                         const std::vector<double>& def) const {
  const Entry* e = Find(name);
  if (e == nullptr) return def;
  std::vector<double> out;
  if (!e->has_value || !ParseFlagDoubleList(e->value, &out)) {
    FlagValueError(name, e->value, "a comma-separated list of numbers");
  }
  return out;
}

}  // namespace sssj
