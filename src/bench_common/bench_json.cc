#include "bench_common/bench_json.h"

#include <cassert>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

namespace sssj {

namespace {

void EscapeString(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\b':
        os << "\\b";
        break;
      case '\f':
        os << "\\f";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\r':
        os << "\\r";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
        } else {
          os << c;  // UTF-8 passes through byte-for-byte
        }
    }
  }
  os << '"';
}

void Indent(std::ostream& os, int depth) {
  for (int i = 0; i < depth; ++i) os << "  ";
}

}  // namespace

JsonValue& JsonValue::Set(std::string key, JsonValue value) & {
  assert(kind_ == Kind::kObject);
  members_.emplace_back(std::move(key),
                        std::make_unique<JsonValue>(std::move(value)));
  return *this;
}

JsonValue& JsonValue::Push(JsonValue value) & {
  assert(kind_ == Kind::kArray);
  members_.emplace_back(std::string(),
                        std::make_unique<JsonValue>(std::move(value)));
  return *this;
}

void JsonValue::DumpIndented(std::ostream& os, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      os << "null";
      break;
    case Kind::kBool:
      os << (bool_ ? "true" : "false");
      break;
    case Kind::kNumber:
      if (!std::isfinite(num_)) {
        os << "null";  // JSON has no NaN/Inf
      } else {
        std::ostringstream tmp;
        tmp.precision(std::numeric_limits<double>::max_digits10);
        tmp << num_;
        os << tmp.str();
      }
      break;
    case Kind::kInt:
      os << int_;
      break;
    case Kind::kUint:
      os << uint_;
      break;
    case Kind::kString:
      EscapeString(os, str_);
      break;
    case Kind::kObject:
    case Kind::kArray: {
      const char open = kind_ == Kind::kObject ? '{' : '[';
      const char close = kind_ == Kind::kObject ? '}' : ']';
      if (members_.empty()) {
        os << open << close;
        break;
      }
      os << open << '\n';
      for (size_t i = 0; i < members_.size(); ++i) {
        Indent(os, depth + 1);
        if (kind_ == Kind::kObject) {
          EscapeString(os, members_[i].first);
          os << ": ";
        }
        members_[i].second->DumpIndented(os, depth + 1);
        if (i + 1 < members_.size()) os << ',';
        os << '\n';
      }
      Indent(os, depth);
      os << close;
      break;
    }
  }
}

std::string JsonValue::ToString() const {
  std::ostringstream os;
  Dump(os);
  return os.str();
}

Status WriteJsonFile(const JsonValue& value, const std::string& path) {
  std::ofstream f(path);
  if (!f) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  value.Dump(f);
  f << '\n';
  // close() runs the final flush. A document smaller than the stream
  // buffer reaches the file only there, so a full disk fails it there.
  f.close();
  if (f.fail()) {
    return Status::IoError("write failure on " + path);
  }
  return Status::Ok();
}

}  // namespace sssj
