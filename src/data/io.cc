#include "data/io.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <sstream>

namespace sssj {

namespace {

constexpr char kMagic[8] = {'S', 'S', 'S', 'J', 'B', 'I', 'N', '1'};

// A corrupted count field must not translate into a giant up-front
// allocation: reservations are capped and the containers then grow
// organically, which only costs legitimate huge inputs a few reallocs.
constexpr uint64_t kMaxItemReserve = 1u << 20;
constexpr uint32_t kMaxCoordReserve = 1u << 16;

Status FinishItem(std::vector<Coord> coords, Timestamp ts,
                  const ReadOptions& opts, Stream* out) {
  SparseVector vec = SparseVector::FromCoords(std::move(coords));
  if (opts.normalize) vec.Normalize();
  if (vec.empty()) {
    return Status::InvalidArgument("empty vector after cleaning");
  }
  if (opts.require_ordered && !out->empty() && ts < out->back().ts) {
    return Status::InvalidArgument("decreasing timestamp");
  }
  StreamItem item;
  item.id = out->size();
  item.ts = ts;
  item.vec = std::move(vec);
  out->push_back(std::move(item));
  return Status::Ok();
}

template <typename T>
bool WriteRaw(std::ofstream& f, const T& v) {
  f.write(reinterpret_cast<const char*>(&v), sizeof(T));
  return f.good();
}

template <typename T>
bool ReadRaw(std::istream& f, T* v) {
  f.read(reinterpret_cast<char*>(v), sizeof(T));
  return f.good();
}

// Strict "<dim>:<value>" parse. The previous strtoul/strtod calls ignored
// their end pointers, so a token like "abc:1.0" silently became dim 0 —
// corrupt input must reject, not alias coordinate zero.
bool ParseCoord(const std::string& tok, size_t colon, Coord* c) {
  if (colon == 0 || colon + 1 >= tok.size()) return false;
  if (!std::isdigit(static_cast<unsigned char>(tok[0]))) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long dim = std::strtoul(tok.c_str(), &end, 10);
  if (errno == ERANGE || end != tok.c_str() + colon ||
      dim > std::numeric_limits<DimId>::max()) {
    return false;
  }
  errno = 0;
  const double value = std::strtod(tok.c_str() + colon + 1, &end);
  if (errno == ERANGE || end != tok.c_str() + tok.size()) return false;
  c->dim = static_cast<DimId>(dim);
  c->value = value;
  return true;
}

// The text reader reads its input in blocks of this size.
constexpr size_t kTextBlockBytes = 64 << 10;

// The reference line parser: istringstream tokens, strtoul/strtod
// values. It decides every line ParseLineFast rejects, so it alone
// words the parse errors.
Status ParseLine(const std::string& line, Timestamp* ts,
                 std::vector<Coord>* coords) {
  coords->clear();
  std::istringstream ss(line);
  if (!(ss >> *ts)) return Status::InvalidArgument("bad timestamp");
  std::string tok;
  while (ss >> tok) {
    const auto colon = tok.find(':');
    Coord c;
    if (colon == std::string::npos || !ParseCoord(tok, colon, &c)) {
      return Status::InvalidArgument("bad coord " + tok);
    }
    coords->push_back(c);
  }
  return Status::Ok();
}

// The six characters the C locale's isspace accepts, which are what
// istringstream splits on.
inline bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

inline const char* SkipSpace(const char* p, const char* end) {
  while (p != end && IsSpace(*p)) ++p;
  return p;
}

inline const char* SkipField(const char* p, const char* end) {
  while (p != end && !IsSpace(*p)) ++p;
  return p;
}

// Reads the whole field [p, end) as a plain decimal: from_chars takes an
// optional '-', digits with an optional '.' and an optional exponent,
// but no '+' and no hex; inf and nan fail the finite check. On such
// fields from_chars and strtod both round correctly, so they give the
// same bits. Results in (0, DBL_MIN] are left to ParseLine: strtod
// reports ERANGE for them (even where the result rounds up to DBL_MIN)
// and num_get ignores it.
inline bool ParseDecimal(const char* p, const char* end, double* out) {
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(p, end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) ||
      (v != 0.0 && std::fabs(v) <= std::numeric_limits<double>::min())) {
    return false;
  }
  *out = v;
  return true;
}

// Parses a line in place when every field is in the fast grammar above
// and every dim is digits that fit DimId; returns false otherwise,
// leaving the line to ParseLine. ParseLine accepts every line this
// accepts, with the same bits.
bool ParseLineFast(const char* p, const char* end, Timestamp* ts,
                   std::vector<Coord>* coords) {
  p = SkipSpace(p, end);
  const char* field_end = SkipField(p, end);
  if (!ParseDecimal(p, field_end, ts)) return false;
  for (p = SkipSpace(field_end, end); p != end;
       p = SkipSpace(field_end, end)) {
    field_end = SkipField(p, end);
    Coord c;
    const auto [colon, ec] = std::from_chars(p, field_end, c.dim);
    if (ec != std::errc() || colon == field_end || *colon != ':' ||
        !ParseDecimal(colon + 1, field_end, &c.value)) {
      return false;
    }
    coords->push_back(c);
  }
  return true;
}

// Prefixes the path onto a core reader's error message, preserving the
// code. `sep` is ":" for text errors (the core message starts with the
// line number) and ": " for binary ones.
Status Locate(const Status& status, const std::string& path,
              const char* sep) {
  if (status.ok()) return status;
  return Status(status.code(), path + sep + std::string(status.message()));
}

}  // namespace

Status WriteTextStream(const Stream& stream, const std::string& path) {
  std::ofstream f(path);
  if (!f) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  f.precision(17);
  f << "# sssj text stream: <ts> <dim>:<value> ...\n";
  for (const StreamItem& item : stream) {
    f << item.ts;
    for (const Coord& c : item.vec) f << ' ' << c.dim << ':' << c.value;
    f << '\n';
  }
  f.flush();
  if (!f.good()) {
    return Status::IoError("write failure on " + path);
  }
  return Status::Ok();
}

Status ReadTextStream(std::istream& in, Stream* out, const ReadOptions& opts) {
  out->clear();
  // Unparsed input is buf[begin, end); a line that does not fit the
  // buffer doubles it, so it stays under one block or twice the longest
  // line.
  std::vector<char> buf(kTextBlockBytes);
  size_t begin = 0;
  size_t end = 0;
  bool at_eof = false;
  size_t lineno = 0;
  std::vector<Coord> coords;
  for (;;) {
    const char* base = buf.data();
    const char* nl =
        static_cast<const char*>(std::memchr(base + begin, '\n', end - begin));
    if (nl == nullptr && !at_eof) {
      std::memmove(buf.data(), base + begin, end - begin);
      end -= begin;
      begin = 0;
      if (end == buf.size()) buf.resize(2 * buf.size());
      in.read(buf.data() + end, static_cast<std::streamsize>(buf.size() - end));
      // A failed read (badbit) must not pass for the end of a shorter
      // stream.
      if (in.bad()) {
        return Status::IoError(std::to_string(lineno + 1) + ": read error");
      }
      end += static_cast<size_t>(in.gcount());
      at_eof = !in;
      continue;
    }
    if (nl == nullptr && begin == end) return Status::Ok();
    // Like std::getline: the last line may lack its '\n'.
    const char* line = base + begin;
    const char* line_end = nl != nullptr ? nl : base + end;
    begin = nl != nullptr ? static_cast<size_t>(nl - base) + 1 : end;
    ++lineno;
    if (line == line_end || line[0] == '#') continue;
    Timestamp ts = 0.0;
    coords.clear();
    Status status = ParseLineFast(line, line_end, &ts, &coords)
                        ? Status::Ok()
                        : ParseLine(std::string(line, line_end), &ts, &coords);
    if (status.ok()) {
      // FinishItem consumes the buffer. Reserving the same capacity again
      // gets the freed block straight back from the allocator, so no
      // per-line temporary is left between the items' coordinate arrays;
      // such holes slow the join that pushes the stream (cli-sparse push
      // p99 +10% with an exact-size copy per line).
      const size_t capacity = coords.capacity();
      status = FinishItem(std::move(coords), ts, opts, out);
      coords.reserve(capacity);
    }
    if (!status.ok()) {
      return Status(status.code(), std::to_string(lineno) + ": " +
                                       std::string(status.message()));
    }
  }
}

Status ReadTextStream(const std::string& path, Stream* out,
                      const ReadOptions& opts) {
  std::ifstream f(path);
  if (!f) {
    return Status::NotFound("cannot open " + path);
  }
  return Locate(ReadTextStream(f, out, opts), path, ":");
}

Status WriteBinaryStream(const Stream& stream, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  f.write(kMagic, sizeof(kMagic));
  const uint64_t count = stream.size();
  WriteRaw(f, count);
  for (const StreamItem& item : stream) {
    WriteRaw(f, item.ts);
    const uint32_t nnz = static_cast<uint32_t>(item.vec.nnz());
    WriteRaw(f, nnz);
    for (const Coord& c : item.vec) {
      WriteRaw(f, c.dim);
      WriteRaw(f, c.value);
    }
  }
  f.flush();
  if (!f.good()) {
    return Status::IoError("write failure on " + path);
  }
  return Status::Ok();
}

Status ReadBinaryStream(std::istream& in, Stream* out,
                        const ReadOptions& opts) {
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in.good() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not an sssj binary stream");
  }
  uint64_t count = 0;
  if (!ReadRaw(in, &count)) {
    return Status::DataLoss("truncated header");
  }
  out->clear();
  out->reserve(static_cast<size_t>(std::min(count, kMaxItemReserve)));
  for (uint64_t i = 0; i < count; ++i) {
    Timestamp ts;
    uint32_t nnz;
    if (!ReadRaw(in, &ts) || !ReadRaw(in, &nnz)) {
      return Status::DataLoss("truncated item header");
    }
    std::vector<Coord> coords;
    // nnz is untrusted too: a 12-byte file claiming 4 billion coords must
    // fail on the truncation below, not OOM on this reserve.
    coords.reserve(std::min(nnz, kMaxCoordReserve));
    for (uint32_t k = 0; k < nnz; ++k) {
      Coord c;
      if (!ReadRaw(in, &c.dim) || !ReadRaw(in, &c.value)) {
        return Status::DataLoss("truncated coordinates");
      }
      coords.push_back(c);
    }
    Status status = FinishItem(std::move(coords), ts, opts, out);
    if (!status.ok()) {
      return Status(status.code(), "item " + std::to_string(i) + ": " +
                                       std::string(status.message()));
    }
  }
  return Status::Ok();
}

Status ReadBinaryStream(const std::string& path, Stream* out,
                        const ReadOptions& opts) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    return Status::NotFound("cannot open " + path);
  }
  return Locate(ReadBinaryStream(f, out, opts), path, ": ");
}

}  // namespace sssj
