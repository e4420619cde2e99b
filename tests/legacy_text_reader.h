// Test oracle for ReadTextStream (data/io.h): the reader's original
// implementation, one std::getline line at a time, split by an
// istringstream and converted with strtoul/strtod. The production reader
// must agree with it on every input: the same Status code and message,
// and the same items bit for bit. A failed read is the one place they
// differ on purpose: this reader stops at it as if at EOF. Used by
// tests/io_test.cc and fuzz/fuzz_text_stream.cc.
#ifndef SSSJ_TESTS_LEGACY_TEXT_READER_H_
#define SSSJ_TESTS_LEGACY_TEXT_READER_H_

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "core/stream_item.h"
#include "data/io.h"

namespace sssj::testing {

namespace legacy_text_reader_internal {

inline Status FinishItem(std::vector<Coord> coords, Timestamp ts,
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

inline bool ParseCoord(const std::string& tok, size_t colon, Coord* c) {
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

inline uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace legacy_text_reader_internal

inline Status LegacyReadTextStream(std::istream& in, Stream* out,
                                   const ReadOptions& opts) {
  using legacy_text_reader_internal::FinishItem;
  using legacy_text_reader_internal::ParseCoord;
  out->clear();
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    Timestamp ts;
    if (!(ss >> ts)) {
      return Status::InvalidArgument(std::to_string(lineno) +
                                     ": bad timestamp");
    }
    std::vector<Coord> coords;
    std::string tok;
    while (ss >> tok) {
      const auto colon = tok.find(':');
      Coord c;
      if (colon == std::string::npos || !ParseCoord(tok, colon, &c)) {
        return Status::InvalidArgument(std::to_string(lineno) +
                                       ": bad coord " + tok);
      }
      coords.push_back(c);
    }
    Status status = FinishItem(std::move(coords), ts, opts, out);
    if (!status.ok()) {
      return Status(status.code(), std::to_string(lineno) + ": " +
                                       std::string(status.message()));
    }
  }
  return Status::Ok();
}

// Reads `text` with ReadTextStream and with the oracle. Returns "" when
// they agree on the Status code and message and on every item's id, ts,
// dims and value bits (items read before an error included); otherwise
// the first difference.
inline std::string TextReadMismatch(const std::string& text,
                                    const ReadOptions& opts) {
  using legacy_text_reader_internal::Bits;
  Stream got, want;
  std::istringstream got_in(text), want_in(text);
  const Status got_status = ReadTextStream(got_in, &got, opts);
  const Status want_status = LegacyReadTextStream(want_in, &want, opts);
  if (got_status.code() != want_status.code() ||
      got_status.message() != want_status.message()) {
    return "status " + got_status.ToString() + " vs oracle " +
           want_status.ToString();
  }
  if (got.size() != want.size()) {
    return "item count " + std::to_string(got.size()) + " vs oracle " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const std::string where = "item " + std::to_string(i) + ": ";
    if (got[i].id != want[i].id) return where + "id";
    if (Bits(got[i].ts) != Bits(want[i].ts)) return where + "ts bits";
    if (got[i].vec.nnz() != want[i].vec.nnz()) return where + "nnz";
    for (size_t k = 0; k < got[i].vec.nnz(); ++k) {
      const Coord& g = got[i].vec.coord(k);
      const Coord& w = want[i].vec.coord(k);
      if (g.dim != w.dim) return where + "dim of coord " + std::to_string(k);
      if (Bits(g.value) != Bits(w.value)) {
        return where + "value bits of coord " + std::to_string(k);
      }
    }
  }
  return "";
}

}  // namespace sssj::testing

#endif  // SSSJ_TESTS_LEGACY_TEXT_READER_H_
