// Stream serialization.
//
// Text format (one vector per line, '#' starts a comment):
//   <timestamp> <dim>:<value> <dim>:<value> ...
//
// Binary format (the paper ships a text-to-binary converter because the
// binary form is "more compact and faster to read"; ours is
// examples/text2bin):
//   8-byte magic "SSSJBIN1", then u64 item count, then per item:
//   f64 ts, u32 nnz, nnz × (u32 dim, f64 value). Little-endian.
//
// Readers assign sequential ids, validate time order, and (optionally)
// unit-normalize. All functions return a Status locating the problem
// (path, line/position, and what was wrong):
//   kNotFound         the file cannot be opened for reading
//   kInvalidArgument  malformed contents (bad timestamp/coordinate,
//                     wrong magic, empty vector, decreasing timestamp)
//   kDataLoss         a binary file ends mid-record
//   kIoError          the OS failed a read, write or open-for-write
//                     (a text stream that fails mid-read, e.g. a
//                     directory, is an error, not a shorter stream)
#ifndef SSSJ_DATA_IO_H_
#define SSSJ_DATA_IO_H_

#include <iosfwd>
#include <string>

#include "core/status.h"
#include "core/stream_item.h"

namespace sssj {

struct ReadOptions {
  bool normalize = true;      // unit-normalize vectors on read
  bool require_ordered = true;  // fail on decreasing timestamps
};

Status WriteTextStream(const Stream& stream, const std::string& path);
Status ReadTextStream(const std::string& path, Stream* out,
                      const ReadOptions& opts = {});

Status WriteBinaryStream(const Stream& stream, const std::string& path);
Status ReadBinaryStream(const std::string& path, Stream* out,
                        const ReadOptions& opts = {});

// Stream-based cores of the readers: same validation, same Status codes,
// but decoding from any istream (the path overloads wrap these and prefix
// the path onto error messages). These are the entry points the fuzz
// harnesses drive — a reader that only takes a filename cannot be fuzzed
// without a filesystem round-trip per input.
Status ReadTextStream(std::istream& in, Stream* out,
                      const ReadOptions& opts = {});
Status ReadBinaryStream(std::istream& in, Stream* out,
                        const ReadOptions& opts = {});

}  // namespace sssj

#endif  // SSSJ_DATA_IO_H_
