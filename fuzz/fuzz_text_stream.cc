// Fuzz target for the text stream reader (data/io.h): one vector per
// line, `<ts> <dim>:<value>...`, attacker-controlled. Invariants:
// arbitrary text never crashes or over-reads (ASan); the reader agrees
// with the line-at-a-time oracle (tests/legacy_text_reader.h) on the
// Status code and message and on every item's bits; a kOk result
// implies every parsed item obeys the reader's own postconditions
// (ordered timestamps when required, no empty vectors).
#undef NDEBUG
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "data/io.h"
#include "tests/legacy_text_reader.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);

  for (const bool normalize : {true, false}) {
    std::istringstream is(text);
    sssj::Stream stream;
    sssj::ReadOptions opts;
    opts.normalize = normalize;
    const sssj::Status st = sssj::ReadTextStream(is, &stream, opts);
    assert(sssj::testing::TextReadMismatch(text, opts).empty());
    if (!st.ok()) {
      assert(!st.message().empty());
      continue;
    }
    double prev_ts = -std::numeric_limits<double>::infinity();
    for (const sssj::StreamItem& item : stream) {
      assert(!item.vec.empty());  // empty vectors are rejections, not items
      assert(item.ts >= prev_ts);
      prev_ts = item.ts;
    }
  }
  return 0;
}
