// Fuzz target for the engine checkpoint loader, the most complex
// untrusted-byte parser in the codebase: SssjEngine::LoadCheckpoint
// (SSSJENG3: a header with the stream clock, then a declared number of
// items, each with a declared number of coordinates; the retired SSSJENG2
// and SSSJCKP2 magics are refused by name).
//
// The bytes load into one STR-L2 engine. Invariants: arbitrary bytes never
// crash, hang, or over-read (ASan); a failed load reports an error and
// leaves the live engine fully usable (swap-on-success — state must not
// be half-replaced).
#undef NDEBUG
#include <cassert>
#include <cstdint>
#include <sstream>
#include <string>

#include "core/engine.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  sssj::EngineConfig cfg;
  cfg.framework = sssj::Framework::kStreaming;
  cfg.index = sssj::IndexScheme::kL2;
  cfg.theta = 0.7;
  cfg.lambda = 0.01;
  auto engine = sssj::SssjEngine::Make(cfg);
  assert(engine.ok());
  std::istringstream is(bytes);
  const sssj::Status st = (*engine)->LoadCheckpoint(is);
  if (!st.ok()) {
    assert(!st.message().empty());
  }
  // Loaded or rejected, the engine must still accept pushes: a failed
  // load that corrupted live state would surface here (or under ASan).
  const sssj::Status push = (*engine)->Push(
      1e9, sssj::SparseVector::UnitFromCoords({{0, 0.6}, {1, 0.8}}));
  // After a successful load the restored clock may legitimately sit past
  // 1e9 (timestamp-regression reject); after a failed one the engine is
  // untouched and the push must land.
  if (!st.ok()) assert(push.ok());
  // A loaded engine saves again, through the index rebuild.
  std::ostringstream os;
  assert((*engine)->SaveCheckpoint(os).ok());
  return 0;
}
