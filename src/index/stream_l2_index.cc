#include "index/stream_l2_index.h"

namespace sssj {

void StreamL2Index::ProcessArrival(const StreamItem& x, ResultSink* sink) {
  if (decay_.kind() != DecayFunction::Kind::kExponential) {
    ProcessUnderDecayFunction(x, sink);
    return;
  }
  // The local closure gives this instantiation internal linkage: the
  // compiler then treats it as a function called once and inlines the
  // scans, and the lookups they make, into it.
  const ExponentialDecay exponential{decay_.lambda()};
  ProcessUnder([exponential](Timestamp dt) { return exponential(dt); }, x,
               sink);
}

void StreamL2Index::Clear() {
  lists_.Clear();
  residuals_.Clear();
  live_entries_ = 0;
}

}  // namespace sssj
