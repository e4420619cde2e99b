// StreamL2Index under a polynomial or sliding-window DecayFunction. This
// instantiation of the arrival body has its own file so that
// stream_l2_index.cc holds only the exponential one (see ProcessUnder).
#include "index/stream_l2_index.h"

namespace sssj {

void StreamL2Index::ProcessUnderDecayFunction(const StreamItem& x,
                                              ResultSink* sink) {
  ProcessUnder([this](Timestamp dt) { return decay_.Eval(dt); }, x, sink);
}

}  // namespace sssj
