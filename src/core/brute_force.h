// Exact O(n²) baselines. These are the correctness oracles for every index
// and framework in the library, and the "no pruning at all" comparison
// point. The streaming variant exploits only the time horizon (two-pointer
// sliding window), so it is exact for the sssj problem while still
// terminating on long streams.
#ifndef SSSJ_CORE_BRUTE_FORCE_H_
#define SSSJ_CORE_BRUTE_FORCE_H_

#include <vector>

#include "core/decay.h"
#include "core/result.h"
#include "core/similarity.h"
#include "core/stream_item.h"

namespace sssj {

// Classic apss: all pairs (i < j) with dot >= theta. No time decay.
void BruteForceBatchJoin(const std::vector<SparseVector>& data, double theta,
                         ResultSink* sink);

// Exact sssj: all pairs with dot·exp(−λΔt) >= theta. `stream` must be
// time-ordered. Each emitted pair is canonicalized (a < b).
void BruteForceStreamJoin(const Stream& stream, const DecayParams& params,
                          ResultSink* sink);

// Exact sssj under a generalized decay (core/decay.h): all pairs with
// dot·f(Δt) >= theta within the horizon τ_f(theta).
void BruteForceDecayJoin(const Stream& stream, double theta,
                         const DecayFunction& decay, ResultSink* sink);

// Convenience: collect into a sorted vector.
std::vector<ResultPair> BruteForceStreamJoinSorted(const Stream& stream,
                                                   const DecayParams& params);

}  // namespace sssj

#endif  // SSSJ_CORE_BRUTE_FORCE_H_
