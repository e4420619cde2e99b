#include "core/brute_force.h"

#include <algorithm>

namespace sssj {

void BruteForceBatchJoin(const std::vector<SparseVector>& data, double theta,
                         ResultSink* sink) {
  for (size_t i = 0; i < data.size(); ++i) {
    for (size_t j = i + 1; j < data.size(); ++j) {
      const double d = data[i].Dot(data[j]);
      if (d >= theta) {
        ResultPair p;
        p.a = i;
        p.b = j;
        p.dot = d;
        p.sim = d;
        sink->Emit(p);
      }
    }
  }
}

void BruteForceStreamJoin(const Stream& stream, const DecayParams& params,
                          ResultSink* sink) {
  BruteForceDecayJoin(stream, params.theta,
                      DecayFunction::Exponential(params.lambda), sink);
}

void BruteForceDecayJoin(const Stream& stream, double theta,
                         const DecayFunction& decay, ResultSink* sink) {
  const double tau = decay.Horizon(theta);
  size_t oldest = 0;  // first index still within the horizon of stream[j]
  for (size_t j = 0; j < stream.size(); ++j) {
    const StreamItem& x = stream[j];
    while (oldest < j && x.ts - stream[oldest].ts > tau) ++oldest;
    for (size_t i = oldest; i < j; ++i) {
      const StreamItem& y = stream[i];
      const double d = x.vec.Dot(y.vec);
      if (d <= 0.0) continue;
      const double sim = d * decay.Eval(x.ts - y.ts);
      if (sim >= theta) {
        ResultPair p;
        p.a = y.id;
        p.b = x.id;
        p.ta = y.ts;
        p.tb = x.ts;
        p.dot = d;
        p.sim = sim;
        p.Canonicalize();
        sink->Emit(p);
      }
    }
  }
}

std::vector<ResultPair> BruteForceStreamJoinSorted(const Stream& stream,
                                                   const DecayParams& params) {
  CollectorSink sink;
  BruteForceStreamJoin(stream, params, &sink);
  return sink.SortedPairs();
}

}  // namespace sssj
