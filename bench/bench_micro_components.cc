// Component micro-benchmarks (google-benchmark): the data-structure
// operations whose costs drive the macro results — posting-list
// maintenance, candidate-map accumulation, sparse dot products, decayed
// max-vector updates, Zipf sampling, and end-to-end per-arrival cost of
// each streaming index. Besides the console table, every run is captured
// as machine-readable JSON to --json-out (default BENCH_micro.json;
// empty string disables) for the CI bench-smoke key diff.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common/bench_json.h"

#include "data/generator.h"
#include "index/candidate_map.h"
#include "index/kernels.h"
#include "index/l2_phases.h"
#include "index/max_vector.h"
#include "index/posting_list.h"
#include "index/stream_inv_index.h"
#include "index/stream_l2_index.h"
#include "index/stream_l2ap_index.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/zipf.h"

namespace sssj {
namespace {

void BM_PostingListAppend(benchmark::State& state) {
  for (auto _ : state) {
    PostingList list;
    for (int i = 0; i < state.range(0); ++i) {
      list.Append(PostingEntry{static_cast<VectorId>(i), 0.5, 0.5,
                               static_cast<Timestamp>(i)});
    }
    benchmark::DoNotOptimize(list.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PostingListAppend)->Arg(1024)->Arg(16384);

void BM_PostingListBackwardTruncate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    PostingList list;
    for (int i = 0; i < n; ++i) {
      list.Append(PostingEntry{static_cast<VectorId>(i), 0.5, 0.5,
                               static_cast<Timestamp>(i)});
    }
    state.ResumeTiming();
    // Drop the older half as the backward scan would.
    list.TruncateFront(n / 2);
    benchmark::DoNotOptimize(list.size());
  }
}
BENCHMARK(BM_PostingListBackwardTruncate)->Arg(16384);

void BM_PostingListCompact(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    PostingList list;
    for (int i = 0; i < n; ++i) {
      list.Append(PostingEntry{static_cast<VectorId>(i), 0.5, 0.5,
                               static_cast<Timestamp>(i % 100)});
    }
    state.ResumeTiming();
    list.CompactExpired(50.0);  // forward compaction, L2AP style
    benchmark::DoNotOptimize(list.size());
  }
}
BENCHMARK(BM_PostingListCompact)->Arg(16384);

// ---- AoS vs SoA posting scan ----
// The generate-phase access pattern: walk newest → oldest, read `ts` and
// `id` for every entry, touch `value`/`prefix_norm` only for the ~1/16 of
// entries that pass the ownership filter. The AoS variant (a contiguous
// row-major layout, standing in for the seed's AoS circular buffer —
// removed in this PR) drags the full 32-byte record through cache per
// entry; the SoA PostingList streams the two hot 8-byte columns.
// `bytes/entry` reports the dense bytes each layout touches per scanned
// entry.

void BM_PostingScanAoS(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<PostingEntry> list;
  Rng rng(7);
  for (size_t i = 0; i < n; ++i) {
    list.push_back(PostingEntry{rng.NextBelow(1u << 20), rng.NextDouble(),
                                rng.NextDouble(), static_cast<Timestamp>(i)});
  }
  double acc = 0.0;
  for (auto _ : state) {
    size_t idx = list.size();
    while (idx-- > 0) {
      const PostingEntry& e = list[idx];
      if (e.ts < -1.0) break;  // expiry check (never fires: all live)
      if ((e.id & 15u) != 0) continue;  // ownership filter
      acc += e.value * 0.5 + e.prefix_norm + e.ts * 1e-12;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
  state.counters["bytes/entry"] = sizeof(PostingEntry);
}
BENCHMARK(BM_PostingScanAoS)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_PostingScanSoA(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  PostingList list;
  Rng rng(7);
  for (size_t i = 0; i < n; ++i) {
    list.Append(rng.NextBelow(1u << 20), rng.NextDouble(), rng.NextDouble(),
                static_cast<Timestamp>(i));
  }
  double acc = 0.0;
  for (auto _ : state) {
    // Expiry by binary search on the ts column (replaces the per-entry
    // check), then a dense scan of the id column; the cold columns are
    // only touched on filter hits.
    const size_t live = list.size() - list.LowerBoundTs(-1.0);
    PostingSpan spans[2];
    const size_t nspans = list.Spans(list.size() - live, list.size(), spans);
    for (size_t s = nspans; s-- > 0;) {
      const PostingSpan& sp = spans[s];
      for (size_t k = sp.len; k-- > 0;) {
        if ((sp.id[k] & 15u) != 0) continue;  // ownership filter
        acc += sp.value[k] * 0.5 + sp.prefix_norm[k] + sp.ts[k] * 1e-12;
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
  state.counters["bytes/entry"] = sizeof(VectorId);  // dense column traffic
}
BENCHMARK(BM_PostingScanSoA)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

// ---- Tiny-list regime ----
// The short-horizon laptop regime averages ~4 entries per posting list,
// where the SoA layout's per-list fixed costs showed a documented ~15%
// regression vs AoS after the columnar switch. The buffers now allocate
// lazily with a 4-slot initial block (one allocation of 128 B per
// non-empty list instead of 256 B eagerly); these benchmarks pin the
// build-and-scan cost and the resident bytes per list for both layouts so
// the delta stays visible. The scan touches every column, matching the
// verify-heavy access pattern of short lists (no column selectivity to
// hide behind).

constexpr size_t kTinyLists = 4096;
constexpr size_t kTinyLen = 4;

void BM_TinyListBuildScanAoS(benchmark::State& state) {
  double acc = 0.0;
  size_t cap_bytes = 0;
  for (auto _ : state) {
    std::vector<std::vector<PostingEntry>> lists(kTinyLists);
    for (size_t l = 0; l < kTinyLists; ++l) {
      for (size_t i = 0; i < kTinyLen; ++i) {
        lists[l].push_back(PostingEntry{i, 0.5, 0.5,
                                        static_cast<Timestamp>(i)});
      }
    }
    cap_bytes = 0;
    for (const auto& list : lists) {
      for (size_t i = 0; i < list.size(); ++i) {
        const PostingEntry& e = list[i];
        acc += e.value + e.prefix_norm + e.ts * 1e-12 +
               static_cast<double>(e.id);
      }
      cap_bytes += list.capacity() * sizeof(PostingEntry);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * kTinyLists * kTinyLen));
  state.counters["bytes/list"] =
      static_cast<double>(cap_bytes) / kTinyLists;
}
BENCHMARK(BM_TinyListBuildScanAoS);

void BM_TinyListBuildScanSoA(benchmark::State& state) {
  double acc = 0.0;
  size_t cap_bytes = 0;
  for (auto _ : state) {
    std::vector<PostingList> lists(kTinyLists);
    for (size_t l = 0; l < kTinyLists; ++l) {
      for (size_t i = 0; i < kTinyLen; ++i) {
        lists[l].Append(i, 0.5, 0.5, static_cast<Timestamp>(i));
      }
    }
    cap_bytes = 0;
    for (const auto& list : lists) {
      PostingSpan spans[2];
      const size_t n = list.Spans(0, list.size(), spans);
      for (size_t s = 0; s < n; ++s) {
        const PostingSpan& sp = spans[s];
        for (size_t k = 0; k < sp.len; ++k) {
          acc += sp.value[k] + sp.prefix_norm[k] + sp.ts[k] * 1e-12 +
                 static_cast<double>(sp.id[k]);
        }
      }
      cap_bytes += list.capacity_bytes();
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * kTinyLists * kTinyLen));
  state.counters["bytes/list"] =
      static_cast<double>(cap_bytes) / kTinyLists;
}
BENCHMARK(BM_TinyListBuildScanSoA);

// ---- Kernel sweep: scalar vs SIMD scoring kernels ----
// BM_L2GenerateScan* runs the generate phase itself
// (l2_phases.h: list resolve, decay, candidate map, l2bound) over one
// long (λ=0.001-regime) list. Its ids are distinct, so every posting is
// a candidate's first touch and pays one decay: the worst case for the
// per-candidate decay. Entry timestamps are spread across one time
// horizon τ = ln(1/θ)/λ so every entry is live and passes admission —
// the long-window steady state.

constexpr double kKernelTheta = 0.7;
constexpr double kKernelLambda = 0.001;

// One posting list in the long-window steady state: distinct candidate
// ids, values/prefix-norms in the realistic unit range.
PostingList MakeKernelSweepList(size_t n) {
  PostingList list;
  Rng rng(13);
  const double tau = std::log(1.0 / kKernelTheta) / kKernelLambda;
  for (size_t i = 0; i < n; ++i) {
    list.Append(static_cast<VectorId>(i), 0.05 + 0.3 * rng.NextDouble(),
                0.5 + 0.45 * rng.NextDouble(),
                static_cast<double>(i) * tau / n);
  }
  return list;
}

// The production generate scan (L2GenerateCandidates) over one such
// list. The query is a unit vector whose last coordinate (value 0.12) is
// the list's dim, so the scan sees rs2 = 1 there; its other coordinate
// has no list. The scanned coordinate's prefix norm ||x'_i|| is 0.9.
// The scan runs the same code under both kernel flags (use_simd only
// reaches verification); the simd variant is kept so the sweep's names,
// the keys of BENCH_micro.json, stay stable.
template <bool kSimd>
void BM_L2GenerateScan(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  PostingList list = MakeKernelSweepList(n);
  constexpr DimId kListDim = 1;
  const double qv = 0.12;
  DecayParams params;
  params.theta = kKernelTheta;
  params.lambda = kKernelLambda;
  params.tau = std::log(1.0 / kKernelTheta) / kKernelLambda;
  StreamItem x;
  x.ts = params.tau;
  x.vec = SparseVector::FromCoords(
      {{0, std::sqrt(1.0 - qv * qv)}, {kListDim, qv}});
  const std::vector<double> prefix_norms = {0.0, 0.9};
  CandidateMap cands;
  L2KernelState kern;
  kern.use_simd = kSimd;
  L2PhaseStats stats;
  uint64_t admitted = 0;
  for (auto _ : state) {
    cands.Reset();
    L2GenerateCandidates(
        x, params.theta, ExponentialDecay{params.lambda}, L2IndexOptions{},
        prefix_norms, x.ts - params.tau,
        [&list](DimId dim) { return dim == kListDim ? &list : nullptr; },
        [](PostingList&, size_t) {}, &kern, &cands, &stats);
    admitted += cands.admitted();
    benchmark::DoNotOptimize(admitted);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
  state.SetLabel(kSimd ? ToString(ActiveSimdLevel()) : "scalar");
}
// Lengths span the λ=0.001 long-window regime (hundreds to thousands of
// live entries per list; the tiny-window laptop regime averages ~4). At
// multi-100k lengths the candidate map outgrows cache and its misses
// dominate the scan.
BENCHMARK_TEMPLATE(BM_L2GenerateScan, false)
    ->Arg(1 << 8)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 14);
BENCHMARK_TEMPLATE(BM_L2GenerateScan, true)
    ->Arg(1 << 8)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 14);

// Verify-path dot shapes: balanced merges (query vs query-sized prefix)
// and the skewed merges the residual store actually produces (long query
// vs short un-indexed prefix) — the skips only fire on the latter.
template <bool kSimd>
void BM_SparseDotKernel(benchmark::State& state) {
  Rng rng(2);
  const auto make = [&](int nnz) {
    std::vector<Coord> coords;
    for (int i = 0; i < nnz; ++i) {
      coords.push_back(
          Coord{static_cast<DimId>(rng.NextBelow(20000)), rng.NextDouble()});
    }
    return SparseVector::UnitFromCoords(std::move(coords));
  };
  const SparseVector a = make(static_cast<int>(state.range(0)));
  const SparseVector b = make(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::SparseDot(a, b, kSimd));
  }
}
BENCHMARK_TEMPLATE(BM_SparseDotKernel, false)
    ->Args({1024, 1024})->Args({1024, 64})->Args({4096, 32});
BENCHMARK_TEMPLATE(BM_SparseDotKernel, true)
    ->Args({1024, 1024})->Args({1024, 64})->Args({4096, 32});

void BM_CandidateMapAccumulate(benchmark::State& state) {
  CandidateMap map;
  Rng rng(1);
  std::vector<VectorId> ids(4096);
  for (auto& id : ids) id = rng.NextBelow(1024);
  for (auto _ : state) {
    map.Reset();
    for (VectorId id : ids) map.FindOrCreate(id)->score += 0.01;
    benchmark::DoNotOptimize(map.touched_count());
  }
  state.SetItemsProcessed(state.iterations() * ids.size());
}
BENCHMARK(BM_CandidateMapAccumulate);

void BM_SparseDot(benchmark::State& state) {
  Rng rng(2);
  const auto make = [&](int nnz) {
    std::vector<Coord> coords;
    for (int i = 0; i < nnz; ++i) {
      coords.push_back(
          Coord{static_cast<DimId>(rng.NextBelow(5000)), rng.NextDouble()});
    }
    return SparseVector::UnitFromCoords(std::move(coords));
  };
  const SparseVector a = make(static_cast<int>(state.range(0)));
  const SparseVector b = make(static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(a.Dot(b));
}
BENCHMARK(BM_SparseDot)->Arg(16)->Arg(128)->Arg(1024);

void BM_DecayedMaxUpdate(benchmark::State& state) {
  DecayedMaxVector m(0.01);
  Rng rng(3);
  Timestamp now = 0;
  for (auto _ : state) {
    now += 0.01;
    m.Update(static_cast<DimId>(rng.NextBelow(1000)), rng.NextDouble(), now);
  }
  benchmark::DoNotOptimize(m.size());
}
BENCHMARK(BM_DecayedMaxUpdate);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(1000000, 1.05);
  Rng rng(4);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.Sample(rng));
}
BENCHMARK(BM_ZipfSample);

// End-to-end per-arrival cost of each streaming index on a generator
// stream (RCV1-like density).
template <typename Index>
void BM_StreamArrival(benchmark::State& state) {
  DecayParams params;
  DecayParams::Make(0.7, 0.01, &params);
  CorpusSpec spec;
  spec.num_vectors = 2000;
  spec.num_dims = 9000;
  spec.avg_nnz = 76;
  spec.seed = 5;
  const Stream stream = CorpusGenerator(spec).Generate();

  Index index(params);
  CountingSink sink;
  size_t i = 0;
  for (auto _ : state) {
    index.ProcessArrival(stream[i], &sink);
    i = (i + 1) % stream.size();
    if (i == 0) {
      state.PauseTiming();
      index.Clear();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_StreamArrival, StreamInvIndex);
BENCHMARK_TEMPLATE(BM_StreamArrival, StreamL2Index);
BENCHMARK_TEMPLATE(BM_StreamArrival, StreamL2apIndex);

// Console output plus a JsonValue row per completed run — name, timing,
// and every user counter (items_per_second, bytes/entry, ...), so the
// committed BENCH_micro.json baseline pins the full key set.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      JsonValue row = JsonValue::Object();
      row.Set("name", run.benchmark_name())
          .Set("iterations", static_cast<uint64_t>(run.iterations))
          .Set("real_time", run.GetAdjustedRealTime())
          .Set("cpu_time", run.GetAdjustedCPUTime())
          .Set("time_unit", benchmark::GetTimeUnitString(run.time_unit));
      if (!run.report_label.empty()) row.Set("label", run.report_label);
      for (const auto& [key, counter] : run.counters) {
        row.Set(key, static_cast<double>(counter));
      }
      rows_.Push(std::move(row));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  JsonValue TakeRows() { return std::move(rows_); }

 private:
  JsonValue rows_ = JsonValue::Array();
};

int Main(int argc, char** argv) {
  // Peel off --json-out before google-benchmark sees (and rejects) it.
  std::string json_out = "BENCH_micro.json";
  std::vector<char*> passthrough;
  std::string json_flag_storage;
  for (int i = 0; i < argc; ++i) {
    const char* kFlag = "--json-out=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      json_out = argv[i] + std::strlen(kFlag);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_out.empty()) {
    JsonValue doc = JsonValue::Object();
    doc.Set("bench", "micro_components").Set("runs", reporter.TakeRows());
    const Status status = WriteJsonFile(doc, json_out);
    if (!status.ok()) {
      std::cerr << "warning: " << status.ToString() << "\n";
      return 1;
    }
    std::cout << "wrote " << json_out << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace sssj

int main(int argc, char** argv) { return sssj::Main(argc, argv); }
