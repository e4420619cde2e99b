// One Stack per ledger row: the same workload pushed through the public
// API of one module, with every layer below it underneath. Rows, bottom
// up, with the row each one's self time is taken against:
//
//   index          StreamIndex::ProcessArrival (MB tenants: their window join)
//   stream         JoinCore from MakeJoinCore               (over index)
//   engine         SssjEngine::Push                         (over stream)
//   ingest         SssjEngine::AsyncPush + Drain            (over engine)
//   service        JoinService::Push, inline sessions       (over engine)
//   service-async  JoinService::AsyncPush + Drain           (over ingest)
//   client         in-process cluster::ClusterClient        (over service)
//   fleet          ClusterClient -> Supervisor -> 2 workers (over client)
//
// "cli" is the engine row fed from the text file (ReadTextStream in
// Open), the sssj_cli path. Timing happens here, outside the library:
// the runner stamps each call into the row's public functions.
#ifndef PERFBENCH_STACKS_H_
#define PERFBENCH_STACKS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/supervisor.h"
#include "core/result.h"
#include "core/status.h"
#include "measure.h"
#include "workload.h"

namespace perfbench {

// Per-layer readings a stack takes of its own module, untimed.
using Metrics = std::map<std::string, double>;

// Routes one tenant's pairs into that tenant's digest.
class DigestSink : public sssj::ResultSink {
 public:
  DigestSink(uint64_t tenant, PairDigest* digest)
      : tenant_(tenant), digest_(digest) {}
  void Emit(const sssj::ResultPair& pair) override {
    digest_->Add(tenant_, pair);
  }

 private:
  uint64_t tenant_;
  PairDigest* digest_;
};

class Stack {
 public:
  explicit Stack(const Workload& w);
  virtual ~Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  // Builds the layer's objects for every tenant: the set-up a user waits
  // for before the first push.
  virtual sssj::Status Open() = 0;
  // One call: item `item` of tenant `tenant`, the k-th push of the pass.
  virtual sssj::Status Push(uint32_t tenant, uint32_t item, size_t k) = 0;
  // Async stacks: returns once every submitted item is applied.
  virtual sssj::Status Drain() { return sssj::Status::Ok(); }
  // Resident live-state bytes at the end of the push phase.
  virtual double StateBytes() = 0;
  // Reads the layer's own counters and times its accessor calls into
  // metrics(); untimed as far as the pass is concerned.
  virtual void Probe() {}
  // Flush/close: returns once the last pair is delivered.
  virtual sssj::Status Close() = 0;

  // Async stacks stamp each push's completion into end_ns[k] themselves;
  // for the others the runner stamps the return of Push.
  bool async() const { return async_; }
  void BindCompletions(int64_t* end_ns) { end_ns_ = end_ns; }
  // Items the layer applied with a non-OK status (async completions).
  uint64_t async_failures() const { return async_failures_.load(); }

  // Pairs emitted so far, over every tenant.
  PairDigest digest() const;
  // Per-layer readings taken by Probe and Close.
  const Metrics& metrics() const { return metrics_; }

 protected:
  // Completion callback for async engines/sessions of `tenant`.
  void Complete(uint32_t tenant, uint64_t ticket, const sssj::Status& status);

  const Workload& w_;
  std::vector<PairDigest> digests_;  // one per tenant
  std::vector<std::unique_ptr<DigestSink>> sinks_;
  Metrics metrics_;
  bool async_ = false;

 private:
  int64_t* end_ns_ = nullptr;
  // ticket -> k per tenant: tickets are the tenant's submit ordinals.
  std::vector<std::vector<size_t>> push_index_;
  std::atomic<uint64_t> async_failures_{0};
};

// Row names in ledger order, bottom up.
const std::vector<std::string>& LedgerRows();
// The row a row's self time is measured against ("" for index).
std::string BelowRow(const std::string& row);

struct StackEnv {
  // Started fleet for the "fleet" row (borrowed).
  sssj::cluster::Supervisor* supervisor = nullptr;
  // client/fleet rows: keep the pairs each push returned, for the wire
  // codec measurement (indexed by k).
  std::vector<std::vector<sssj::ResultPair>>* pairs_by_push = nullptr;
};

// `row` is one of LedgerRows() or "cli".
sssj::StatusOr<std::unique_ptr<Stack>> MakeStack(const std::string& row,
                                                 const Workload& w,
                                                 const StackEnv& env);

}  // namespace perfbench

#endif  // PERFBENCH_STACKS_H_
