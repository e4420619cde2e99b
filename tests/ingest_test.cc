// Async ingestion layer: bit-identical equivalence with inline Push
// across queue capacities / epoch sizes / frameworks, backpressure
// (kResourceExhausted + recovery), per-item completion callbacks,
// IngestQueue/IngestPump mechanics (multi-producer ticket order,
// round-robin service), and the JoinService integration (shared pump,
// AsyncPush without the session lock, drain-on-close). The concurrent
// cases run under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/ingest_pump.h"
#include "core/join_service.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::Item;
using ::sssj::testing::RandomStream;
using ::sssj::testing::RandomStreamSpec;
using ::sssj::testing::UnitVec;

// Exact (bitwise) pair-sequence equality: same order, ids, timestamps,
// and scores — the async path must be indistinguishable from inline.
void ExpectIdenticalPairs(const std::vector<ResultPair>& got,
                          const std::vector<ResultPair>& want,
                          const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].a, want[i].a) << label << " pair " << i;
    EXPECT_EQ(got[i].b, want[i].b) << label << " pair " << i;
    EXPECT_EQ(got[i].ta, want[i].ta) << label << " pair " << i;
    EXPECT_EQ(got[i].tb, want[i].tb) << label << " pair " << i;
    EXPECT_EQ(got[i].dot, want[i].dot) << label << " pair " << i;
    EXPECT_EQ(got[i].sim, want[i].sim) << label << " pair " << i;
  }
}

EngineConfig BaseConfig(Framework fw, IndexScheme ix) {
  EngineConfig cfg;
  cfg.framework = fw;
  cfg.index = ix;
  cfg.theta = 0.5;
  cfg.lambda = 0.05;
  return cfg;
}

std::vector<ResultPair> RunInline(const EngineConfig& cfg,
                                  const Stream& stream) {
  CollectorSink sink;
  auto engine = SssjEngine::Make(cfg, &sink);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  for (const StreamItem& item : stream) {
    EXPECT_TRUE((*engine)->Push(item.ts, item.vec).ok());
  }
  (*engine)->Flush();
  return sink.pairs();
}

// Holds the pump inside a callback so that items submitted meanwhile stay
// queued: the callback calls Hold(), the test thread waits in
// WaitUntilHeld() and lets the pump go with Release().
class PumpHostage {
 public:
  void Hold() {
    std::unique_lock<std::mutex> lk(mu_);
    held_ = true;
    cv_.notify_all();
    cv_.wait(lk, [&] { return released_; });
  }
  void WaitUntilHeld() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return held_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  bool released_ = false;
};

// ---------------------------------------------------------------------
// Determinism: async == inline, bit for bit.

TEST(IngestTest, AsyncOutputBitIdenticalToInlineAcrossConfigs) {
  RandomStreamSpec spec;
  spec.n = 150;
  spec.dims = 40;
  spec.max_nnz = 6;
  spec.seed = 7;
  const Stream stream = RandomStream(spec);

  const struct {
    Framework fw;
    IndexScheme ix;
  } schemes[] = {{Framework::kMiniBatch, IndexScheme::kL2},
                 {Framework::kStreaming, IndexScheme::kL2},
                 {Framework::kStreaming, IndexScheme::kInv}};
  const size_t capacities[] = {1, 8, 1024};
  const size_t epoch_items[] = {1, 3, 256};

  for (const auto& scheme : schemes) {
    const EngineConfig base = BaseConfig(scheme.fw, scheme.ix);
    const std::vector<ResultPair> want = RunInline(base, stream);
    EXPECT_FALSE(want.empty());  // the pin must compare something real
    for (const size_t cap : capacities) {
      for (const size_t epoch : epoch_items) {
        EngineConfig cfg = base;
        cfg.ingest.mode = IngestMode::kAsync;
        cfg.ingest.queue_capacity = cap;
        cfg.ingest.epoch_max_items = epoch;
        cfg.ingest.submit = SubmitPolicy::kBlock;
        CollectorSink sink;
        auto engine = SssjEngine::Make(cfg, &sink);
        ASSERT_TRUE(engine.ok()) << engine.status().ToString();
        uint64_t expected_ticket = 0;
        for (const StreamItem& item : stream) {
          uint64_t ticket = ~0ull;
          ASSERT_TRUE((*engine)->AsyncPush(item.ts, item.vec, &ticket).ok());
          EXPECT_EQ(ticket, expected_ticket++);  // dense, in order
        }
        ASSERT_TRUE((*engine)->Drain().ok());
        (*engine)->Flush();
        const std::string label = std::string(ToString(scheme.fw)) + "-" +
                                  ToString(scheme.ix) + " cap=" +
                                  std::to_string(cap) +
                                  " epoch=" + std::to_string(epoch);
        ExpectIdenticalPairs(sink.pairs(), want, label);
        const IngestStats stats = (*engine)->ingest_stats();
        EXPECT_EQ(stats.submitted, stream.size()) << label;
        EXPECT_EQ(stats.items_applied, stream.size()) << label;
        EXPECT_EQ(stats.queue_depth, 0u) << label;
        EXPECT_GE(stats.epochs_closed, 1u) << label;
        EXPECT_EQ(stats.rejected_backpressure, 0u) << label;
      }
    }
  }
}

// A producer that never fills an epoch must still see everything
// applied: the pump drains any non-empty queue, so partial epochs need no
// timer (and a wakeup lost between submit and pump would hang Drain).
TEST(IngestTest, PartialEpochsDrainTricklingProducer) {
  RandomStreamSpec spec;
  spec.n = 60;
  spec.seed = 11;
  const Stream stream = RandomStream(spec);
  const EngineConfig base = BaseConfig(Framework::kStreaming, IndexScheme::kL2);
  const std::vector<ResultPair> want = RunInline(base, stream);

  EngineConfig cfg = base;
  cfg.ingest.mode = IngestMode::kAsync;
  cfg.ingest.queue_capacity = 256;
  cfg.ingest.epoch_max_items = 1u << 20;  // never filled: every epoch partial
  CollectorSink sink;
  auto engine = SssjEngine::Make(cfg, &sink);
  ASSERT_TRUE(engine.ok());
  for (const StreamItem& item : stream) {
    ASSERT_TRUE((*engine)->AsyncPush(item.ts, item.vec).ok());
  }
  ASSERT_TRUE((*engine)->Drain().ok());
  (*engine)->Flush();
  ExpectIdenticalPairs(sink.pairs(), want, "partial-epochs");
}

// Four producers race AsyncPush; the queue's ticket counter linearizes
// them into ticket order. Replaying the items inline in that ticket
// order must reproduce the async output bit for bit — the determinism
// contract under real concurrency. (All items share one timestamp so
// every interleaving is a valid arrival order.)
TEST(IngestTest, ConcurrentProducersMatchInlineReplayInTicketOrder) {
  constexpr int kProducers = 4;
  constexpr size_t kPerProducer = 60;
  RandomStreamSpec spec;
  spec.n = kProducers * kPerProducer;
  spec.dims = 30;
  spec.seed = 23;
  Stream items = RandomStream(spec);
  for (StreamItem& item : items) item.ts = 0.0;

  for (const Framework fw : {Framework::kMiniBatch, Framework::kStreaming}) {
    EngineConfig cfg = BaseConfig(fw, IndexScheme::kL2);
    cfg.ingest.mode = IngestMode::kAsync;
    cfg.ingest.queue_capacity = 32;  // small: forces backpressure blocking
    cfg.ingest.epoch_max_items = 8;
    CollectorSink async_sink;
    auto engine = SssjEngine::Make(cfg, &async_sink);
    ASSERT_TRUE(engine.ok());

    std::vector<std::vector<uint64_t>> tickets(kProducers);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (size_t i = 0; i < kPerProducer; ++i) {
          const StreamItem& item = items[p * kPerProducer + i];
          uint64_t ticket = 0;
          ASSERT_TRUE((*engine)->AsyncPush(item.ts, item.vec, &ticket).ok());
          tickets[p].push_back(ticket);
        }
      });
    }
    for (auto& t : producers) t.join();
    ASSERT_TRUE((*engine)->Drain().ok());
    (*engine)->Flush();

    // Reconstruct the linearized arrival order from the tickets...
    Stream linearized(items.size());
    for (int p = 0; p < kProducers; ++p) {
      for (size_t i = 0; i < kPerProducer; ++i) {
        linearized[tickets[p][i]] = items[p * kPerProducer + i];
      }
    }
    // ...and the inline engine fed that order must agree exactly.
    ExpectIdenticalPairs(async_sink.pairs(), RunInline(cfg, linearized),
                         std::string("concurrent-") + ToString(fw));
  }
}

// ---------------------------------------------------------------------
// Backpressure.

// Deterministic high-water behavior: hold the pump hostage inside the
// completion callback so the queue cannot drain, fill it, and watch kTry
// report kResourceExhausted — then release the pump and verify the queue
// recovers (submits succeed again, everything applies).
TEST(IngestTest, TryPolicyReportsResourceExhaustedAtHighWaterAndRecovers) {
  std::mutex mu;
  std::condition_variable cv;
  bool in_apply = false;
  bool release = false;
  std::vector<std::pair<uint64_t, Status>> completions;

  EngineConfig cfg = BaseConfig(Framework::kStreaming, IndexScheme::kL2);
  cfg.ingest.mode = IngestMode::kAsync;
  cfg.ingest.queue_capacity = 2;
  cfg.ingest.epoch_max_items = 1;
  cfg.ingest.submit = SubmitPolicy::kTry;
  cfg.ingest.on_complete = [&](uint64_t ticket, const Status& status) {
    std::unique_lock<std::mutex> lk(mu);
    completions.emplace_back(ticket, status);
    in_apply = true;
    cv.notify_all();
    cv.wait(lk, [&] { return release; });
  };
  auto engine = SssjEngine::Make(cfg);
  ASSERT_TRUE(engine.ok());

  const SparseVector vec = UnitVec({{1, 1.0}});
  ASSERT_TRUE((*engine)->AsyncPush(0.0, vec).ok());
  {
    // Wait until the pump popped item 0 and is stuck applying it; the
    // queue is now empty and the pump cannot pop anything else.
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return in_apply; });
  }
  ASSERT_TRUE((*engine)->AsyncPush(1.0, vec).ok());
  ASSERT_TRUE((*engine)->AsyncPush(2.0, vec).ok());  // queue now full (2)
  const Status full = (*engine)->AsyncPush(3.0, vec);
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(full.message().find("high-water mark"), std::string::npos);
  EXPECT_EQ((*engine)->ingest_stats().rejected_backpressure, 1u);

  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  ASSERT_TRUE((*engine)->Drain().ok());

  // Recovered: the queue drained, so new submits are accepted again.
  EXPECT_TRUE((*engine)->AsyncPush(4.0, vec).ok());
  ASSERT_TRUE((*engine)->Drain().ok());
  const IngestStats stats = (*engine)->ingest_stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.items_applied, 4u);
  EXPECT_EQ(stats.rejected_backpressure, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.max_queue_depth, 2u);

  std::lock_guard<std::mutex> lk(mu);
  ASSERT_EQ(completions.size(), 4u);
  for (size_t i = 0; i < completions.size(); ++i) {
    EXPECT_EQ(completions[i].first, i);  // ticket order, dense
    EXPECT_TRUE(completions[i].second.ok());
  }
}

// kBlock producers stall at the high-water mark instead of failing, and
// proceed once the pump frees space.
TEST(IngestTest, BlockPolicyWaitsForSpaceInsteadOfFailing) {
  EngineConfig cfg = BaseConfig(Framework::kStreaming, IndexScheme::kInv);
  cfg.ingest.mode = IngestMode::kAsync;
  cfg.ingest.queue_capacity = 2;
  cfg.ingest.epoch_max_items = 1;
  cfg.ingest.submit = SubmitPolicy::kBlock;
  auto engine = SssjEngine::Make(cfg);
  ASSERT_TRUE(engine.ok());
  // 200 submits through a 2-slot queue: only possible if blocking waits
  // hand off to the pump correctly (a lost wakeup would hang the test).
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        (*engine)->AsyncPush(i, UnitVec({{static_cast<DimId>(i % 7), 1.0}}))
            .ok());
  }
  ASSERT_TRUE((*engine)->Drain().ok());
  const IngestStats stats = (*engine)->ingest_stats();
  EXPECT_EQ(stats.submitted, 200u);
  EXPECT_EQ(stats.items_applied, 200u);
}

// ---------------------------------------------------------------------
// Per-item completion: validation rejects surface with their ticket.

TEST(IngestTest, OnCompleteReportsPerItemRejectStatuses) {
  std::mutex mu;
  std::vector<std::pair<uint64_t, Status>> completions;
  EngineConfig cfg = BaseConfig(Framework::kStreaming, IndexScheme::kL2);
  cfg.ingest.mode = IngestMode::kAsync;
  cfg.ingest.on_complete = [&](uint64_t ticket, const Status& status) {
    std::lock_guard<std::mutex> lk(mu);
    completions.emplace_back(ticket, status);
  };
  auto engine = SssjEngine::Make(cfg);
  ASSERT_TRUE(engine.ok());

  ASSERT_TRUE((*engine)->AsyncPush(1.0, UnitVec({{1, 1.0}})).ok());
  ASSERT_TRUE((*engine)->AsyncPush(1.5, SparseVector()).ok());  // submit ok...
  ASSERT_TRUE((*engine)->AsyncPush(0.5, UnitVec({{2, 1.0}})).ok());  // ts back
  ASSERT_TRUE((*engine)->AsyncPush(2.0, UnitVec({{3, 1.0}})).ok());
  ASSERT_TRUE((*engine)->Drain().ok());

  std::lock_guard<std::mutex> lk(mu);
  ASSERT_EQ(completions.size(), 4u);
  EXPECT_TRUE(completions[0].second.ok());
  // ...but the empty vector is rejected at apply time, via the callback.
  EXPECT_EQ(completions[1].second.code(), StatusCode::kInvalidArgument);
  // The timestamp regression (0.5 < item 0's 1.0 — the rejected item 1
  // never advanced the clock) is detected exactly as the inline path
  // would; the rejected items consume no id.
  EXPECT_EQ(completions[2].second.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(completions[3].second.ok());
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(completions[i].first, i);
  EXPECT_EQ((*engine)->next_id(), 2);  // two accepted items
}

// ---------------------------------------------------------------------
// Config validation + inline-mode behavior.

TEST(IngestTest, MakeValidatesIngestOptions) {
  const auto expect_out_of_range = [](EngineConfig cfg, const char* what) {
    cfg.ingest.mode = IngestMode::kAsync;
    auto made = SssjEngine::Make(cfg);
    ASSERT_FALSE(made.ok()) << what;
    EXPECT_EQ(made.status().code(), StatusCode::kOutOfRange) << what;
    EXPECT_NE(made.status().message().find(what), std::string::npos)
        << made.status().message();
  };
  EngineConfig cfg = BaseConfig(Framework::kStreaming, IndexScheme::kL2);
  {
    EngineConfig bad = cfg;
    bad.ingest.queue_capacity = 0;
    expect_out_of_range(bad, "ingest.queue_capacity");
  }
  {
    EngineConfig bad = cfg;
    bad.ingest.epoch_max_items = 0;
    expect_out_of_range(bad, "ingest.epoch_max_items");
  }
  {
    EngineConfig bad = cfg;
    bad.ingest.submit_timeout_ms = -0.5;
    expect_out_of_range(bad, "ingest.submit_timeout_ms");
  }
}

TEST(IngestTest, InlineEnginesRefuseAsyncPushButDrainIsANoOp) {
  auto engine =
      SssjEngine::Make(BaseConfig(Framework::kStreaming, IndexScheme::kL2));
  ASSERT_TRUE(engine.ok());
  const Status status = (*engine)->AsyncPush(0.0, UnitVec({{1, 1.0}}));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("ingests inline"), std::string::npos);
  EXPECT_TRUE((*engine)->Drain().ok());
  EXPECT_EQ((*engine)->ingest_queue(), nullptr);
  EXPECT_EQ((*engine)->ingest_stats().submitted, 0u);
}

// ---------------------------------------------------------------------
// IngestQueue / IngestPump mechanics, standalone.

TEST(IngestTest, QueueDrainRequiresABoundPump) {
  IngestOptions opts;
  opts.queue_capacity = 4;
  IngestQueue queue(opts);
  ASSERT_TRUE(queue.Submit(0.0, UnitVec({{1, 1.0}})).ok());
  const Status status = queue.Drain();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("pump"), std::string::npos);
}

TEST(IngestTest, PumpServicesMultipleQueuesAndUnregisterQuiesces) {
  IngestOptions opts;
  opts.queue_capacity = 16;
  opts.epoch_max_items = 4;
  IngestQueue q1(opts), q2(opts);
  std::atomic<size_t> applied1{0}, applied2{0};

  IngestPump pump;
  const uint64_t id1 = pump.Register(&q1, [&](Stream&& epoch, uint64_t) {
    applied1 += epoch.size();
  });
  const uint64_t id2 = pump.Register(&q2, [&](Stream&& epoch, uint64_t) {
    applied2 += epoch.size();
  });
  EXPECT_EQ(pump.num_queues(), 2u);

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(q1.Submit(i, UnitVec({{1, 1.0}})).ok());
    ASSERT_TRUE(q2.Submit(i, UnitVec({{2, 1.0}})).ok());
  }
  ASSERT_TRUE(q1.Drain().ok());
  ASSERT_TRUE(q2.Drain().ok());
  EXPECT_EQ(applied1.load(), 10u);
  EXPECT_EQ(applied2.load(), 10u);
  EXPECT_GE(q1.stats().epochs_closed, 3u);  // 10 items, <=4 per epoch

  pump.Unregister(id1);
  EXPECT_EQ(pump.num_queues(), 1u);
  // After Unregister the pump never touches q1 again; q2 keeps working.
  ASSERT_TRUE(q2.Submit(11.0, UnitVec({{2, 1.0}})).ok());
  ASSERT_TRUE(q2.Drain().ok());
  EXPECT_EQ(applied2.load(), 11u);
  pump.Unregister(id2);
  pump.Unregister(id2);  // double-unregister is a harmless no-op
}

// The bound is exactly queue_capacity, with no rounding: while the pump
// is held in its first epoch, a 3-slot queue admits three items and
// refuses the fourth.
TEST(IngestTest, QueueCapacityIsExact) {
  PumpHostage hostage;
  IngestOptions opts;
  opts.queue_capacity = 3;
  opts.submit = SubmitPolicy::kTry;
  IngestQueue queue(opts);
  IngestPump pump;
  const uint64_t id = pump.Register(&queue, [&](Stream&&, uint64_t first) {
    if (first == 0) hostage.Hold();
  });

  ASSERT_TRUE(queue.Submit(0.0, SparseVector()).ok());
  hostage.WaitUntilHeld();  // item 0 is popped; the queue is empty
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(queue.Submit(0.0, SparseVector()).ok()) << i;
  }
  const Status full = queue.Submit(0.0, SparseVector());
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(full.message().find("(3 of 3 items queued)"), std::string::npos)
      << full.message();
  hostage.Release();
  ASSERT_TRUE(queue.Drain().ok());
  pump.Unregister(id);

  const IngestStats stats = queue.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.items_applied, 4u);
  EXPECT_EQ(stats.max_queue_depth, 3u);
  EXPECT_EQ(stats.rejected_backpressure, 1u);
}

// kTimeout waits for space for submit_timeout_ms, then reports
// kResourceExhausted without taking a ticket; once the pump has drained,
// submits are accepted again.
TEST(IngestTest, TimeoutPolicyRejectsAfterTheDeadlineAndRecovers) {
  PumpHostage hostage;
  IngestOptions opts;
  opts.queue_capacity = 1;
  opts.submit = SubmitPolicy::kTimeout;
  opts.submit_timeout_ms = 20.0;
  IngestQueue queue(opts);
  IngestPump pump;
  const uint64_t id = pump.Register(&queue, [&](Stream&&, uint64_t first) {
    if (first == 0) hostage.Hold();
  });

  ASSERT_TRUE(queue.Submit(0.0, SparseVector()).ok());
  hostage.WaitUntilHeld();
  ASSERT_TRUE(queue.Submit(1.0, SparseVector()).ok());  // full (1 of 1)
  const auto start = std::chrono::steady_clock::now();
  const Status late = queue.Submit(2.0, SparseVector());
  const std::chrono::duration<double, std::milli> waited =
      std::chrono::steady_clock::now() - start;
  EXPECT_EQ(late.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(late.message().find("submit policy timeout"), std::string::npos)
      << late.message();
  EXPECT_GE(waited.count(), opts.submit_timeout_ms);

  hostage.Release();
  ASSERT_TRUE(queue.Drain().ok());
  uint64_t ticket = 0;
  ASSERT_TRUE(queue.Submit(3.0, SparseVector(), &ticket).ok());
  EXPECT_EQ(ticket, 2u);  // the rejected submit took no ticket
  ASSERT_TRUE(queue.Drain().ok());
  pump.Unregister(id);

  const IngestStats stats = queue.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.items_applied, 3u);
  EXPECT_EQ(stats.blocked_submits, 1u);
  EXPECT_EQ(stats.rejected_backpressure, 1u);
}

// An epoch holds at most epoch_max_items items: ten items queued behind
// the held pump drain as epochs of 4, 4 and 2, in ticket order.
TEST(IngestTest, EpochsHoldAtMostEpochMaxItems) {
  PumpHostage hostage;
  IngestOptions opts;
  opts.queue_capacity = 16;
  opts.epoch_max_items = 4;
  IngestQueue queue(opts);
  // (first ticket, size) per epoch; written by the pump, read after Drain.
  std::vector<std::pair<uint64_t, size_t>> epochs;
  IngestPump pump;
  const uint64_t id =
      pump.Register(&queue, [&](Stream&& epoch, uint64_t first) {
        epochs.emplace_back(first, epoch.size());
        if (first == 0) hostage.Hold();
      });

  ASSERT_TRUE(queue.Submit(0.0, SparseVector()).ok());
  hostage.WaitUntilHeld();
  for (int i = 1; i <= 10; ++i) {
    EXPECT_TRUE(queue.Submit(i, SparseVector()).ok()) << i;
  }
  hostage.Release();
  ASSERT_TRUE(queue.Drain().ok());
  pump.Unregister(id);

  const std::vector<std::pair<uint64_t, size_t>> want = {
      {0, 1}, {1, 4}, {5, 4}, {9, 2}};
  EXPECT_EQ(epochs, want);
  EXPECT_EQ(queue.stats().epochs_closed, want.size());
}

// Multi-producer stress on the queue and pump alone: four producers race
// Submit through a 64-slot queue while the pump drains it. Tickets must
// be dense and unique, items applied in ticket order and exactly once,
// and each producer's items must keep their submit order (FIFO per
// producer). Run under TSan in CI.
TEST(IngestTest, ConcurrentProducersKeepTicketAndFifoInvariants) {
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 5000;
  constexpr uint64_t kTotal = kProducers * kPerProducer;
  IngestOptions opts;
  opts.queue_capacity = 64;
  opts.epoch_max_items = 16;
  IngestQueue queue(opts);

  // Each item's timestamp encodes (producer, sequence) as
  // producer * kPerProducer + sequence. Written by the pump thread only;
  // read after Drain.
  std::vector<uint64_t> applied;
  applied.reserve(kTotal);
  IngestPump pump;
  const uint64_t id =
      pump.Register(&queue, [&](Stream&& epoch, uint64_t first_ticket) {
        EXPECT_EQ(first_ticket, applied.size());  // epochs in ticket order
        for (const StreamItem& item : epoch) {
          applied.push_back(static_cast<uint64_t>(item.ts));
        }
      });

  std::vector<std::vector<uint64_t>> tickets(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      tickets[p].reserve(kPerProducer);
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        uint64_t ticket = 0;
        const double ts = static_cast<double>(p * kPerProducer + i);
        ASSERT_TRUE(queue.Submit(ts, SparseVector(), &ticket).ok());
        tickets[p].push_back(ticket);
      }
    });
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(queue.Drain().ok());
  pump.Unregister(id);

  const IngestStats stats = queue.stats();
  EXPECT_EQ(stats.submitted, kTotal);
  EXPECT_EQ(stats.items_applied, kTotal);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_LE(stats.max_queue_depth, opts.queue_capacity);
  ASSERT_EQ(applied.size(), kTotal);

  // Every (producer, sequence) exactly once, FIFO per producer.
  std::vector<uint64_t> next_seq(kProducers, 0);
  for (const uint64_t value : applied) {
    const uint64_t p = value / kPerProducer;
    ASSERT_LT(p, static_cast<uint64_t>(kProducers));
    EXPECT_EQ(value % kPerProducer, next_seq[p])
        << "producer " << p << " out of order";
    ++next_seq[p];
  }
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next_seq[p], kPerProducer);

  // The ticket a producer got for its i-th submit is where that item
  // landed in the applied order; with every item applied once, the
  // tickets are a permutation of 0..kTotal-1, i.e. dense and unique.
  for (int p = 0; p < kProducers; ++p) {
    for (uint64_t i = 0; i < kPerProducer; ++i) {
      const uint64_t ticket = tickets[p][i];
      ASSERT_LT(ticket, kTotal);
      EXPECT_EQ(applied[ticket], p * kPerProducer + i);
    }
  }
}

// Two queues share one pump. Queue A's apply refills A from the pump
// thread, kRefills times, and its first call also submits B's only item.
// The pump takes at most one epoch per visit and then moves on, so B is
// applied while A still has refills to go; a pump that drained A's whole
// backlog first would reach B only after A ran dry.
TEST(IngestTest, PumpServicesQueuesRoundRobin) {
  constexpr size_t kRefills = 1000;
  IngestOptions opts;
  opts.queue_capacity = 4;
  opts.epoch_max_items = 1;
  IngestQueue a(opts), b(opts);
  std::atomic<size_t> refills{0};
  std::atomic<size_t> refills_when_b_applied{kRefills + 1};

  IngestPump pump;
  const uint64_t id_a = pump.Register(&a, [&](Stream&&, uint64_t) {
    if (refills == 0) {
      EXPECT_TRUE(b.Submit(0.0, SparseVector()).ok());
    }
    if (refills < kRefills) {
      ++refills;
      EXPECT_TRUE(a.Submit(0.0, SparseVector()).ok());
    }
  });
  const uint64_t id_b = pump.Register(&b, [&](Stream&&, uint64_t) {
    refills_when_b_applied = refills.load();
  });

  ASSERT_TRUE(a.Submit(0.0, SparseVector()).ok());
  // The refills are submitted on the pump thread, so drain until the
  // chain has ended, then once more for its last item.
  while (a.stats().submitted < kRefills + 1) ASSERT_TRUE(a.Drain().ok());
  ASSERT_TRUE(a.Drain().ok());
  ASSERT_TRUE(b.Drain().ok());
  pump.Unregister(id_a);
  pump.Unregister(id_b);

  EXPECT_EQ(refills.load(), kRefills);
  EXPECT_EQ(b.stats().items_applied, 1u);
  EXPECT_LT(refills_when_b_applied.load(), kRefills);
}

// ---------------------------------------------------------------------
// JoinService: shared pump, per-session queues.

TEST(JoinServiceAsyncTest, AsyncSessionMatchesInlineSessionExactly) {
  RandomStreamSpec spec;
  spec.n = 120;
  spec.seed = 31;
  const Stream stream = RandomStream(spec);

  JoinService service;
  EngineConfig inline_cfg = BaseConfig(Framework::kStreaming, IndexScheme::kL2);
  EngineConfig async_cfg = inline_cfg;
  async_cfg.ingest.mode = IngestMode::kAsync;
  async_cfg.ingest.queue_capacity = 16;
  async_cfg.ingest.epoch_max_items = 4;
  CollectorSink inline_sink, async_sink;
  auto inline_s =
      service.CreateSession({"inline", inline_cfg, &inline_sink});
  auto async_s = service.CreateSession({"async", async_cfg, &async_sink});
  ASSERT_TRUE(inline_s.ok());
  ASSERT_TRUE(async_s.ok());

  for (const StreamItem& item : stream) {
    ASSERT_TRUE(service.Push(*inline_s, item.ts, item.vec).ok());
    ASSERT_TRUE(service.AsyncPush(*async_s, item.ts, item.vec).ok());
  }
  ASSERT_TRUE(service.Drain(*async_s).ok());
  ExpectIdenticalPairs(async_sink.pairs(), inline_sink.pairs(),
                       "service async vs inline");

  auto ingest = service.SessionIngestStats(*async_s);
  ASSERT_TRUE(ingest.ok());
  EXPECT_EQ(ingest->submitted, stream.size());
  EXPECT_EQ(ingest->items_applied, stream.size());

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_GE(stats.epochs_closed, 1u);
  EXPECT_EQ(stats.backpressure_rejections, 0u);

  // AsyncPush on an inline session forwards the engine's refusal.
  EXPECT_EQ(service.AsyncPush(*inline_s, 0.0, UnitVec({{1, 1.0}})).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(service.Drain(*inline_s).ok());  // no-op, like the engine
  EXPECT_EQ(service.AsyncPush({}, 0.0, UnitVec({{1, 1.0}})).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.Drain({}).code(), StatusCode::kNotFound);
}

// One producer thread per session, all sessions behind one shared pump:
// each session's output must match a standalone inline engine fed the
// same per-session stream. Run under TSan in CI.
TEST(JoinServiceAsyncTest, ConcurrentSessionsShareOnePumpDeterministically) {
  constexpr int kSessions = 4;
  constexpr size_t kItems = 80;
  JoinService service;
  EngineConfig cfg = BaseConfig(Framework::kStreaming, IndexScheme::kL2);
  cfg.ingest.mode = IngestMode::kAsync;
  cfg.ingest.queue_capacity = 8;  // small: producers hit backpressure
  cfg.ingest.epoch_max_items = 4;

  std::vector<Stream> streams;
  std::vector<std::unique_ptr<CollectorSink>> sinks;
  std::vector<JoinService::SessionHandle> handles;
  for (int s = 0; s < kSessions; ++s) {
    RandomStreamSpec spec;
    spec.n = kItems;
    spec.seed = 100 + s;
    streams.push_back(RandomStream(spec));
    sinks.push_back(std::make_unique<CollectorSink>());
    auto handle = service.CreateSession(
        {"session-" + std::to_string(s), cfg, sinks.back().get()});
    ASSERT_TRUE(handle.ok());
    handles.push_back(*handle);
  }

  std::vector<std::thread> producers;
  for (int s = 0; s < kSessions; ++s) {
    producers.emplace_back([&, s] {
      for (const StreamItem& item : streams[s]) {
        ASSERT_TRUE(service.AsyncPush(handles[s], item.ts, item.vec).ok());
      }
    });
  }
  for (auto& t : producers) t.join();
  for (int s = 0; s < kSessions; ++s) {
    ASSERT_TRUE(service.Drain(handles[s]).ok());
    ExpectIdenticalPairs(sinks[s]->pairs(), RunInline(cfg, streams[s]),
                         "session " + std::to_string(s));
  }
}

// CloseSession on an async session applies everything still queued
// before flushing — submitted items are never silently dropped by an
// orderly close. The pump is held hostage inside the first item's
// completion callback, so the other items are still queued when the
// close begins.
TEST(JoinServiceAsyncTest, CloseSessionDrainsQueuedItemsFirst) {
  PumpHostage hostage;
  JoinService service;
  EngineConfig cfg = BaseConfig(Framework::kStreaming, IndexScheme::kL2);
  cfg.theta = 0.9;
  cfg.ingest.mode = IngestMode::kAsync;
  cfg.ingest.queue_capacity = 64;
  cfg.ingest.on_complete = [&](uint64_t ticket, const Status&) {
    if (ticket == 0) hostage.Hold();
  };
  CollectorSink sink;
  auto handle = service.CreateSession({"closing", cfg, &sink});
  ASSERT_TRUE(handle.ok());

  constexpr size_t kItems = 10;
  const SparseVector vec = UnitVec({{1, 1.0}, {2, 0.5}});
  // All at one timestamp so time decay prunes nothing.
  ASSERT_TRUE(service.AsyncPush(*handle, 0.0, vec).ok());
  // Item 0 was alone in the queue: the pump popped it and is held in its
  // callback, so everything submitted below stays queued.
  hostage.WaitUntilHeld();
  for (size_t i = 1; i < kItems; ++i) {
    EXPECT_TRUE(service.AsyncPush(*handle, 0.0, vec).ok());
  }
  auto queued = service.SessionIngestStats(*handle);
  EXPECT_TRUE(queued.ok());
  if (queued.ok()) {
    EXPECT_EQ(queued->queue_depth, kItems - 1);
  }

  Status closed;
  std::thread closer([&] { closed = service.CloseSession(*handle); });
  // The close has begun once the registry no longer finds the session.
  while (service.SessionIngestStats(*handle).ok()) std::this_thread::yield();
  hostage.Release();
  closer.join();
  ASSERT_TRUE(closed.ok()) << closed.ToString();
  // kItems identical co-arriving vectors: every pair survives, so a full
  // drain emits exactly C(kItems, 2) pairs (STR emits at apply time).
  EXPECT_EQ(sink.pairs().size(), kItems * (kItems - 1) / 2);
  EXPECT_EQ(service.AsyncPush(*handle, 99.0, vec).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace sssj
