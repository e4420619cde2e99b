// Cluster layer acceptance pins:
//   1. N heterogeneous sessions through the forked fleet produce output
//      bitwise identical to the in-process JoinService backend.
//   2. Live migration between workers is bitwise invisible.
//   3. kill -9 of a worker mid-stream reconverges with no lost and no
//      duplicated pairs past the acked watermark.
// Plus the restore-path cross-version sniffing pins: a checkpoint in the
// retired SSSJENG2 format is refused with a named reason and the worker
// stays pristine, and a truncation sweep over the restore blob never
// leaves partial state behind.
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/channel.h"
#include "cluster/serve.h"
#include "cluster/supervisor.h"
#include "cluster/wire.h"
#include "cluster/worker.h"
#include "core/engine.h"
#include "core/similarity.h"
#include "index/stream_index.h"
#include "stream/minibatch.h"
#include "tests/test_util.h"

namespace sssj {
namespace cluster {
namespace {

using sssj::testing::Item;
using sssj::testing::PairSet;
using sssj::testing::RandomStream;
using sssj::testing::RandomStreamSpec;
using sssj::testing::UnitVec;

// Bitwise, not approximate: the cluster ships doubles as bit images, so
// any drift is a real defect, not floating-point noise.
void ExpectBitwiseEqual(const std::vector<ResultPair>& got,
                        const std::vector<ResultPair>& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label << ": pair count differs";
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].a, want[i].a) << label << " pair " << i;
    EXPECT_EQ(got[i].b, want[i].b) << label << " pair " << i;
    EXPECT_EQ(std::memcmp(&got[i].ta, &want[i].ta, sizeof(double)), 0)
        << label << " pair " << i << " ta bits differ";
    EXPECT_EQ(std::memcmp(&got[i].tb, &want[i].tb, sizeof(double)), 0)
        << label << " pair " << i << " tb bits differ";
    EXPECT_EQ(std::memcmp(&got[i].dot, &want[i].dot, sizeof(double)), 0)
        << label << " pair " << i << " dot bits differ";
    EXPECT_EQ(std::memcmp(&got[i].sim, &want[i].sim, sizeof(double)), 0)
        << label << " pair " << i << " sim bits differ";
  }
}

struct SessionSpec {
  std::string name;
  WireConfig config;
  Stream stream;
};

std::vector<SessionSpec> HeterogeneousSessions() {
  std::vector<SessionSpec> specs;
  auto add = [&specs](const std::string& name, Framework framework,
                      IndexScheme index, double theta, double lambda,
                      uint64_t seed) {
    SessionSpec spec;
    spec.name = name;
    spec.config.framework = framework;
    spec.config.index = index;
    spec.config.theta = theta;
    spec.config.lambda = lambda;
    RandomStreamSpec stream_spec;
    stream_spec.n = 80;
    stream_spec.dims = 30;
    stream_spec.seed = seed;
    spec.stream = RandomStream(stream_spec);
    specs.push_back(std::move(spec));
  };
  add("str-l2", Framework::kStreaming, IndexScheme::kL2, 0.6, 0.05, 11);
  add("str-inv", Framework::kStreaming, IndexScheme::kInv, 0.5, 0.04, 22);
  add("str-l2ap", Framework::kStreaming, IndexScheme::kL2ap, 0.5, 0.02, 33);
  add("mb-l2", Framework::kMiniBatch, IndexScheme::kL2, 0.55, 0.04, 44);
  add("mb-l2ap", Framework::kMiniBatch, IndexScheme::kL2ap, 0.65, 0.08, 55);
  return specs;
}

// Drives every session's stream through the client (round-robin across
// sessions, so the backend juggles them interleaved), then flushes and
// closes. Returns per-session pairs in emission order.
std::map<std::string, std::vector<ResultPair>> RunSessions(
    ClusterClient* client, const std::vector<SessionSpec>& specs) {
  std::map<std::string, std::vector<ResultPair>> out;
  for (const SessionSpec& spec : specs) {
    EXPECT_TRUE(client->CreateSession(spec.name, spec.config).ok());
    out[spec.name];
  }
  size_t longest = 0;
  for (const SessionSpec& spec : specs) {
    longest = std::max(longest, spec.stream.size());
  }
  for (size_t i = 0; i < longest; ++i) {
    for (const SessionSpec& spec : specs) {
      if (i >= spec.stream.size()) continue;
      const StreamItem& item = spec.stream[i];
      Status status =
          client->Push(spec.name, item.ts, item.vec, &out[spec.name]);
      EXPECT_TRUE(status.ok()) << spec.name << ": " << status.ToString();
    }
  }
  for (const SessionSpec& spec : specs) {
    EXPECT_TRUE(client->Flush(spec.name, &out[spec.name]).ok());
    EXPECT_TRUE(client->CloseSession(spec.name, &out[spec.name]).ok());
  }
  return out;
}

// ---- pin 1: in-process vs cluster, N heterogeneous sessions ----

TEST(ClusterEquivalenceTest, HeterogeneousSessionsBitwiseMatchInProcess) {
  const std::vector<SessionSpec> specs = HeterogeneousSessions();

  ClusterClient local{JoinServiceOptions{}};
  const auto in_process = RunSessions(&local, specs);

  SupervisorOptions options;
  options.num_workers = 3;
  Supervisor supervisor(options);
  ASSERT_TRUE(supervisor.Start().ok());
  ClusterClient remote(&supervisor);
  const auto clustered = RunSessions(&remote, specs);
  supervisor.Shutdown();

  ASSERT_EQ(in_process.size(), clustered.size());
  for (const auto& [name, pairs] : in_process) {
    ASSERT_TRUE(clustered.count(name)) << name;
    EXPECT_FALSE(pairs.empty())
        << name << ": stream produced no pairs — the pin is vacuous";
    ExpectBitwiseEqual(clustered.at(name), pairs, name);
  }
}

TEST(ClusterEquivalenceTest, PushBatchMatchesInProcess) {
  SessionSpec spec;
  spec.name = "batch";
  spec.config.theta = 0.5;
  spec.config.lambda = 0.05;
  RandomStreamSpec stream_spec;
  stream_spec.n = 60;
  stream_spec.dims = 25;
  stream_spec.seed = 7;
  spec.stream = RandomStream(stream_spec);

  auto run = [&spec](ClusterClient* client) {
    std::vector<ResultPair> pairs;
    EXPECT_TRUE(client->CreateSession(spec.name, spec.config).ok());
    // Two batches, then a straggler push.
    const size_t half = spec.stream.size() / 2;
    Stream first(spec.stream.begin(), spec.stream.begin() + half);
    Stream second(spec.stream.begin() + half, spec.stream.end() - 1);
    auto r1 = client->PushBatch(spec.name, first, &pairs);
    EXPECT_TRUE(r1.ok());
    EXPECT_EQ(r1->accepted, first.size());
    auto r2 = client->PushBatch(spec.name, second, &pairs);
    EXPECT_TRUE(r2.ok());
    const StreamItem& last = spec.stream.back();
    EXPECT_TRUE(client->Push(spec.name, last.ts, last.vec, &pairs).ok());
    EXPECT_TRUE(client->CloseSession(spec.name, &pairs).ok());
    return pairs;
  };

  ClusterClient local{JoinServiceOptions{}};
  const std::vector<ResultPair> in_process = run(&local);

  SupervisorOptions options;
  options.num_workers = 2;
  Supervisor supervisor(options);
  ASSERT_TRUE(supervisor.Start().ok());
  ClusterClient remote(&supervisor);
  const std::vector<ResultPair> clustered = run(&remote);

  EXPECT_FALSE(in_process.empty());
  ExpectBitwiseEqual(clustered, in_process, "batch");
}

// A worker runs the engine its wire config names and keeps nothing more:
// a session's footprint equals that of an in-process engine built from
// the same five fields. For STR the index is the one copy of the live
// items.
TEST(ClusterEquivalenceTest, SessionFootprintMatchesInProcessEngine) {
  SupervisorOptions options;
  options.num_workers = 2;
  Supervisor supervisor(options);
  ASSERT_TRUE(supervisor.Start().ok());
  for (const SessionSpec& spec : HeterogeneousSessions()) {
    SCOPED_TRACE(spec.name);
    EngineConfig reference;
    reference.framework = spec.config.framework;
    reference.index = spec.config.index;
    reference.theta = spec.config.theta;
    reference.lambda = spec.config.lambda;
    auto engine = SssjEngine::Make(reference);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(supervisor.CreateSession(spec.name, spec.config).ok());
    for (const StreamItem& item : spec.stream) {
      ASSERT_TRUE(
          supervisor.Push(spec.name, item.ts, item.vec, nullptr).ok());
      ASSERT_TRUE((*engine)->Push(item.ts, item.vec).ok());
    }
    const auto stats = supervisor.SessionStats(spec.name);
    ASSERT_TRUE(stats.ok());
    EXPECT_GT(stats->memory_bytes, 0u);
    EXPECT_EQ(stats->memory_bytes, (*engine)->MemoryBytes());
  }
}

// ---- the router over a real socket ----

// What one session returned to its caller in the router test.
struct RouterOutcome {
  std::vector<ResultPair> pairs;
  BatchPushResult batch;
  SessionWireStats stats;
};

// One STR-L2 and one MB-L2 session.
std::vector<SessionSpec> RouterSessions() {
  std::vector<SessionSpec> specs;
  for (SessionSpec& spec : HeterogeneousSessions()) {
    if (spec.name == "str-l2" || spec.name == "mb-l2") {
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

// The second half of the stream, with a copy of its first item whose
// timestamp regresses inserted after it: one reject crosses the wire.
Stream RouterBatch(const Stream& stream) {
  Stream batch(stream.begin() + stream.size() / 2, stream.end());
  StreamItem regressed = batch.front();
  regressed.ts -= 1.0;
  batch.insert(batch.begin() + 1, regressed);
  return batch;
}

// The router test's calls through an in-process ClusterClient: the first
// half of every stream pushed one item at a time, round-robin, then per
// session the batch, Flush, Stats and CloseSession.
std::map<std::string, RouterOutcome> RunRouterCallsInProcess(
    const std::vector<SessionSpec>& specs) {
  ClusterClient client{JoinServiceOptions{}};
  std::map<std::string, RouterOutcome> out;
  for (const SessionSpec& spec : specs) {
    EXPECT_TRUE(client.CreateSession(spec.name, spec.config).ok());
  }
  for (size_t i = 0; i < specs.front().stream.size() / 2; ++i) {
    for (const SessionSpec& spec : specs) {
      const StreamItem& item = spec.stream[i];
      EXPECT_TRUE(
          client.Push(spec.name, item.ts, item.vec, &out[spec.name].pairs)
              .ok());
    }
  }
  for (const SessionSpec& spec : specs) {
    RouterOutcome& o = out[spec.name];
    auto batch = client.PushBatch(spec.name, RouterBatch(spec.stream), &o.pairs);
    EXPECT_TRUE(batch.ok());
    if (batch.ok()) o.batch = *batch;
    EXPECT_TRUE(client.Flush(spec.name, &o.pairs).ok());
    auto stats = client.SessionStats(spec.name);
    EXPECT_TRUE(stats.ok());
    if (stats.ok()) o.stats = *stats;
    EXPECT_TRUE(client.CloseSession(spec.name, &o.pairs).ok());
  }
  return out;
}

// One request frame and its decoded reply; a transport failure is a test
// failure and the reply's status.
Reply Ask(FrameChannel* channel, FrameType type, const std::string& payload) {
  Reply reply;
  const Status status = channel->Call(type, payload, &reply);
  EXPECT_TRUE(status.ok()) << ToString(type) << ": " << status.ToString();
  if (!status.ok()) reply.status = status;
  return reply;
}

// The same calls as frames over a connection to the router at `path`,
// between a Hello exchange and a kShutdown. *shut_down is set once the
// kShutdown reply arrives.
void RunRouterCallsOverSocket(const std::string& path,
                              const std::vector<SessionSpec>& specs,
                              std::map<std::string, RouterOutcome>* out,
                              bool* shut_down) {
  int fd = -1;
  ASSERT_TRUE(ConnectUnix(path, &fd).ok());
  FrameChannel channel(fd);
  const Reply hello =
      Ask(&channel, FrameType::kHello, EncodeHello(HelloPayload{}));
  ASSERT_TRUE(hello.status.ok()) << hello.status.ToString();
  HelloPayload peer;
  ASSERT_TRUE(DecodeHello(hello.blob, &peer).ok());
  EXPECT_EQ(peer.version, kWireVersion);
  HelloPayload foreign;
  foreign.magic = 0xdeadbeef;
  const Reply refused =
      Ask(&channel, FrameType::kHello, EncodeHello(foreign));
  EXPECT_EQ(refused.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.status.message().find("wire magic mismatch"),
            std::string::npos)
      << refused.status.ToString();

  for (const SessionSpec& spec : specs) {
    const Reply created =
        Ask(&channel, FrameType::kCreateSession,
            EncodeCreateSession(CreateSessionRequest{spec.name, spec.config}));
    ASSERT_TRUE(created.status.ok()) << created.status.ToString();
  }
  // The supervisor's own machinery is not a client request.
  const Reply migrate_out = Ask(&channel, FrameType::kMigrateOut,
                                EncodeName(NameRequest{specs.front().name}));
  EXPECT_EQ(migrate_out.status.code(), StatusCode::kUnimplemented);
  for (size_t i = 0; i < specs.front().stream.size() / 2; ++i) {
    for (const SessionSpec& spec : specs) {
      const StreamItem& item = spec.stream[i];
      const Reply pushed = Ask(&channel, FrameType::kPush,
                               EncodePush(spec.name, item.ts, item.vec));
      ASSERT_TRUE(pushed.status.ok()) << pushed.status.ToString();
      EXPECT_EQ(pushed.accepted, 1u);
      std::vector<ResultPair>& pairs = (*out)[spec.name].pairs;
      pairs.insert(pairs.end(), pushed.pairs.begin(), pushed.pairs.end());
    }
  }
  for (const SessionSpec& spec : specs) {
    RouterOutcome& o = (*out)[spec.name];
    const NameRequest name{spec.name};
    Reply reply = Ask(&channel, FrameType::kPushBatch,
                      EncodePushBatch(spec.name, RouterBatch(spec.stream)));
    ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
    o.batch.accepted = reply.accepted;
    o.batch.rejects = std::move(reply.rejects);
    o.pairs.insert(o.pairs.end(), reply.pairs.begin(), reply.pairs.end());
    reply = Ask(&channel, FrameType::kFlush, EncodeName(name));
    ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
    o.pairs.insert(o.pairs.end(), reply.pairs.begin(), reply.pairs.end());
    reply = Ask(&channel, FrameType::kStats, EncodeName(name));
    ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
    ASSERT_TRUE(DecodeSessionStats(reply.blob, &o.stats).ok());
    reply = Ask(&channel, FrameType::kCloseSession, EncodeName(name));
    ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
    o.pairs.insert(o.pairs.end(), reply.pairs.begin(), reply.pairs.end());
  }
  const Reply bye = Ask(&channel, FrameType::kShutdown, std::string());
  EXPECT_TRUE(bye.status.ok()) << bye.status.ToString();
  *shut_down = true;
}

// sssj_clusterd's request path: a supervisor behind the shared serve
// loop on a Unix socket answers every client call as the in-process
// client does, bit for bit, and a kShutdown ends the loop with its socket
// file removed.
TEST(ClusterRouterTest, SocketServesTheSessionApiLikeTheInProcessClient) {
  // Fork the fleet before this test starts any thread.
  SupervisorOptions options;
  options.num_workers = 2;
  Supervisor supervisor(options);
  ASSERT_TRUE(supervisor.Start().ok());

  const std::vector<SessionSpec> specs = RouterSessions();
  ASSERT_EQ(specs.size(), 2u);
  const auto in_process = RunRouterCallsInProcess(specs);

  std::string dir = ::testing::TempDir() + "/sssj_router_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string path = dir + "/router.sock";
  int listen_fd = -1;
  ASSERT_TRUE(ListenUnix(path, &listen_fd).ok());
  Status served = Status::Internal("the serve loop did not return");
  std::thread router(
      [&] { served = ServeUnix(&supervisor, listen_fd, path); });

  std::map<std::string, RouterOutcome> over_socket;
  bool shut_down = false;
  RunRouterCallsOverSocket(path, specs, &over_socket, &shut_down);
  if (!shut_down) {
    // The calls stopped early: end the loop so the router thread joins.
    int fd = -1;
    if (ConnectUnix(path, &fd).ok()) {
      FrameChannel channel(fd);
      Reply bye;
      (void)channel.Call(FrameType::kShutdown, std::string(), &bye);
    }
  }
  router.join();
  EXPECT_TRUE(served.ok()) << served.ToString();
  EXPECT_NE(::access(path.c_str(), F_OK), 0) << "the socket file is left";
  EXPECT_EQ(::rmdir(dir.c_str()), 0);
  supervisor.Shutdown();

  for (const SessionSpec& spec : specs) {
    SCOPED_TRACE(spec.name);
    const RouterOutcome& want = in_process.at(spec.name);
    const RouterOutcome& got = over_socket[spec.name];
    EXPECT_FALSE(want.pairs.empty()) << "the stream produced no pairs";
    ExpectBitwiseEqual(got.pairs, want.pairs, spec.name);
    EXPECT_EQ(got.batch.accepted, want.batch.accepted);
    ASSERT_EQ(want.batch.rejects.size(), 1u);
    ASSERT_EQ(got.batch.rejects.size(), 1u);
    EXPECT_EQ(got.batch.rejects[0].index, want.batch.rejects[0].index);
    EXPECT_EQ(got.batch.rejects[0].status.code(),
              want.batch.rejects[0].status.code());
    EXPECT_EQ(got.batch.rejects[0].status.message(),
              want.batch.rejects[0].status.message());
    EXPECT_EQ(got.stats.vectors_processed, want.stats.vectors_processed);
    EXPECT_EQ(got.stats.pairs_emitted, want.stats.pairs_emitted);
    EXPECT_EQ(got.stats.memory_bytes, want.stats.memory_bytes);
  }
}

// ---- pin 2: live migration is bitwise invisible ----

TEST(ClusterMigrationTest, LiveMigrationIsBitwiseInvisible) {
  // MB framework on purpose: at the migration instant the session has
  // pairs pending in open windows, which must travel inside the
  // checkpoint and emit exactly once at the destination. STR-L2AP keeps
  // the pair set, not the bits: the restore at the destination rebuilds
  // its max vector from the live items only.
  const struct {
    const char* label;
    Framework framework;
    IndexScheme index;
    bool bitwise;
  } kCases[] = {
      {"STR-L2", Framework::kStreaming, IndexScheme::kL2, true},
      {"MB-L2", Framework::kMiniBatch, IndexScheme::kL2, true},
      {"STR-L2AP", Framework::kStreaming, IndexScheme::kL2ap, false},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.label);
    SessionSpec spec;
    spec.name = "mover";
    spec.config.framework = c.framework;
    spec.config.index = c.index;
    spec.config.theta = 0.55;
    spec.config.lambda = 0.05;
    RandomStreamSpec stream_spec;
    stream_spec.n = 120;
    stream_spec.seed = 99;
    spec.stream = RandomStream(stream_spec);

    auto run = [&spec](bool migrate) {
      SupervisorOptions options;
      options.num_workers = 2;
      Supervisor supervisor(options);
      EXPECT_TRUE(supervisor.Start().ok());
      std::vector<ResultPair> pairs;
      EXPECT_TRUE(supervisor.CreateSession(spec.name, spec.config).ok());
      const int home = *supervisor.OwnerOf(spec.name);
      for (size_t i = 0; i < spec.stream.size(); ++i) {
        if (migrate && i == spec.stream.size() / 3) {
          Status status = supervisor.Migrate(spec.name, 1 - home);
          EXPECT_TRUE(status.ok()) << status.ToString();
          EXPECT_EQ(*supervisor.OwnerOf(spec.name), 1 - home);
        }
        if (migrate && i == 2 * spec.stream.size() / 3) {
          // And back — two hops catch asymmetries one hop hides.
          EXPECT_TRUE(supervisor.Migrate(spec.name, home).ok());
        }
        const StreamItem& item = spec.stream[i];
        Status status = supervisor.Push(spec.name, item.ts, item.vec, &pairs);
        EXPECT_TRUE(status.ok()) << status.ToString();
      }
      EXPECT_TRUE(supervisor.Flush(spec.name, &pairs).ok());
      EXPECT_TRUE(supervisor.CloseSession(spec.name, &pairs).ok());
      supervisor.Shutdown();
      return pairs;
    };

    const std::vector<ResultPair> stayed = run(false);
    const std::vector<ResultPair> moved = run(true);
    EXPECT_FALSE(stayed.empty()) << "no pairs — the migration pin is vacuous";
    if (c.bitwise) {
      ExpectBitwiseEqual(moved, stayed, "migration");
    } else {
      EXPECT_EQ(PairSet(moved), PairSet(stayed));
    }
  }
}

TEST(ClusterMigrationTest, MigrateToSameSlotIsANoOp) {
  SupervisorOptions options;
  options.num_workers = 2;
  Supervisor supervisor(options);
  ASSERT_TRUE(supervisor.Start().ok());
  WireConfig config;
  ASSERT_TRUE(supervisor.CreateSession("s", config).ok());
  const int home = *supervisor.OwnerOf("s");
  EXPECT_TRUE(supervisor.Migrate("s", home).ok());
  EXPECT_EQ(*supervisor.OwnerOf("s"), home);
  EXPECT_FALSE(supervisor.Migrate("s", 99).ok()) << "slot out of range";
  EXPECT_FALSE(supervisor.Migrate("nope", 0).ok()) << "unknown session";
}

// ---- pin 3: kill -9 mid-stream, exactly-once reconvergence ----

TEST(ClusterFailoverTest, KillNineMidStreamLosesAndDuplicatesNothing) {
  const std::vector<SessionSpec> specs = HeterogeneousSessions();

  // Ground truth: the same streams through an undisturbed fleet.
  std::map<std::string, std::vector<ResultPair>> want;
  {
    SupervisorOptions options;
    options.num_workers = 2;
    Supervisor supervisor(options);
    ASSERT_TRUE(supervisor.Start().ok());
    ClusterClient client(&supervisor);
    want = RunSessions(&client, specs);
    supervisor.Shutdown();
  }

  // Disturbed run: SIGKILL one worker a third of the way in and the
  // other two thirds in. The journal/checkpoint machinery must replay
  // un-acked work while suppressing already-delivered pairs.
  SupervisorOptions options;
  options.num_workers = 2;
  Supervisor supervisor(options);
  ASSERT_TRUE(supervisor.Start().ok());
  std::map<std::string, std::vector<ResultPair>> got;
  for (const SessionSpec& spec : specs) {
    ASSERT_TRUE(supervisor.CreateSession(spec.name, spec.config).ok());
    got[spec.name];
  }
  size_t longest = 0;
  for (const SessionSpec& spec : specs) {
    longest = std::max(longest, spec.stream.size());
  }
  // Kill slots that actually own sessions — an empty worker's death
  // would go undetected (nothing ever calls it) and prove nothing.
  const int victim_a = *supervisor.OwnerOf(specs.front().name);
  const int victim_b = *supervisor.OwnerOf(specs.back().name);
  for (size_t i = 0; i < longest; ++i) {
    if (i == longest / 3) {
      ::kill(*supervisor.worker_pid(victim_a), SIGKILL);
    }
    if (i == 2 * longest / 3) {
      ::kill(*supervisor.worker_pid(victim_b), SIGKILL);
    }
    for (const SessionSpec& spec : specs) {
      if (i >= spec.stream.size()) continue;
      const StreamItem& item = spec.stream[i];
      Status status = supervisor.Push(spec.name, item.ts, item.vec,
                                      &got[spec.name]);
      ASSERT_TRUE(status.ok()) << spec.name << ": " << status.ToString();
    }
  }
  for (const SessionSpec& spec : specs) {
    // Every session recovers from its trimmed journal through a zero-item
    // seed.
    const auto info = supervisor.journal_info(spec.name);
    ASSERT_TRUE(info.ok());
    EXPECT_LT(info->ops, spec.stream.size()) << spec.name << ": no trim";
    ASSERT_TRUE(supervisor.Flush(spec.name, &got[spec.name]).ok());
    ASSERT_TRUE(supervisor.CloseSession(spec.name, &got[spec.name]).ok());
  }
  EXPECT_GE(supervisor.restarts(), 2u);
  supervisor.Shutdown();

  for (const auto& [name, pairs] : want) {
    EXPECT_FALSE(pairs.empty())
        << name << ": stream produced no pairs — the pin is vacuous";
    ExpectBitwiseEqual(got.at(name), pairs, name);
  }
}

TEST(ClusterFailoverTest, KillDuringIdlePeriodStillRecovers) {
  SupervisorOptions options;
  options.num_workers = 1;
  Supervisor supervisor(options);
  ASSERT_TRUE(supervisor.Start().ok());
  WireConfig config;
  config.theta = 0.5;
  config.lambda = 0.05;
  ASSERT_TRUE(supervisor.CreateSession("solo", config).ok());
  std::vector<ResultPair> pairs;
  ASSERT_TRUE(
      supervisor.Push("solo", 0.0, UnitVec({{1, 1.0}, {2, 1.0}}), &pairs)
          .ok());
  ASSERT_TRUE(
      supervisor.Push("solo", 0.5, UnitVec({{1, 1.0}, {2, 1.1}}), &pairs)
          .ok());
  const size_t pairs_before = pairs.size();
  EXPECT_GT(pairs_before, 0u);

  ::kill(*supervisor.worker_pid(0), SIGKILL);
  // The next push triggers recovery: restore + journal replay (whose
  // pairs are suppressed), then the push itself.
  ASSERT_TRUE(
      supervisor.Push("solo", 1.0, UnitVec({{1, 1.0}, {2, 0.9}}), &pairs)
          .ok());
  EXPECT_EQ(supervisor.restarts(), 1u);
  // The two pre-kill pairs must not be re-delivered: every new pair
  // involves the new item #2.
  for (size_t i = pairs_before; i < pairs.size(); ++i) {
    EXPECT_TRUE(pairs[i].a == 2 || pairs[i].b == 2)
        << "replayed pair re-delivered: " << pairs[i].ToString();
  }
  ASSERT_TRUE(supervisor.CloseSession("solo", &pairs).ok());
  supervisor.Shutdown();
}

// ---- seeded random kills: the horizon-trimmed journal under fire ----

// One scripted call against a fleet; both runs of a seed execute the
// same script, so their per-session outputs can be compared.
struct FleetOp {
  enum Kind { kPush, kBatch, kFlush, kMigrate } kind = kPush;
  size_t session = 0;
  StreamItem item;  // kPush
  Stream batch;     // kBatch
};

std::vector<SessionSpec> KillSessions(uint64_t seed) {
  std::vector<SessionSpec> specs;
  auto add = [&specs, seed](const std::string& name, Framework framework,
                            IndexScheme index, double theta, double lambda) {
    SessionSpec spec;
    spec.name = name;
    spec.config.framework = framework;
    spec.config.index = index;
    spec.config.theta = theta;
    spec.config.lambda = lambda;
    RandomStreamSpec stream_spec;
    stream_spec.n = 90;
    stream_spec.dims = 30;
    stream_spec.seed = seed * 16 + specs.size();
    spec.stream = RandomStream(stream_spec);
    specs.push_back(std::move(spec));
  };
  // τ between 5 and 12 time units; every stream spans ~90. At λ = 0 τ is
  // infinite: the journal keeps every op since the last restore point.
  add("str-inv", Framework::kStreaming, IndexScheme::kInv, 0.5, 0.1);
  add("str-l2", Framework::kStreaming, IndexScheme::kL2, 0.6, 0.08);
  add("str-l2ap", Framework::kStreaming, IndexScheme::kL2ap, 0.5, 0.06);
  add("mb-l2", Framework::kMiniBatch, IndexScheme::kL2, 0.55, 0.1);
  add("str-l2-forever", Framework::kStreaming, IndexScheme::kL2, 0.6, 0.0);
  return specs;
}

// Per session, in stream order: pushes; one batch with an empty vector
// and a decreasing ts among three good items; an all-rejected batch and
// a Flush mid-stream; a Migrate with the rest of the stream (far past τ)
// after it.
std::vector<FleetOp> KillScript(const std::vector<SessionSpec>& specs,
                                Rng* rng) {
  struct Cursor {
    size_t next = 0;
    size_t batch_at = 0;
    size_t flush_at = 0;
    size_t migrate_at = 0;
  };
  std::vector<Cursor> cursors;
  for (const SessionSpec& spec : specs) {
    const size_t n = spec.stream.size();
    Cursor c;
    c.batch_at = 5 + rng->NextBelow(n / 4);
    c.flush_at = n / 4 + rng->NextBelow(n / 4);
    c.migrate_at = n / 3 + rng->NextBelow(n / 6);
    cursors.push_back(c);
  }
  std::vector<FleetOp> ops;
  for (bool more = true; more;) {
    more = false;
    for (size_t s = 0; s < specs.size(); ++s) {
      const Stream& stream = specs[s].stream;
      Cursor& c = cursors[s];
      if (c.next >= stream.size()) continue;
      more = true;
      FleetOp op;
      op.session = s;
      if (c.next >= c.flush_at) {
        FleetOp rejected = op;
        rejected.kind = FleetOp::kBatch;
        rejected.batch.push_back(Item(0, stream[c.next].ts, SparseVector()));
        ops.push_back(std::move(rejected));
        op.kind = FleetOp::kFlush;
        c.flush_at = SIZE_MAX;
      } else if (c.next >= c.migrate_at) {
        op.kind = FleetOp::kMigrate;
        c.migrate_at = SIZE_MAX;
      } else if (c.next >= c.batch_at && c.next + 3 <= stream.size()) {
        const StreamItem& a = stream[c.next];
        const StreamItem& b = stream[c.next + 1];
        op.kind = FleetOp::kBatch;
        op.batch = {a, Item(0, a.ts, SparseVector()), b,
                    Item(0, a.ts - 1.0, b.vec), stream[c.next + 2]};
        c.next += 3;
        c.batch_at = SIZE_MAX;
      } else {
        op.kind = FleetOp::kPush;
        op.item = stream[c.next++];
      }
      ops.push_back(std::move(op));
    }
  }
  return ops;
}

// Runs the script; SIGKILLs the session's owner before each op index in
// `kill_before`, and once right after the first push at or past
// `kill_after_trim_from` that shrank its session's journal (a trim;
// SIZE_MAX: never).
std::map<std::string, std::vector<ResultPair>> RunKillScript(
    Supervisor* supervisor, const std::vector<SessionSpec>& specs,
    const std::vector<FleetOp>& script, const std::set<size_t>& kill_before,
    size_t kill_after_trim_from) {
  std::map<std::string, std::vector<ResultPair>> out;
  for (const SessionSpec& spec : specs) {
    EXPECT_TRUE(supervisor->CreateSession(spec.name, spec.config).ok());
    out[spec.name];
  }
  auto kill_owner = [supervisor](const std::string& name) {
    ::kill(*supervisor->worker_pid(*supervisor->OwnerOf(name)), SIGKILL);
  };
  for (size_t k = 0; k < script.size(); ++k) {
    const FleetOp& op = script[k];
    const SessionSpec& spec = specs[op.session];
    std::vector<ResultPair>* pairs = &out[spec.name];
    if (kill_before.count(k) != 0) kill_owner(spec.name);
    const size_t ops_before = supervisor->journal_info(spec.name)->ops;
    switch (op.kind) {
      case FleetOp::kPush:
        EXPECT_TRUE(
            supervisor->Push(spec.name, op.item.ts, op.item.vec, pairs).ok());
        break;
      case FleetOp::kBatch: {
        auto result = supervisor->PushBatch(spec.name, op.batch, pairs);
        if (!result.ok()) {
          ADD_FAILURE() << result.status().ToString();
          break;
        }
        EXPECT_EQ(result->accepted, op.batch.size() == 1 ? 0u : 3u);
        break;
      }
      case FleetOp::kFlush:
        EXPECT_TRUE(supervisor->Flush(spec.name, pairs).ok());
        break;
      case FleetOp::kMigrate:
        EXPECT_TRUE(
            supervisor->Migrate(spec.name, 1 - *supervisor->OwnerOf(spec.name))
                .ok());
        break;
    }
    const bool trimmed = op.kind == FleetOp::kPush &&
                         supervisor->journal_info(spec.name)->ops <= ops_before;
    if (trimmed && k >= kill_after_trim_from) {
      kill_owner(spec.name);
      kill_after_trim_from = SIZE_MAX;
    }
  }
  for (const SessionSpec& spec : specs) {
    EXPECT_TRUE(supervisor->Flush(spec.name, &out[spec.name]).ok());
    EXPECT_TRUE(supervisor->CloseSession(spec.name, &out[spec.name]).ok());
  }
  return out;
}

TEST(ClusterFailoverTest, SeededRandomKillsMatchUndisturbedFleet) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<SessionSpec> specs = KillSessions(seed);
    Rng rng(seed);
    const std::vector<FleetOp> script = KillScript(specs, &rng);

    SupervisorOptions options;
    options.num_workers = 2;
    std::map<std::string, std::vector<ResultPair>> want;
    {
      Supervisor supervisor(options);
      ASSERT_TRUE(supervisor.Start().ok());
      want = RunKillScript(&supervisor, specs, script, {}, SIZE_MAX);
      EXPECT_EQ(supervisor.restarts(), 0u);
    }

    std::set<size_t> kill_before;
    for (int i = 0; i < 3; ++i) {
      kill_before.insert(rng.NextBelow(script.size()));
    }
    const size_t kill_after_trim_from = rng.NextBelow(script.size() / 2);
    Supervisor supervisor(options);
    ASSERT_TRUE(supervisor.Start().ok());
    const auto got = RunKillScript(&supervisor, specs, script, kill_before,
                                   kill_after_trim_from);
    EXPECT_GE(supervisor.restarts(), 1u);
    EXPECT_LE(supervisor.restarts(), kill_before.size() + 1);
    for (const SessionSpec& spec : specs) {
      const std::vector<ResultPair>& pairs = want.at(spec.name);
      const std::vector<ResultPair>& mine = got.at(spec.name);
      EXPECT_FALSE(pairs.empty())
          << spec.name << ": no pairs — the pin is vacuous";
      if (spec.config.index == IndexScheme::kL2ap) {
        // Any restore rebuilds STR-L2AP's max vector from the replayed
        // items only, which can move an item's prefix boundary and with
        // it a score's summation order: the pair set holds, not the bits.
        EXPECT_EQ(mine.size(), pairs.size()) << spec.name;
        EXPECT_EQ(PairSet(mine), PairSet(pairs)) << spec.name;
        continue;
      }
      ExpectBitwiseEqual(mine, pairs, spec.name);
    }
  }
}

// MB failover is exact from every seed: a fresh session's, the
// not-started seed a mid-stream Flush leaves, and the started seed of a
// trimmed journal, whose replay rebuilds the original's windows because
// they sit on the grid. The streams span over 20 windows, and one kill
// lands right after a trim.
TEST(ClusterFailoverTest, MbKillsBeforeAnyPullMatchUndisturbedFleet) {
  SupervisorOptions options;
  options.num_workers = 2;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::vector<SessionSpec> specs;
    for (IndexScheme index : {IndexScheme::kL2, IndexScheme::kInv}) {
      SessionSpec spec;
      spec.name = "mb-" + std::to_string(specs.size());
      spec.config.framework = Framework::kMiniBatch;
      spec.config.index = index;
      spec.config.theta = 0.5;
      spec.config.lambda = 0.1;  // τ ≈ 7; the streams span ~150
      RandomStreamSpec stream_spec;
      stream_spec.n = 150;  // + 1 Flush
      stream_spec.dims = 30;
      stream_spec.seed = seed * 16 + specs.size();
      spec.stream = RandomStream(stream_spec);
      specs.push_back(std::move(spec));
    }
    std::vector<FleetOp> script;
    const size_t n = specs.front().stream.size();
    for (size_t i = 0; i < n; ++i) {
      for (size_t s = 0; s < specs.size(); ++s) {
        script.push_back({FleetOp::kPush, s, specs[s].stream[i], {}});
        if (i == n / 2) script.push_back({FleetOp::kFlush, s, {}, {}});
      }
    }
    std::map<std::string, std::vector<ResultPair>> want;
    {
      Supervisor supervisor(options);
      ASSERT_TRUE(supervisor.Start().ok());
      want = RunKillScript(&supervisor, specs, script, {}, SIZE_MAX);
    }
    Rng rng(seed);
    std::set<size_t> kill_before;
    for (int i = 0; i < 4; ++i) {
      kill_before.insert(rng.NextBelow(script.size()));
    }
    const size_t kill_after_trim_from = rng.NextBelow(script.size() / 2);
    Supervisor supervisor(options);
    ASSERT_TRUE(supervisor.Start().ok());
    const auto got = RunKillScript(&supervisor, specs, script, kill_before,
                                   kill_after_trim_from);
    EXPECT_GE(supervisor.restarts(), 2u);
    for (const SessionSpec& spec : specs) {
      EXPECT_FALSE(want.at(spec.name).empty())
          << spec.name << ": no pairs — the pin is vacuous";
      ExpectBitwiseEqual(got.at(spec.name), want.at(spec.name), spec.name);
    }
  }
}

// At λ = 0 nothing leaves the horizon, so a failover replays an STR
// session's whole journal onto its fresh seed, before a mid-stream Migrate
// and after it: the Migrate moves the session, not its restore point.
TEST(ClusterFailoverTest, LambdaZeroStrKillsMatchUndisturbedFleet) {
  SupervisorOptions options;
  options.num_workers = 2;
  std::vector<SessionSpec> specs;
  for (IndexScheme index :
       {IndexScheme::kInv, IndexScheme::kL2, IndexScheme::kL2ap}) {
    SessionSpec spec;
    spec.name = "forever-" + std::to_string(specs.size());
    spec.config.index = index;
    spec.config.theta = 0.6;
    spec.config.lambda = 0.0;
    RandomStreamSpec stream_spec;
    stream_spec.n = 138;
    stream_spec.dims = 30;
    stream_spec.seed = 90 + specs.size();
    spec.stream = RandomStream(stream_spec);
    specs.push_back(std::move(spec));
  }
  std::vector<FleetOp> script;
  const size_t n = specs.front().stream.size();
  for (size_t i = 0; i < n; ++i) {
    for (size_t s = 0; s < specs.size(); ++s) {
      script.push_back({FleetOp::kPush, s, specs[s].stream[i], {}});
      if (i == n / 2) script.push_back({FleetOp::kMigrate, s, {}, {}});
    }
  }
  std::map<std::string, std::vector<ResultPair>> want;
  {
    Supervisor supervisor(options);
    ASSERT_TRUE(supervisor.Start().ok());
    want = RunKillScript(&supervisor, specs, script, {}, SIZE_MAX);
  }
  // One kill before the Migrate ops, one after them.
  const std::set<size_t> kill_before = {script.size() * 2 / 5,
                                        script.size() * 4 / 5};
  Supervisor supervisor(options);
  ASSERT_TRUE(supervisor.Start().ok());
  const auto got =
      RunKillScript(&supervisor, specs, script, kill_before, SIZE_MAX);
  EXPECT_EQ(supervisor.restarts(), kill_before.size());
  for (const SessionSpec& spec : specs) {
    const std::vector<ResultPair>& pairs = want.at(spec.name);
    const std::vector<ResultPair>& mine = got.at(spec.name);
    EXPECT_FALSE(pairs.empty())
        << spec.name << ": no pairs — the pin is vacuous";
    if (spec.config.index == IndexScheme::kL2ap) {
      EXPECT_EQ(mine.size(), pairs.size()) << spec.name;
      EXPECT_EQ(PairSet(mine), PairSet(pairs)) << spec.name;
      continue;
    }
    ExpectBitwiseEqual(mine, pairs, spec.name);
  }
}

// A Migrate keeps the session's seed and journal, so a crash of the new
// owner right after it restores the same state the migration moved:
// every KillSessions kind (STR-INV, STR-L2, STR-L2AP, MB-L2, and STR-L2 at
// λ = 0) migrates two thirds of the way in, past several horizons, and its
// new owner is SIGKILLed before its next op.
TEST(ClusterFailoverTest, KillAfterMigrateMatchesUndisturbedFleet) {
  SupervisorOptions options;
  options.num_workers = 2;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<SessionSpec> specs = KillSessions(seed);
    std::vector<FleetOp> script;
    std::set<size_t> kill_before;
    const size_t n = specs.front().stream.size();
    for (size_t i = 0; i < n; ++i) {
      for (size_t s = 0; s < specs.size(); ++s) {
        // The op right after the session's Migrate: the new owner dies
        // just before it.
        if (i == 2 * n / 3 + 1) kill_before.insert(script.size());
        script.push_back({FleetOp::kPush, s, specs[s].stream[i], {}});
        if (i == 2 * n / 3) script.push_back({FleetOp::kMigrate, s, {}, {}});
      }
    }
    std::map<std::string, std::vector<ResultPair>> want;
    {
      Supervisor supervisor(options);
      ASSERT_TRUE(supervisor.Start().ok());
      want = RunKillScript(&supervisor, specs, script, {}, SIZE_MAX);
    }
    Supervisor supervisor(options);
    ASSERT_TRUE(supervisor.Start().ok());
    const auto got =
        RunKillScript(&supervisor, specs, script, kill_before, SIZE_MAX);
    EXPECT_GE(supervisor.restarts(), 2u);
    for (const SessionSpec& spec : specs) {
      const std::vector<ResultPair>& pairs = want.at(spec.name);
      const std::vector<ResultPair>& mine = got.at(spec.name);
      EXPECT_FALSE(pairs.empty())
          << spec.name << ": no pairs — the pin is vacuous";
      if (spec.config.index == IndexScheme::kL2ap) {
        EXPECT_EQ(mine.size(), pairs.size()) << spec.name;
        EXPECT_EQ(PairSet(mine), PairSet(pairs)) << spec.name;
        continue;
      }
      ExpectBitwiseEqual(mine, pairs, spec.name);
    }
  }
}

// ---- journal bounds: what each session keeps for failover ----

// Every journal is bounded without a pull: an STR journal holds the
// pushes inside the horizon, an MB journal the pushes in the newest
// item's window and the one before it; at λ = 0 both hold every push.
TEST(ClusterJournalTest, FleetPastHorizonPullsNothing) {
  SupervisorOptions options;
  options.num_workers = 2;
  Supervisor supervisor(options);
  ASSERT_TRUE(supervisor.Start().ok());
  struct Tenant {
    std::string name;
    Framework framework;
    IndexScheme index;
    double lambda;
  };
  // At λ = 0.1 the stream spans over 20 horizons; at λ = 0 τ is infinite
  // and every push stays in the journal.
  const std::vector<Tenant> tenants = {
      {"inv", Framework::kStreaming, IndexScheme::kInv, 0.1},
      {"l2", Framework::kStreaming, IndexScheme::kL2, 0.1},
      {"l2ap", Framework::kStreaming, IndexScheme::kL2ap, 0.1},
      {"mb-l2", Framework::kMiniBatch, IndexScheme::kL2, 0.1},
      {"inv-forever", Framework::kStreaming, IndexScheme::kInv, 0.0},
      {"l2-forever", Framework::kStreaming, IndexScheme::kL2, 0.0},
      {"l2ap-forever", Framework::kStreaming, IndexScheme::kL2ap, 0.0},
      {"mb-l2-forever", Framework::kMiniBatch, IndexScheme::kL2, 0.0}};
  WireConfig config;
  config.theta = 0.6;
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(config.theta, 0.1, &params));
  for (const Tenant& tenant : tenants) {
    config.framework = tenant.framework;
    config.index = tenant.index;
    config.lambda = tenant.lambda;
    ASSERT_TRUE(supervisor.CreateSession(tenant.name, config).ok());
  }
  RandomStreamSpec stream_spec;
  stream_spec.n = 300;
  stream_spec.seed = 5;
  const Stream stream = RandomStream(stream_spec);
  ASSERT_GT(stream.back().ts - stream.front().ts, 20 * params.tau);
  size_t most_mb_ops = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    size_t in_horizon = 0;
    size_t in_two_windows = 0;
    const double newest_window = MbWindowIndex(stream[i].ts, params.tau);
    for (size_t j = 0; j <= i; ++j) {
      if (!OutsideHorizon(stream[j].ts, stream[i].ts, params.tau)) {
        ++in_horizon;
      }
      if (MbWindowIndex(stream[j].ts, params.tau) >= newest_window - 1.0) {
        ++in_two_windows;
      }
    }
    for (const Tenant& tenant : tenants) {
      ASSERT_TRUE(
          supervisor.Push(tenant.name, stream[i].ts, stream[i].vec, nullptr)
              .ok());
      const auto info = supervisor.journal_info(tenant.name);
      ASSERT_TRUE(info.ok());
      // One op per push, trimmed at τ (STR) or at two windows (MB).
      const size_t want =
          tenant.lambda == 0.0 ? i + 1
          : tenant.framework == Framework::kStreaming ? in_horizon
                                                      : in_two_windows;
      ASSERT_EQ(info->ops, want) << tenant.name << " after push " << i;
    }
    most_mb_ops = std::max(most_mb_ops, in_two_windows);
  }
  EXPECT_LT(most_mb_ops, stream.size() / 10) << "the MB trim is vacuous";
}

// An MB Flush empties the core, so it empties the journal too, and the
// core's clock restarts, so a push may go back in time; a failover then
// restores the not-started seed the Flush left and replays only what came
// after it, and the output matches the in-process run.
TEST(ClusterJournalTest, MbFlushRestartsTheJournal) {
  WireConfig mb;
  mb.framework = Framework::kMiniBatch;
  mb.theta = 0.55;
  mb.lambda = 0.1;
  RandomStreamSpec stream_spec;
  stream_spec.n = 60;
  stream_spec.dims = 20;
  stream_spec.seed = 12;
  const Stream stream = RandomStream(stream_spec);
  const size_t half = stream.size() / 2;
  auto run = [&](ClusterClient* client, Supervisor* supervisor) {
    std::vector<ResultPair> pairs;
    EXPECT_TRUE(client->CreateSession("mb", mb).ok());
    for (const StreamItem& item : stream) {
      EXPECT_TRUE(client->Push("mb", item.ts, item.vec, &pairs).ok());
    }
    EXPECT_TRUE(client->Flush("mb", &pairs).ok());
    if (supervisor != nullptr) {
      EXPECT_EQ(supervisor->journal_info("mb")->ops, 0u);
    }
    // The same stream again, from ts 0: accepted after the Flush.
    for (size_t i = 0; i < stream.size(); ++i) {
      if (supervisor != nullptr && (i == 3 || i == half)) {
        ::kill(*supervisor->worker_pid(*supervisor->OwnerOf("mb")), SIGKILL);
      }
      EXPECT_TRUE(
          client->Push("mb", stream[i].ts, stream[i].vec, &pairs).ok());
    }
    EXPECT_TRUE(client->CloseSession("mb", &pairs).ok());
    return pairs;
  };
  ClusterClient local{JoinServiceOptions{}};
  const std::vector<ResultPair> want = run(&local, nullptr);

  SupervisorOptions options;
  options.num_workers = 2;
  Supervisor supervisor(options);
  ASSERT_TRUE(supervisor.Start().ok());
  ClusterClient remote(&supervisor);
  const std::vector<ResultPair> got = run(&remote, &supervisor);
  EXPECT_EQ(supervisor.restarts(), 2u);
  EXPECT_FALSE(want.empty());
  ExpectBitwiseEqual(got, want, "mb");
}

// At λ = 0 an STR journal drops only leading ops that got no item
// accepted (a flush, an all-rejected batch); every op with items stays,
// across a Migrate too, and a failover replays them all.
TEST(ClusterJournalTest, LambdaZeroJournalDropsOnlyLeadingZeroItemOps) {
  SupervisorOptions options;
  options.num_workers = 2;
  Supervisor supervisor(options);
  ASSERT_TRUE(supervisor.Start().ok());
  WireConfig forever;
  forever.theta = 0.6;
  forever.lambda = 0.0;
  ASSERT_TRUE(supervisor.CreateSession("forever", forever).ok());
  RandomStreamSpec stream_spec;
  stream_spec.n = 192;
  stream_spec.seed = 8;
  const Stream stream = RandomStream(stream_spec);
  auto ops = [&supervisor] { return supervisor.journal_info("forever")->ops; };
  auto rejected_batch = [&supervisor](Timestamp ts) {
    const auto result = supervisor.PushBatch(
        "forever", {Item(0, ts, SparseVector())}, nullptr);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->accepted, 0u);
  };

  ASSERT_TRUE(supervisor.Flush("forever", nullptr).ok());
  rejected_batch(stream.front().ts);
  EXPECT_EQ(ops(), 0u);  // both led the journal and changed nothing
  const size_t half = stream.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(
        supervisor.Push("forever", stream[i].ts, stream[i].vec, nullptr).ok());
  }
  EXPECT_EQ(ops(), half);
  ASSERT_TRUE(supervisor.Flush("forever", nullptr).ok());
  rejected_batch(stream[half].ts);
  EXPECT_EQ(ops(), half + 2);  // behind ops with items: kept

  ASSERT_TRUE(supervisor
                  .Migrate("forever", 1 - *supervisor.OwnerOf("forever"))
                  .ok());
  EXPECT_EQ(ops(), half + 2);  // a Migrate keeps the journal
  for (size_t i = half; i < stream.size(); ++i) {
    ASSERT_TRUE(
        supervisor.Push("forever", stream[i].ts, stream[i].vec, nullptr).ok());
  }
  EXPECT_EQ(ops(), stream.size() + 2);
  // A failover on the new owner replays all of it onto the fresh seed.
  ::kill(*supervisor.worker_pid(*supervisor.OwnerOf("forever")), SIGKILL);
  const auto stats = supervisor.SessionStats("forever");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->vectors_processed, stream.size());
  EXPECT_EQ(supervisor.restarts(), 1u);
}

// ---- restore-path cross-version sniffing (worker must refuse retired
// checkpoint formats with a named reason and stay pristine) ----

// A checkpoint whose magic is the retired native SSSJENG2 one.
std::string NativeCheckpointBytes() {
  EngineConfig config;
  config.framework = Framework::kStreaming;
  config.index = IndexScheme::kL2;
  config.theta = 0.6;
  config.lambda = 0.05;
  CollectorSink sink;
  auto engine = *SssjEngine::Make(config, &sink);
  EXPECT_TRUE(engine->Push(0.0, UnitVec({{1, 1.0}})).ok());
  std::ostringstream os;
  EXPECT_TRUE(engine->SaveCheckpoint(os).ok());
  std::string bytes = std::move(os).str();
  bytes.replace(0, 8, "SSSJENG2");
  return bytes;
}

std::string PortableCheckpointBytes(const WireConfig& config) {
  CollectorSink sink;
  auto engine = *SssjEngine::Make(config.ToEngineConfig(), &sink);
  EXPECT_TRUE(engine->Push(0.0, UnitVec({{1, 1.0}, {3, 0.5}})).ok());
  EXPECT_TRUE(engine->Push(0.5, UnitVec({{1, 1.0}, {3, 0.6}})).ok());
  std::ostringstream os;
  EXPECT_TRUE(engine->SaveCheckpoint(os).ok());
  std::string bytes = std::move(os).str();
  EXPECT_EQ(bytes.compare(0, 8, "SSSJENG3"), 0)
      << "fixture did not produce a portable checkpoint";
  return bytes;
}

TEST(WorkerRestoreTest, NativeCheckpointIsRefusedWithNamedReason) {
  Worker worker;
  bool shutdown = false;
  RestoreRequest req;
  req.name = "victim";
  req.config.theta = 0.6;
  req.config.lambda = 0.05;
  req.checkpoint = NativeCheckpointBytes();
  const Reply reply =
      worker.Handle(FrameType::kRestore, EncodeRestore(req), &shutdown);
  ASSERT_FALSE(reply.status.ok());
  // The refusal must NAME the cross-version problem, not report a
  // generic parse failure.
  EXPECT_EQ(reply.status.code(), StatusCode::kDataLoss)
      << reply.status.ToString();
  EXPECT_NE(reply.status.message().find("SSSJENG2"), std::string::npos)
      << reply.status.ToString();
  EXPECT_NE(reply.status.message().find("no longer reads"), std::string::npos)
      << reply.status.ToString();
  // And the worker is pristine: no half-born session, name reusable.
  EXPECT_EQ(worker.num_sessions(), 0u);
  CreateSessionRequest create;
  create.name = "victim";
  create.config = req.config;
  const Reply created = worker.Handle(FrameType::kCreateSession,
                                      EncodeCreateSession(create), &shutdown);
  EXPECT_TRUE(created.status.ok()) << created.status.ToString();
  EXPECT_EQ(worker.num_sessions(), 1u);
}

TEST(WorkerRestoreTest, SupervisorRefusesNativeBytesViaRestorePath) {
  // The same restore path through the forked fleet. The supervisor has no
  // public restore entry (a Migrate and a failover are its only callers),
  // so drive the worker end through a Migrate round trip instead: create,
  // push, migrate there and back, close, then re-create with the same
  // name on both workers to prove nothing stuck.
  SupervisorOptions options;
  options.num_workers = 2;
  Supervisor supervisor(options);
  ASSERT_TRUE(supervisor.Start().ok());
  WireConfig config;
  config.theta = 0.6;
  config.lambda = 0.05;
  ASSERT_TRUE(supervisor.CreateSession("s", config).ok());
  std::vector<ResultPair> pairs;
  ASSERT_TRUE(supervisor.Push("s", 0.0, UnitVec({{1, 1.0}}), &pairs).ok());
  const int home = *supervisor.OwnerOf("s");
  ASSERT_TRUE(supervisor.Migrate("s", 1 - home).ok());
  ASSERT_TRUE(supervisor.Migrate("s", home).ok());
  ASSERT_TRUE(supervisor.Push("s", 0.1, UnitVec({{1, 1.0}}), &pairs).ok());
  EXPECT_EQ(pairs.size(), 1u);
  ASSERT_TRUE(supervisor.CloseSession("s", &pairs).ok());
  ASSERT_TRUE(supervisor.CreateSession("s", config).ok());
  ASSERT_TRUE(supervisor.Migrate("s", 1 - home).ok());
  EXPECT_EQ(*supervisor.OwnerOf("s"), 1 - home);
  supervisor.Shutdown();
}

TEST(WorkerRestoreTest, TruncatedRestoreBlobSweepLeavesWorkerPristine) {
  WireConfig config;
  config.theta = 0.6;
  config.lambda = 0.05;
  const std::string blob = PortableCheckpointBytes(config);
  Worker worker;
  bool shutdown = false;
  for (size_t len = 0; len < blob.size(); ++len) {
    RestoreRequest req;
    req.name = "sweep";
    req.config = config;
    req.checkpoint = blob.substr(0, len);
    const Reply reply =
        worker.Handle(FrameType::kRestore, EncodeRestore(req), &shutdown);
    ASSERT_FALSE(reply.status.ok())
        << "accepted a " << len << "-byte checkpoint prefix";
    ASSERT_EQ(worker.num_sessions(), 0u)
        << "partial state left behind at prefix " << len;
  }
  // The untruncated blob restores cleanly — the sweep's sanity anchor.
  RestoreRequest req;
  req.name = "sweep";
  req.config = config;
  req.checkpoint = blob;
  const Reply reply =
      worker.Handle(FrameType::kRestore, EncodeRestore(req), &shutdown);
  EXPECT_TRUE(reply.status.ok()) << reply.status.ToString();
  EXPECT_EQ(worker.num_sessions(), 1u);
}

TEST(WorkerRestoreTest, ThetaMismatchIsRefused) {
  WireConfig source_config;
  source_config.theta = 0.6;
  source_config.lambda = 0.05;
  const std::string blob = PortableCheckpointBytes(source_config);
  Worker worker;
  bool shutdown = false;
  RestoreRequest req;
  req.name = "mismatch";
  req.config = source_config;
  req.config.theta = 0.7;  // checkpoint was taken at 0.6
  const Reply reply = worker.Handle(
      FrameType::kRestore,
      EncodeRestore(RestoreRequest{req.name, req.config, blob}), &shutdown);
  EXPECT_FALSE(reply.status.ok());
  EXPECT_EQ(worker.num_sessions(), 0u);
}

// ---- worker dispatch odds and ends ----

TEST(WorkerDispatchTest, HelloMismatchIsNamed) {
  Worker worker;
  bool shutdown = false;
  HelloPayload stale;
  stale.version = kWireVersion + 1;
  const Reply reply =
      worker.Handle(FrameType::kHello, EncodeHello(stale), &shutdown);
  EXPECT_EQ(reply.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(reply.status.message().find("version"), std::string::npos);
  // A foreign magic at the current version is refused by name too.
  HelloPayload foreign;
  foreign.magic = 0xdeadbeef;
  const Reply refused =
      worker.Handle(FrameType::kHello, EncodeHello(foreign), &shutdown);
  EXPECT_EQ(refused.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.status.message().find("wire magic mismatch"),
            std::string::npos)
      << refused.status.ToString();
}

TEST(WorkerDispatchTest, UnknownSessionAndBadPayloadsAreClean) {
  Worker worker;
  bool shutdown = false;
  NameRequest req;
  req.name = "ghost";
  for (const FrameType type :
       {FrameType::kFlush, FrameType::kMigrateOut, FrameType::kCloseSession,
        FrameType::kStats}) {
    const Reply reply = worker.Handle(type, EncodeName(req), &shutdown);
    EXPECT_EQ(reply.status.code(), StatusCode::kNotFound) << ToString(type);
  }
  // Garbage payload → kDataLoss from the decoder, not a crash.
  const Reply garbage =
      worker.Handle(FrameType::kPush, std::string("\x01\x02", 2), &shutdown);
  EXPECT_EQ(garbage.status.code(), StatusCode::kDataLoss);
  // kReply as a request is refused.
  const Reply bounced =
      worker.Handle(FrameType::kReply, std::string(), &shutdown);
  EXPECT_EQ(bounced.status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(shutdown);
  const Reply bye = worker.Handle(FrameType::kShutdown, std::string(),
                                  &shutdown);
  EXPECT_TRUE(bye.status.ok());
  EXPECT_TRUE(shutdown);
}

TEST(WorkerDispatchTest, MigrateOutDoesNotFlushPendingWindows) {
  // MB session with an open window: MigrateOut must NOT emit its
  // pending pairs (they travel in the checkpoint); a restore + close on
  // a second worker must emit them exactly once.
  WireConfig config;
  config.framework = Framework::kMiniBatch;
  config.index = IndexScheme::kL2;
  config.theta = 0.5;
  config.lambda = 0.05;
  Worker source;
  bool shutdown = false;
  CreateSessionRequest create;
  create.name = "mb";
  create.config = config;
  ASSERT_TRUE(source
                  .Handle(FrameType::kCreateSession,
                          EncodeCreateSession(create), &shutdown)
                  .status.ok());
  PushRequest push;
  push.name = "mb";
  push.ts = 0.0;
  push.vec = UnitVec({{1, 1.0}, {2, 1.0}});
  ASSERT_TRUE(
      source.Handle(FrameType::kPush, EncodePush(push), &shutdown).status.ok());
  push.ts = 0.1;
  push.vec = UnitVec({{1, 1.0}, {2, 1.05}});
  const Reply second =
      source.Handle(FrameType::kPush, EncodePush(push), &shutdown);
  ASSERT_TRUE(second.status.ok());

  NameRequest name;
  name.name = "mb";
  const Reply out =
      source.Handle(FrameType::kMigrateOut, EncodeName(name), &shutdown);
  ASSERT_TRUE(out.status.ok());
  EXPECT_TRUE(out.pairs.empty())
      << "MigrateOut flushed pending pairs at the source";
  EXPECT_EQ(source.num_sessions(), 0u);

  Worker destination;
  RestoreRequest restore;
  restore.name = "mb";
  restore.config = config;
  restore.checkpoint = out.blob;
  ASSERT_TRUE(destination
                  .Handle(FrameType::kRestore, EncodeRestore(restore),
                          &shutdown)
                  .status.ok());
  const Reply closed =
      destination.Handle(FrameType::kCloseSession, EncodeName(name),
                         &shutdown);
  ASSERT_TRUE(closed.status.ok());
  // The pending pair emits exactly once, at the destination.
  EXPECT_EQ(closed.pairs.size() + second.pairs.size(), 1u)
      << "pending MB pair lost or duplicated across migration";
}

}  // namespace
}  // namespace cluster
}  // namespace sssj
