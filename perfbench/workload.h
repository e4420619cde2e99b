// The benchmark's workloads: which streams are pushed, through which
// configuration, and in what order. Every input is generated from the
// run's seed with data/profiles; the program under test only ever sees
// the generated items.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster/wire.h"
#include "core/engine.h"
#include "core/similarity.h"
#include "core/status.h"
#include "core/stream_item.h"

namespace perfbench {

struct Tenant {
  std::string name;
  // The session configuration as it crosses the wire.
  sssj::cluster::WireConfig wire;
  // What every in-process layer of this workload runs for the tenant:
  // the wire config as a worker resolves it for tenant-fleet, the plain
  // engine config otherwise.
  sssj::EngineConfig config;
  // The bare engine the correctness reference runs.
  sssj::EngineConfig reference;
  sssj::DecayParams params;
  // Items as a client pushes them.
  sssj::Stream stream;
  // The same items as the engine hands them to its core: ids from 0 and
  // vectors normalized exactly as SssjEngine::Push does. The index and
  // stream rows push these so their pairs match the engine bit for bit.
  sssj::Stream prepared;
  // The stream as a text file (empty until WriteTextFiles).
  std::string text_path;
  uint64_t text_bytes = 0;
};

struct Workload {
  std::string name;
  std::vector<Tenant> tenants;
  // Push order: (tenant, item ordinal). Tenants interleave round-robin.
  std::vector<std::pair<uint32_t, uint32_t>> order;
  // The ledger row whose stack is this workload's end-to-end path.
  std::string top_row;
  // The row providing the JoinService metrics: the session kind this
  // workload runs (async for dense-async, inline otherwise).
  std::string service_row;
};

// Names accepted by MakeWorkload.
const std::vector<std::string>& WorkloadNames();

// Configuration only (no streams): tenant names and configs. Cheap, so
// tenant-fleet can create its sessions before any stream exists.
sssj::Status DescribeWorkload(const std::string& name, Workload* out);

// Generates every tenant's stream from `seed` and fills the push order.
// cli-sparse's input goes through a text file under `run_dir` first: its
// stream is what ReadTextStream returns, exactly as the CLI sees it.
sssj::Status GenerateStreams(uint64_t seed, const std::string& run_dir,
                             Workload* w);

// Writes each tenant's stream as a text file under `run_dir` (the input
// of the io layer and of the CLI path).
sssj::Status WriteTextFiles(const std::string& run_dir, Workload* w);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
