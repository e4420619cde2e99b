#include "stacks.h"

#include <sstream>

#include "core/engine.h"
#include "core/join_service.h"
#include "data/io.h"
#include "index/stream_index.h"
#include "index/stream_inv_index.h"
#include "index/stream_l2_index.h"
#include "index/stream_l2ap_index.h"

namespace perfbench {

namespace {

using sssj::Framework;
using sssj::IndexScheme;
using sssj::Status;
using sssj::StatusOr;

Status Rejected(const char* what) {
  return Status::Internal(std::string(what) + " rejected a generated item");
}

// One STR index for the tenant's scheme, built the way MakeJoinCore
// builds it for a single-threaded engine.
std::unique_ptr<sssj::StreamIndex> MakeStreamIndex(const Tenant& tenant) {
  const sssj::EngineConfig& c = tenant.config;
  const bool simd = sssj::KernelModeUsesSimd(c.kernel);
  switch (tenant.wire.index) {
    case IndexScheme::kInv:
      return std::make_unique<sssj::StreamInvIndex>(tenant.params, simd,
                                                    c.tiered);
    case IndexScheme::kL2ap:
      return std::make_unique<sssj::StreamL2apIndex>(
          tenant.params, /*ic_theta_slack=*/0.0, /*use_l2_bounds=*/true, simd,
          c.tiered);
    default:
      return std::make_unique<sssj::StreamL2Index>(
          tenant.params, sssj::L2IndexOptions{}, simd, c.tiered);
  }
}

class IndexStack : public Stack {
 public:
  using Stack::Stack;

  Status Open() override {
    for (const Tenant& tenant : w_.tenants) {
      if (tenant.wire.framework == Framework::kMiniBatch) {
        // MiniBatch has no online index: its window join stands in.
        auto core = sssj::MakeJoinCore(tenant.config, Framework::kMiniBatch,
                                       tenant.wire.index, tenant.params);
        if (!core.ok()) return core.status();
        windows_.push_back(std::move(*core));
        indexes_.push_back(nullptr);
      } else {
        windows_.push_back(nullptr);
        indexes_.push_back(MakeStreamIndex(tenant));
      }
    }
    return Status::Ok();
  }

  Status Push(uint32_t t, uint32_t i, size_t /*k*/) override {
    const sssj::StreamItem& x = w_.tenants[t].prepared[i];
    if (indexes_[t] != nullptr) {
      indexes_[t]->ProcessArrival(x, sinks_[t].get());
      return Status::Ok();
    }
    return windows_[t]->Push(x, sinks_[t].get()) ? Status::Ok()
                                                  : Rejected("window join");
  }

  double StateBytes() override {
    double bytes = 0.0;
    for (size_t t = 0; t < indexes_.size(); ++t) {
      bytes += static_cast<double>(indexes_[t] != nullptr
                                       ? indexes_[t]->MemoryBytes()
                                       : windows_[t]->MemoryBytes());
    }
    return bytes;
  }

  void Probe() override {
    sssj::RunStats sum;
    double peak = 0.0;
    double call_s = 0.0;
    size_t calls = 0;
    for (size_t t = 0; t < indexes_.size(); ++t) {
      const sssj::RunStats& s = indexes_[t] != nullptr ? indexes_[t]->stats()
                                                       : windows_[t]->stats();
      sum += s;
      peak += static_cast<double>(s.peak_index_entries);
      if (indexes_[t] != nullptr) {
        const int64_t start = NowNs();
        (void)indexes_[t]->MemoryBytes();
        call_s += SecondsBetween(start, NowNs());
        ++calls;
      }
    }
    const double arrivals = static_cast<double>(w_.order.size());
    metrics_["index.entries_traversed_per_arrival"] =
        static_cast<double>(sum.entries_traversed) / arrivals;
    metrics_["index.candidates_per_arrival"] =
        static_cast<double>(sum.candidates_generated) / arrivals;
    metrics_["index.verify_calls_per_arrival"] =
        static_cast<double>(sum.verify_calls) / arrivals;
    metrics_["index.entries_indexed_per_arrival"] =
        static_cast<double>(sum.entries_indexed) / arrivals;
    metrics_["index.entries_pruned_per_arrival"] =
        static_cast<double>(sum.entries_pruned) / arrivals;
    metrics_["index.reindexed_coords_per_arrival"] =
        static_cast<double>(sum.reindexed_coords) / arrivals;
    metrics_["index.l2_prune_frac"] =
        sum.candidates_generated == 0
            ? 0.0
            : static_cast<double>(sum.l2_prunes) /
                  static_cast<double>(sum.candidates_generated);
    metrics_["index.verify_yield"] =
        sum.verify_calls == 0 ? 0.0
                              : static_cast<double>(sum.pairs_emitted) /
                                    static_cast<double>(sum.verify_calls);
    metrics_["index.peak_entries"] = peak;
    metrics_["index.memory_bytes_call_us"] =
        calls == 0 ? 0.0 : call_s / static_cast<double>(calls) * 1e6;
  }

  Status Close() override {
    for (size_t t = 0; t < windows_.size(); ++t) {
      if (windows_[t] != nullptr) windows_[t]->Flush(sinks_[t].get());
    }
    return Status::Ok();
  }

 private:
  std::vector<std::unique_ptr<sssj::StreamIndex>> indexes_;
  std::vector<std::unique_ptr<sssj::JoinCore>> windows_;
};

class CoreStack : public Stack {
 public:
  using Stack::Stack;

  Status Open() override {
    for (const Tenant& tenant : w_.tenants) {
      auto core = sssj::MakeJoinCore(tenant.config, tenant.wire.framework,
                                     tenant.wire.index, tenant.params);
      if (!core.ok()) return core.status();
      cores_.push_back(std::move(*core));
    }
    return Status::Ok();
  }

  Status Push(uint32_t t, uint32_t i, size_t /*k*/) override {
    return cores_[t]->Push(w_.tenants[t].prepared[i], sinks_[t].get())
               ? Status::Ok()
               : Rejected("join core");
  }

  double StateBytes() override {
    double bytes = 0.0;
    for (const auto& core : cores_) {
      bytes += static_cast<double>(core->MemoryBytes());
    }
    return bytes;
  }

  void Probe() override {
    double rebuilds = 0.0;
    for (const auto& core : cores_) {
      rebuilds += static_cast<double>(core->stats().index_rebuilds);
    }
    metrics_["stream.index_rebuilds"] = rebuilds;
  }

  Status Close() override {
    const int64_t start = NowNs();
    for (size_t t = 0; t < cores_.size(); ++t) {
      cores_[t]->Flush(sinks_[t].get());
    }
    metrics_["stream.flush_ms"] = SecondsBetween(start, NowNs()) * 1e3;
    return Status::Ok();
  }

 private:
  std::vector<std::unique_ptr<sssj::JoinCore>> cores_;
};

// SssjEngine, inline or async. With `parse_text` Open first reads each
// tenant's text file, as sssj_cli does, and pushes the parsed items.
class EngineStack : public Stack {
 public:
  EngineStack(const Workload& w, bool async, bool parse_text)
      : Stack(w), parse_text_(parse_text) {
    async_ = async;
  }

  Status Open() override {
    parsed_.resize(w_.tenants.size());
    for (uint32_t t = 0; t < w_.tenants.size(); ++t) {
      const Tenant& tenant = w_.tenants[t];
      if (parse_text_) {
        Status read = sssj::ReadTextStream(tenant.text_path, &parsed_[t]);
        if (!read.ok()) return read;
      }
      sssj::EngineConfig config = tenant.config;
      if (async_) {
        config.ingest.mode = sssj::IngestMode::kAsync;
        config.ingest.submit = sssj::SubmitPolicy::kBlock;
        config.ingest.on_complete = [this, t](uint64_t ticket,
                                              const Status& status) {
          Complete(t, ticket, status);
        };
      }
      auto engine = sssj::SssjEngine::Make(config, sinks_[t].get());
      if (!engine.ok()) return engine.status();
      engines_.push_back(std::move(*engine));
    }
    return Status::Ok();
  }

  Status Push(uint32_t t, uint32_t i, size_t /*k*/) override {
    const sssj::StreamItem& item =
        parse_text_ ? parsed_[t][i] : w_.tenants[t].stream[i];
    return async_ ? engines_[t]->AsyncPush(item.ts, item.vec)
                  : engines_[t]->Push(item.ts, item.vec);
  }

  Status Drain() override {
    for (const auto& engine : engines_) {
      Status drained = engine->Drain();
      if (!drained.ok()) return drained;
    }
    return Status::Ok();
  }

  double StateBytes() override {
    double bytes = 0.0;
    for (const auto& engine : engines_) {
      bytes += static_cast<double>(engine->MemoryBytes());
    }
    return bytes;
  }

  void Probe() override {
    if (!async_) return;
    double epochs = 0.0;
    double blocked = 0.0;
    double max_depth = 0.0;
    for (const auto& engine : engines_) {
      const sssj::IngestStats s = engine->ingest_stats();
      epochs += static_cast<double>(s.epochs_closed);
      blocked += static_cast<double>(s.blocked_submits);
      max_depth = std::max(max_depth, static_cast<double>(s.max_queue_depth));
    }
    metrics_["ingest.epochs_closed"] = epochs;
    metrics_["ingest.blocked_submits"] = blocked;
    metrics_["ingest.max_queue_depth"] = max_depth;
  }

  Status Close() override {
    for (const auto& engine : engines_) engine->Flush();
    return Status::Ok();
  }

 private:
  bool parse_text_;
  std::vector<sssj::Stream> parsed_;
  // Declared last: destroying an async engine joins its pump thread,
  // which calls back into this stack.
  std::vector<std::unique_ptr<sssj::SssjEngine>> engines_;
};

class ServiceStack : public Stack {
 public:
  ServiceStack(const Workload& w, bool async) : Stack(w) { async_ = async; }

  Status Open() override {
    service_ = std::make_unique<sssj::JoinService>();
    for (uint32_t t = 0; t < w_.tenants.size(); ++t) {
      const Tenant& tenant = w_.tenants[t];
      sssj::EngineConfig config = tenant.config;
      if (async_) {
        config.ingest.mode = sssj::IngestMode::kAsync;
        config.ingest.submit = sssj::SubmitPolicy::kBlock;
        config.ingest.on_complete = [this, t](uint64_t ticket,
                                              const Status& status) {
          Complete(t, ticket, status);
        };
      }
      auto handle = service_->CreateSession(
          sssj::JoinService::SessionOptions(tenant.name, config,
                                            sinks_[t].get()));
      if (!handle.ok()) return handle.status();
      handles_.push_back(*handle);
    }
    return Status::Ok();
  }

  Status Push(uint32_t t, uint32_t i, size_t /*k*/) override {
    const sssj::StreamItem& item = w_.tenants[t].stream[i];
    return async_ ? service_->AsyncPush(handles_[t], item.ts, item.vec)
                  : service_->Push(handles_[t], item.ts, item.vec);
  }

  Status Drain() override {
    if (!async_) return Status::Ok();
    for (const auto& handle : handles_) {
      Status drained = service_->Drain(handle);
      if (!drained.ok()) return drained;
    }
    return Status::Ok();
  }

  double StateBytes() override {
    return static_cast<double>(service_->Stats().memory_bytes);
  }

  void Probe() override {
    int64_t start = NowNs();
    for (const auto& handle : handles_) {
      (void)service_->SessionMemoryBytes(handle);
    }
    metrics_["service.memory_bytes_call_us"] =
        SecondsBetween(start, NowNs()) * 1e6 /
        static_cast<double>(handles_.size());
    start = NowNs();
    (void)service_->Stats();
    metrics_["service.stats_call_us"] = SecondsBetween(start, NowNs()) * 1e6;
    if (!async_) ProbeCheckpoints();
  }

  Status Close() override {
    for (const auto& handle : handles_) {
      Status closed = service_->CloseSession(handle);
      if (!closed.ok()) return closed;
    }
    return Status::Ok();
  }

 private:
  // Saves each session to a stream and loads it into a fresh session of
  // the same config. A failure is recorded as a negative byte count.
  void ProbeCheckpoints() {
    double bytes = 0.0;
    double save_s = 0.0;
    double load_s = 0.0;
    bool ok = true;
    for (size_t t = 0; t < handles_.size(); ++t) {
      std::ostringstream out;
      int64_t start = NowNs();
      ok = ok && service_->SaveCheckpoint(handles_[t], out).ok();
      save_s += SecondsBetween(start, NowNs());
      const std::string blob = out.str();
      bytes += static_cast<double>(blob.size());
      auto restored = service_->CreateSession(sssj::JoinService::SessionOptions(
          w_.tenants[t].name + "-restored", w_.tenants[t].config, nullptr));
      if (!restored.ok()) {
        ok = false;
        continue;
      }
      std::istringstream in(blob);
      start = NowNs();
      ok = ok && service_->LoadCheckpoint(*restored, in).ok();
      load_s += SecondsBetween(start, NowNs());
      ok = service_->CloseSession(*restored).ok() && ok;
    }
    const double sessions = static_cast<double>(handles_.size());
    metrics_["checkpoint.bytes_per_session"] = ok ? bytes / sessions : -1.0;
    metrics_["checkpoint.save_ms"] = save_s / sessions * 1e3;
    metrics_["checkpoint.load_ms"] = load_s / sessions * 1e3;
  }

  std::vector<sssj::JoinService::SessionHandle> handles_;
  // Declared last: its destructor joins the shared pump, which calls
  // back into this stack.
  std::unique_ptr<sssj::JoinService> service_;
};

// ClusterClient over the in-process backend ("client") or a started
// supervisor ("fleet"); each push returns the pairs it caused.
class ClientStack : public Stack {
 public:
  ClientStack(const Workload& w, sssj::cluster::Supervisor* supervisor,
              std::vector<std::vector<sssj::ResultPair>>* pairs_by_push)
      : Stack(w), supervisor_(supervisor), pairs_by_push_(pairs_by_push) {}

  Status Open() override {
    client_ = supervisor_ != nullptr
                  ? std::make_unique<sssj::cluster::ClusterClient>(supervisor_)
                  : std::make_unique<sssj::cluster::ClusterClient>(
                        sssj::JoinServiceOptions{});
    for (const Tenant& tenant : w_.tenants) {
      Status created = client_->CreateSession(tenant.name, tenant.wire);
      if (!created.ok()) return created;
    }
    return Status::Ok();
  }

  Status Push(uint32_t t, uint32_t i, size_t k) override {
    const Tenant& tenant = w_.tenants[t];
    const sssj::StreamItem& item = tenant.stream[i];
    pairs_.clear();
    Status pushed = client_->Push(tenant.name, item.ts, item.vec, &pairs_);
    for (const sssj::ResultPair& pair : pairs_) digests_[t].Add(t, pair);
    if (pairs_by_push_ != nullptr) (*pairs_by_push_)[k] = pairs_;
    return pushed;
  }

  double StateBytes() override {
    double bytes = 0.0;
    for (const Tenant& tenant : w_.tenants) {
      auto stats = client_->SessionStats(tenant.name);
      if (stats.ok()) bytes += static_cast<double>(stats->memory_bytes);
    }
    return bytes;
  }

  void Probe() override {
    if (supervisor_ != nullptr) {
      metrics_["fleet.restarts"] = static_cast<double>(supervisor_->restarts());
    }
  }

  Status Close() override {
    for (uint32_t t = 0; t < w_.tenants.size(); ++t) {
      pairs_.clear();
      Status closed = client_->CloseSession(w_.tenants[t].name, &pairs_);
      for (const sssj::ResultPair& pair : pairs_) digests_[t].Add(t, pair);
      if (!closed.ok()) return closed;
    }
    return Status::Ok();
  }

 private:
  sssj::cluster::Supervisor* supervisor_;
  std::vector<std::vector<sssj::ResultPair>>* pairs_by_push_;
  std::unique_ptr<sssj::cluster::ClusterClient> client_;
  std::vector<sssj::ResultPair> pairs_;
};

}  // namespace

Stack::Stack(const Workload& w)
    : w_(w), digests_(w.tenants.size()), push_index_(w.tenants.size()) {
  for (size_t t = 0; t < w.tenants.size(); ++t) {
    sinks_.push_back(std::make_unique<DigestSink>(t, &digests_[t]));
    push_index_[t].reserve(w.tenants[t].stream.size());
  }
  for (size_t k = 0; k < w.order.size(); ++k) {
    push_index_[w.order[k].first].push_back(k);
  }
}

PairDigest Stack::digest() const {
  PairDigest all;
  for (const PairDigest& d : digests_) all.Merge(d);
  return all;
}

void Stack::Complete(uint32_t tenant, uint64_t ticket, const Status& status) {
  const std::vector<size_t>& index = push_index_[tenant];
  if (ticket >= index.size()) {
    async_failures_.fetch_add(1);
    return;
  }
  end_ns_[index[ticket]] = NowNs();
  if (!status.ok()) async_failures_.fetch_add(1);
}

const std::vector<std::string>& LedgerRows() {
  static const std::vector<std::string> rows = {
      "index",   "stream",        "engine", "ingest",
      "service", "service-async", "client", "fleet"};
  return rows;
}

std::string BelowRow(const std::string& row) {
  static const std::map<std::string, std::string> below = {
      {"index", ""},          {"stream", "index"},   {"engine", "stream"},
      {"cli", "stream"},      {"ingest", "engine"},  {"service", "engine"},
      {"service-async", "ingest"}, {"client", "service"}, {"fleet", "client"}};
  auto it = below.find(row);
  return it == below.end() ? "" : it->second;
}

StatusOr<std::unique_ptr<Stack>> MakeStack(const std::string& row,
                                           const Workload& w,
                                           const StackEnv& env) {
  std::unique_ptr<Stack> stack;
  if (row == "index") {
    stack = std::make_unique<IndexStack>(w);
  } else if (row == "stream") {
    stack = std::make_unique<CoreStack>(w);
  } else if (row == "engine" || row == "cli" || row == "ingest") {
    stack = std::make_unique<EngineStack>(w, row == "ingest", row == "cli");
  } else if (row == "service" || row == "service-async") {
    stack = std::make_unique<ServiceStack>(w, row == "service-async");
  } else if (row == "client") {
    stack = std::make_unique<ClientStack>(w, nullptr, env.pairs_by_push);
  } else if (row == "fleet") {
    if (env.supervisor == nullptr) {
      return Status::FailedPrecondition("the fleet row needs a supervisor");
    }
    stack = std::make_unique<ClientStack>(w, env.supervisor, env.pairs_by_push);
  } else {
    return Status::InvalidArgument("unknown ledger row '" + row + "'");
  }
  return StatusOr<std::unique_ptr<Stack>>(std::move(stack));
}

}  // namespace perfbench
