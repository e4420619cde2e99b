#include "workload.h"

#include <sys/stat.h>

#include <algorithm>

#include "data/io.h"
#include "data/profiles.h"

namespace perfbench {

namespace {

using sssj::DatasetProfile;
using sssj::Framework;
using sssj::IndexScheme;
using sssj::Status;

// Sizes are chosen so that one pass of the end-to-end stack takes
// 0.1-2 s today: long enough to time, short enough that a run holds
// several passes. The service path runs ~25-240x slower than the bare
// engine today (it walks every posting list after each push); once that
// tax is gone tenant-fleet passes shrink toward 0.1 s and a run simply
// holds more of them.
struct Spec {
  DatasetProfile profile;
  double scale;  // per tenant
  double lambda;
  std::vector<std::pair<Framework, IndexScheme>> schemes;  // one per tenant
  bool cluster_config;  // tenants run the config a cluster worker resolves
  bool text_input;      // the stream reaches the engine through a text file
  const char* top_row;
  const char* service_row;
};

bool LookupSpec(const std::string& name, Spec* spec) {
  const auto str_l2 = std::make_pair(Framework::kStreaming, IndexScheme::kL2);
  if (name == "cli-sparse") {
    *spec = {DatasetProfile::kRcv1, 4.0, 0.01, {str_l2}, false, true,
             "cli", "service"};
    return true;
  }
  if (name == "dense-async") {
    *spec = {DatasetProfile::kWebSpam, 4.0, 0.001, {str_l2}, false, false,
             "service-async", "service-async"};
    return true;
  }
  if (name == "tenant-fleet") {
    std::vector<std::pair<Framework, IndexScheme>> mix;
    for (int round = 0; round < 2; ++round) {
      mix.push_back(str_l2);
      mix.emplace_back(Framework::kStreaming, IndexScheme::kInv);
      mix.emplace_back(Framework::kStreaming, IndexScheme::kL2ap);
      mix.emplace_back(Framework::kMiniBatch, IndexScheme::kL2);
    }
    *spec = {DatasetProfile::kTweets, 0.25, 0.01, mix, true, false, "fleet",
             "service"};
    return true;
  }
  return false;
}

uint64_t TenantSeed(uint64_t seed, size_t tenant) {
  return seed * 1000003ULL + tenant + 1;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"cli-sparse", "dense-async",
                                                 "tenant-fleet"};
  return names;
}

Status DescribeWorkload(const std::string& name, Workload* out) {
  Spec spec;
  if (!LookupSpec(name, &spec)) {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  Workload w;
  w.name = name;
  w.top_row = spec.top_row;
  w.service_row = spec.service_row;
  for (size_t t = 0; t < spec.schemes.size(); ++t) {
    Tenant tenant;
    tenant.name = "tenant-" + std::to_string(t);
    tenant.wire.framework = spec.schemes[t].first;
    tenant.wire.index = spec.schemes[t].second;
    tenant.wire.theta = 0.7;
    tenant.wire.lambda = spec.lambda;
    tenant.reference.framework = tenant.wire.framework;
    tenant.reference.index = tenant.wire.index;
    tenant.reference.theta = tenant.wire.theta;
    tenant.reference.lambda = tenant.wire.lambda;
    tenant.config =
        spec.cluster_config ? tenant.wire.ToEngineConfig() : tenant.reference;
    if (!sssj::DecayParams::Make(tenant.wire.theta, tenant.wire.lambda,
                                 &tenant.params)) {
      return Status::Internal("invalid theta/lambda in workload " + name);
    }
    w.tenants.push_back(std::move(tenant));
  }
  *out = std::move(w);
  return Status::Ok();
}

Status GenerateStreams(uint64_t seed, const std::string& run_dir,
                       Workload* w) {
  Spec spec;
  if (!LookupSpec(w->name, &spec)) {
    return Status::InvalidArgument("unknown workload '" + w->name + "'");
  }
  for (size_t t = 0; t < w->tenants.size(); ++t) {
    Tenant& tenant = w->tenants[t];
    tenant.stream =
        sssj::GenerateProfile(spec.profile, spec.scale, TenantSeed(seed, t));
  }
  if (spec.text_input) {
    Status written = WriteTextFiles(run_dir, w);
    if (!written.ok()) return written;
    for (Tenant& tenant : w->tenants) {
      Status read = sssj::ReadTextStream(tenant.text_path, &tenant.stream);
      if (!read.ok()) return read;
    }
  }
  size_t longest = 0;
  for (Tenant& tenant : w->tenants) {
    tenant.prepared.clear();
    tenant.prepared.reserve(tenant.stream.size());
    for (const sssj::StreamItem& item : tenant.stream) {
      sssj::StreamItem copy;
      copy.id = tenant.prepared.size();
      copy.ts = item.ts;
      copy.vec = item.vec;
      copy.vec.Normalize();
      tenant.prepared.push_back(std::move(copy));
    }
    longest = std::max(longest, tenant.stream.size());
  }
  w->order.clear();
  for (size_t i = 0; i < longest; ++i) {
    for (size_t t = 0; t < w->tenants.size(); ++t) {
      if (i < w->tenants[t].stream.size()) {
        w->order.emplace_back(static_cast<uint32_t>(t),
                              static_cast<uint32_t>(i));
      }
    }
  }
  return Status::Ok();
}

Status WriteTextFiles(const std::string& run_dir, Workload* w) {
  for (Tenant& tenant : w->tenants) {
    if (!tenant.text_path.empty()) continue;
    const std::string path = run_dir + "/" + tenant.name + ".txt";
    Status written = sssj::WriteTextStream(tenant.stream, path);
    if (!written.ok()) return written;
    struct stat st {};
    if (::stat(path.c_str(), &st) != 0) {
      return Status::IoError("cannot stat " + path);
    }
    tenant.text_path = path;
    tenant.text_bytes = static_cast<uint64_t>(st.st_size);
  }
  return Status::Ok();
}

}  // namespace perfbench
