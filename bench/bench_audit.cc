// Audit exporter overhead A/B: the same CheckAccess stream through one
// concurrent shard, with the durable JSONL export tap off ({0}) and on
// ({1}). The contract under test: the exporter must never stall the
// decision path — its cost on the shard thread is building one
// DecisionRecord, draining the ring tail, and a queue push; serialization
// and I/O happen on the dedicated writer thread.
//
// Like bench_fastpath, ns/op is sampled per 64-call batch and reported as
// p50/p99 counters — the numbers BENCH_PR8.json quotes (acceptance: the
// audit-on arm's p50 within 10% of off). drop_frac must be 0.0 for the
// A/B to mean anything: a dropping exporter would be "fast" by shedding.
//
// BM_Exporter_Offer isolates the producer-side cost the shard thread
// actually pays per record (queue push under the hand-off mutex), with the
// writer thread consuming concurrently.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "audit/exporter.h"
#include "bench/bench_util.h"

namespace sentinel {
namespace {

constexpr int kBatch = 64;

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t index = static_cast<size_t>(
      p / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

void BM_Service_CheckAccess_Audit(benchmark::State& state) {
  const bool audit = state.range(0) != 0;
  const std::string path = "/tmp/sentinelpp_bench_audit.jsonl";
  std::remove(path.c_str());

  // A realistic evaluation depth: the default synthetic enterprise (50
  // roles, hierarchy, SoD), one user's granted permission as the hot
  // request — a full dispatch per call, no decision cache.
  const Policy policy = GeneratePolicy(PolicyGenParams{});
  ServiceConfig config;
  config.num_shards = 1;
  config.start_time = benchutil::Noon();
  if (audit) config.audit_path = path;
  auto service = std::make_unique<AuthorizationService>(config);
  if (!service->LoadPolicy(policy).ok()) std::abort();

  // First user with an assignment; their first role's first permission.
  AccessRequest request;
  for (const auto& [name, user] : policy.users()) {
    if (user.assignments.empty()) continue;
    const RoleSpec& role = policy.roles().at(*user.assignments.begin());
    if (role.permissions.empty()) continue;
    request.user = name;
    request.session = "s-bench";
    request.operation = role.permissions.begin()->operation;
    request.object = role.permissions.begin()->object;
    (void)service->CreateSession(name, "s-bench");
    (void)service->AddActiveRole(name, "s-bench", role.name);
    break;
  }
  if (request.user.empty()) std::abort();

  std::vector<double> samples;
  samples.reserve(1 << 16);
  for (auto _ : state) {
    const auto begin = std::chrono::steady_clock::now();
    for (int i = 0; i < kBatch; ++i) {
      benchmark::DoNotOptimize(service->CheckAccess(request));
    }
    const auto end = std::chrono::steady_clock::now();
    samples.push_back(
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
                .count()) /
        kBatch);
  }

  const double total = static_cast<double>(state.iterations()) * kBatch;
  state.SetItemsProcessed(static_cast<int64_t>(total));
  std::sort(samples.begin(), samples.end());
  state.counters["p50_ns"] = Percentile(samples, 50);
  state.counters["p99_ns"] = Percentile(samples, 99);
  service->Shutdown();
  if (audit) {
    const ServiceStats stats = service->Stats();
    state.counters["drop_frac"] =
        total == 0 ? 0.0
                   : static_cast<double>(stats.audit_drops) / total;
    state.counters["exported"] = static_cast<double>(stats.audit_records);
  } else {
    state.counters["drop_frac"] = 0.0;
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_Service_CheckAccess_Audit)
    ->Arg(0)  // Export tap off: the PR-7 decision path.
    ->Arg(1)  // Export tap on: ring drain + hand-off per decision.
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_Exporter_Offer(benchmark::State& state) {
  const std::string path = "/tmp/sentinelpp_bench_offer.jsonl";
  std::remove(path.c_str());
  audit::AuditExporter::Options options;
  options.path = path;
  audit::AuditExporter exporter(options);

  // The fixed-field record a shard's tap queues: names stay symbols.
  SymbolTable symbols;
  const DecisionRecord record{.seq = 1,
                              .event = symbols.Intern("rbac.checkAccess"),
                              .user = symbols.Intern("u0042"),
                              .session = symbols.Intern("s-bench"),
                              .op = symbols.Intern("read"),
                              .object = symbols.Intern("obj13"),
                              .allowed = true,
                              .rule = symbols.Intern("CA.global")};

  for (auto _ : state) {
    exporter.Offer(audit::QueuedRecord{record, &symbols});
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  exporter.Close();
  const auto counters = exporter.counters();
  state.counters["drop_frac"] =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(counters.drops) /
                static_cast<double>(state.iterations());
  std::remove(path.c_str());
}
BENCHMARK(BM_Exporter_Offer)->Unit(benchmark::kNanosecond);

}  // namespace
}  // namespace sentinel

BENCHMARK_MAIN();
