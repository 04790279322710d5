// Update-churn latency: CheckAccess latency on a warm key while a
// sustained stream of pauseless policy swaps lands:
//
//   {0}  no churn — the baseline the 2x acceptance bound is measured from.
//   {1}  swap churn — each update is prepared once off the shard threads
//        and committed as one small envelope per shard (flip + affected-
//        rule regenerate); warm verdicts for untouched keys keep their
//        stamps and keep hitting.
//   {2}  wake-only control — a thread wakes at the same cadence and does
//        NOTHING. On few-core hosts every wake evicts the measured thread
//        for a scheduler timeslice, so this arm is the latency floor for
//        ANY concurrent admin activity; the swap-correlated overhead of
//        arm 1 is its p99 minus this arm's, not minus the idle baseline.
//
// The churn thread applies alternating permission-toggle updates to a role
// the measured key never touches, at a steady ~500 updates/s (2ms cadence)
// — orders of magnitude beyond any real admin stream, but paced, so the
// measurement reads update-correlated LATENCY, not CPU starvation from a
// busy-spinning admin loop. Reported like bench_fastpath: ns/op per
// 64-call batch, p50/p99 as counters (the numbers BENCH_PR9.json quotes),
// plus the observed swap count and hit fraction.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "workload/scenario_gen.h"

namespace sentinel {
namespace {

constexpr int kBatch = 64;

/// The default synthetic enterprise (50 roles, 100 users, hierarchy, SoD)
/// plus a dedicated `reader` role for the measured key — realistic policy
/// bulk for each swap to validate and diff. The churn stream toggles a
/// permission on a synthetic
/// role the measured key never touches (WithToggledPermission picks the
/// first role in name order: "R0000" sorts before "reader").
Policy ChurnPolicy() {
  PolicyGenParams params;
  Policy policy = GeneratePolicy(params);
  RoleSpec reader;
  reader.name = "reader";
  reader.permissions.insert(Permission{"read", "ledger"});
  (void)policy.AddRole(std::move(reader));
  UserSpec user;
  user.name = "alice";
  user.assignments.insert("reader");
  (void)policy.AddUser(std::move(user));
  return policy;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t index = static_cast<size_t>(
      p / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

void BM_CheckAccess_UnderUpdateChurn(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const bool churn = mode == 1;
  const bool wake_only = mode == 2;

  ServiceConfig config;
  config.num_shards = 2;
  config.start_time = benchutil::Noon();
  config.decision_cache_capacity = 1024;
  config.decision_cache_fastpath = false;
  auto service = std::make_unique<AuthorizationService>(config);
  const Policy base = ChurnPolicy();
  if (!service->LoadPolicy(base).ok()) std::abort();
  (void)service->CreateSession("alice", "s1");
  (void)service->AddActiveRole("alice", "s1", "reader");

  const AccessRequest request{"alice", "s1", "read", "ledger", ""};
  if (!service->CheckAccess(request).allowed) std::abort();
  if (!service->CheckAccess(request).allowed) std::abort();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> updates{0};
  std::thread churner;
  if (churn) {
    churner = std::thread([&] {
      const Policy a = base;
      auto toggled = WithToggledPermission(base, /*salt=*/0);
      if (!toggled.ok()) std::abort();
      const Policy b = *std::move(toggled);
      bool flip = true;
      while (!stop.load(std::memory_order_acquire)) {
        if (service->ApplyPolicyUpdate(flip ? b : a).ok()) {
          updates.fetch_add(1, std::memory_order_relaxed);
        }
        flip = !flip;
        // Steady cadence (~500 updates/s — orders of magnitude beyond any
        // real admin stream): a sustained stream, not a busy-spinning admin
        // saturating the shard threads (which would measure CPU contention,
        // not the update discipline).
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  } else if (wake_only) {
    churner = std::thread([&] {
      while (!stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }

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

  stop.store(true, std::memory_order_release);
  if (churner.joinable()) churner.join();

  const double total = static_cast<double>(state.iterations()) * kBatch;
  state.SetItemsProcessed(static_cast<int64_t>(total));
  std::sort(samples.begin(), samples.end());
  state.counters["p50_ns"] = Percentile(samples, 50);
  state.counters["p99_ns"] = Percentile(samples, 99);
  state.counters["updates"] = static_cast<double>(updates.load());
  // The churn arm's warm key must KEEP hitting across swaps (its stamp
  // only moves when the pool generation does — and then one miss refills
  // it).
  ServiceStats stats = service->Stats();
  state.counters["hit_frac"] =
      total == 0 ? 0.0 : static_cast<double>(stats.cache_hits) / total;
  state.counters["swaps"] = static_cast<double>(stats.policy_swaps);
  // Where the churn arm's swap time goes: build (off the shard threads —
  // free on multi-core hosts) vs commit (one envelope per shard, the only
  // part that ever queues in front of a decision).
  const telemetry::RegistrySnapshot metrics = service->Snapshot().metrics;
  const telemetry::HistogramSnapshot* build =
      metrics.FindHistogram("policy_swap_build_us");
  const telemetry::HistogramSnapshot* commit =
      metrics.FindHistogram("policy_swap_commit_us");
  if (build != nullptr && build->TotalCount() > 0) {
    state.counters["build_us_p50"] = build->Percentile(50);
  }
  if (commit != nullptr && commit->TotalCount() > 0) {
    state.counters["commit_us_p50"] = commit->Percentile(50);
  }
}
BENCHMARK(BM_CheckAccess_UnderUpdateChurn)
    ->Arg(0)  // Baseline: no update stream.
    ->Arg(1)  // Swap churn: pauseless swap per update.
    ->Arg(2)  // Wake-only control: same cadence, no updates.
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace sentinel

BENCHMARK_MAIN();
