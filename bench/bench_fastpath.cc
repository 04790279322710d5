// Cached-hit A/B: the same warm (session, op, object) key answered through
// the two hit paths, one closed-loop caller against one shard:
//
//   {0}  engine-cache hit — the engine's own decision cache replays the
//        verdict. The one closed-loop caller always finds its shard idle,
//        so the envelope runs inline on the caller's thread under the
//        shard's owner lock and crosses no mailbox: this arm measures the
//        inline dispatch, not a mailbox round trip.
//   {1}  zero-hop hit — the caller probes the shard's published seqlock
//        snapshot and reconstructs the verdict in place. No hop, no lock.
//
// Latency is what this path exists for, so besides google-benchmark's own
// per-iteration timing the inner loop records ns/op per 64-call batch
// (batching keeps the clock reads out of the measured ops) and reports the
// p50/p99 of those samples as counters — the numbers BENCH_PR6.json quotes.
// hit_frac keeps the arms honest: both must replay from a cache, not
// re-derive.
//
// BM_Service_CachedHitUnderChurn/<rate> runs the zero-hop arm while a
// background thread logs other users in and out at <rate> logins/s
// (CreateSession, AddActiveRole, DeleteSession on the same shard). Those
// logins must not retire the warm key's entry: hit_frac is fast-path hits
// over probes, and the five fallback_* counters say why the rest crossed
// the mailbox. The thread stops and joins before the arm returns.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stop_token>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"

namespace sentinel {
namespace {

constexpr int kBatch = 64;
constexpr int kChurnUsers = 16;

std::string ChurnUser(int i) { return "churn" + std::to_string(i); }

/// alice reads the ledger through "reader"; `churn_users` more users hold
/// the same role, for the churn arm's background logins.
Policy HotKeyPolicy(int churn_users) {
  Policy policy("fastpath-bench");
  RoleSpec role;
  role.name = "reader";
  role.permissions.insert(Permission{"read", "ledger"});
  (void)policy.AddRole(std::move(role));
  std::vector<std::string> users = {"alice"};
  for (int i = 0; i < churn_users; ++i) users.push_back(ChurnUser(i));
  for (std::string& name : users) {
    UserSpec user;
    user.name = std::move(name);
    user.assignments.insert("reader");
    (void)policy.AddUser(std::move(user));
  }
  return policy;
}

const AccessRequest kHotRequest{"alice", "s1", "read", "ledger", ""};

/// One threaded shard with kHotRequest's key warm: the first call misses
/// and fills, the second proves the replay.
std::unique_ptr<AuthorizationService> WarmService(bool fastpath,
                                                  int churn_users) {
  ServiceConfig config;
  config.num_shards = 1;
  config.synchronous = false;
  config.start_time = benchutil::Noon();
  config.decision_cache_capacity = 1024;
  config.decision_cache_fastpath = fastpath;
  auto service = std::make_unique<AuthorizationService>(config);
  if (!service->LoadPolicy(HotKeyPolicy(churn_users)).ok()) std::abort();
  (void)service->CreateSession("alice", "s1");
  (void)service->AddActiveRole("alice", "s1", "reader");
  if (!service->CheckAccess(kHotRequest).allowed) std::abort();
  if (!service->CheckAccess(kHotRequest).allowed) std::abort();
  return service;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t index = static_cast<size_t>(
      p / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

/// The measured loop: kBatch calls of kHotRequest per iteration; reports
/// the p50/p99 of per-batch ns/op.
void TimeHotChecks(benchmark::State& state, AuthorizationService& service) {
  std::vector<double> samples;
  samples.reserve(1 << 16);
  for (auto _ : state) {
    const auto begin = std::chrono::steady_clock::now();
    for (int i = 0; i < kBatch; ++i) {
      benchmark::DoNotOptimize(service.CheckAccess(kHotRequest));
    }
    const auto end = std::chrono::steady_clock::now();
    samples.push_back(
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
                .count()) /
        kBatch);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBatch);
  std::sort(samples.begin(), samples.end());
  state.counters["p50_ns"] = Percentile(samples, 50);
  state.counters["p99_ns"] = Percentile(samples, 99);
}

void BM_Service_CachedHit(benchmark::State& state) {
  const bool fastpath = state.range(0) != 0;
  auto service = WarmService(fastpath, 0);
  TimeHotChecks(state, *service);

  // Replays answered from a cache (either one), as a fraction of the
  // measured calls. Both arms must sit at ~1.0 for the A/B to mean
  // anything; the fast arm's hits must be *fast-path* hits specifically.
  const double total = static_cast<double>(state.iterations()) * kBatch;
  ServiceStats stats = service->Stats();
  const uint64_t cached = fastpath ? stats.fastpath_hits : stats.cache_hits;
  state.counters["hit_frac"] =
      total == 0 ? 0.0 : static_cast<double>(cached) / total;
}
BENCHMARK(BM_Service_CachedHit)
    ->Arg(0)  // Engine-cache hit, run inline on the idle shard.
    ->Arg(1)  // Zero-hop hit: caller-side snapshot probe.
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_Service_CachedHitUnderChurn(benchmark::State& state) {
  const auto period = std::chrono::nanoseconds(1'000'000'000 / state.range(0));
  auto service = WarmService(/*fastpath=*/true, kChurnUsers);

  // Logins at a fixed rate: each one runs to completion before the next is
  // due, and a late login does not shift the schedule of later ones.
  std::atomic<uint64_t> logins{0};
  std::atomic<uint64_t> failures{0};
  std::jthread churn([&](std::stop_token stop) {
    auto next = std::chrono::steady_clock::now();
    for (int i = 0; !stop.stop_requested(); ++i) {
      std::this_thread::sleep_until(next);
      next += period;
      const std::string user = ChurnUser(i % kChurnUsers);
      const std::string session = "cs-" + user;
      const bool ok = service->CreateSession(user, session).ok() &&
                      service->AddActiveRole(user, session, "reader").ok() &&
                      service->DeleteSession(session).ok();
      (ok ? logins : failures).fetch_add(1, std::memory_order_relaxed);
    }
  });

  const ServiceStats before = service->Stats();
  const uint64_t logins_before = logins.load();
  const auto start = std::chrono::steady_clock::now();
  TimeHotChecks(state, *service);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  const uint64_t churned = logins.load() - logins_before;
  const ServiceStats after = service->Stats();
  churn.request_stop();
  churn.join();
  if (failures.load() != 0) state.SkipWithError("a churn login failed");

  // Every probe of the measured loop is a hit or one of five fallbacks.
  const auto delta = [&](uint64_t ServiceStats::*field) {
    return static_cast<double>(after.*field - before.*field);
  };
  const double hits = delta(&ServiceStats::fastpath_hits);
  double probes = hits;
  for (const auto& [name, field] :
       {std::pair{"fallback_purpose", &ServiceStats::fastpath_fallback_purpose},
        std::pair{"fallback_unknown_symbol",
                  &ServiceStats::fastpath_fallback_unknown_symbol},
        std::pair{"fallback_miss", &ServiceStats::fastpath_fallback_miss},
        std::pair{"fallback_stale", &ServiceStats::fastpath_fallback_stale},
        std::pair{"fallback_torn", &ServiceStats::fastpath_fallback_torn}}) {
    state.counters[name] = delta(field);
    probes += delta(field);
  }
  state.counters["hit_frac"] = probes == 0 ? 0.0 : hits / probes;
  state.counters["logins_per_s"] =
      elapsed.count() > 0 ? static_cast<double>(churned) / elapsed.count()
                          : 0.0;
}
BENCHMARK(BM_Service_CachedHitUnderChurn)
    ->Arg(1000)  // Logins per second.
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace sentinel

BENCHMARK_MAIN();
