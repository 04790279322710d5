// Fairness under saturation: a 9:1 abusive/well-behaved producer mix against
// a single shard with a small shed-mode mailbox (capacity 8). Nine producers
// hammer one principal (u0000); one producer issues requests as u0001 at the
// same closed-loop pace. Two arms, selected by Arg(0):
//
//   0  no quotas — shedding is indiscriminate, so the well-behaved producer
//      loses whenever the abusive flood happens to hold the mailbox.
//   1  u0000 pinned to 50 tokens/s (burst 4), kOnOverload — over-quota
//      envelopes are refused against the reduced bound (capacity minus the
//      reserved quarter), so the well-behaved principal keeps headroom.
//
// The counters make the fairness claim directly readable: good_decided_rps
// and good_decided_p99_us (latency of well-behaved requests that got a real
// verdict — refusals return instantly and would flatter the unfair arm)
// should improve from arm 0 to arm 1, and in arm 1 the abusive principal
// should absorb >=90% of all refusals (abusive_refusal_share).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

namespace sentinel {
namespace {

constexpr int kUsers = 2;
constexpr int kAbusiveProducers = 9;
constexpr int kPerProducer = 400;

Policy FlatPolicy() {
  Policy policy("policer-bench");
  RoleSpec role;
  role.name = "worker";
  role.permissions.insert(Permission{"read", "ledger"});
  (void)policy.AddRole(std::move(role));
  for (int u = 0; u < kUsers; ++u) {
    UserSpec user;
    user.name = SyntheticUserName(u);
    user.assignments.insert("worker");
    (void)policy.AddUser(std::move(user));
  }
  return policy;
}

std::string SessionOf(int user) { return "sess" + std::to_string(user); }

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void BM_Service_WeightedShedFairness(benchmark::State& state) {
  const bool quota_on = state.range(0) != 0;

  ServiceConfig config;
  config.num_shards = 1;
  config.start_time = benchutil::Noon();
  config.mailbox_capacity = 8;
  config.overload_policy = OverloadPolicy::kShed;
  if (quota_on) {
    config.quota_overrides.push_back(PrincipalQuota{"u0000", 50.0, 4});
    config.quota_enforcement = QuotaEnforcement::kOnOverload;
  }
  auto service = std::make_unique<AuthorizationService>(config);
  if (!service->init_status().ok()) std::abort();
  if (!service->LoadPolicy(FlatPolicy()).ok()) std::abort();
  for (int u = 0; u < kUsers; ++u) {
    (void)service->CreateSession(SyntheticUserName(u), SessionOf(u));
    (void)service->AddActiveRole(SyntheticUserName(u), SessionOf(u),
                                 "worker");
  }
  const AccessRequest abusive{SyntheticUserName(0), SessionOf(0), "read",
                              "ledger", ""};
  const AccessRequest good{SyntheticUserName(1), SessionOf(1), "read",
                           "ledger", ""};

  std::atomic<uint64_t> abusive_refused{0};
  std::atomic<uint64_t> good_decided{0};
  std::atomic<uint64_t> good_refused{0};
  std::vector<int64_t> good_latencies_us;
  std::mutex latencies_mu;
  double good_elapsed_s = 0;

  for (auto _ : state) {
    std::vector<std::thread> producers;
    producers.reserve(kAbusiveProducers + 1);
    for (int p = 0; p < kAbusiveProducers; ++p) {
      producers.emplace_back([&] {
        uint64_t refused = 0;
        for (int i = 0; i < kPerProducer; ++i) {
          if (service->CheckAccess(abusive).outcome !=
              AccessOutcome::kDecided) {
            ++refused;
          }
        }
        abusive_refused.fetch_add(refused);
      });
    }
    producers.emplace_back([&] {
      uint64_t decided = 0, refused = 0;
      std::vector<int64_t> latencies;
      latencies.reserve(kPerProducer);
      const int64_t t0 = NowUs();
      for (int i = 0; i < kPerProducer; ++i) {
        const int64_t before = NowUs();
        const AccessDecision decision = service->CheckAccess(good);
        if (decision.outcome == AccessOutcome::kDecided) {
          latencies.push_back(NowUs() - before);
          ++decided;
        } else {
          ++refused;
        }
      }
      const int64_t elapsed = NowUs() - t0;
      good_decided.fetch_add(decided);
      good_refused.fetch_add(refused);
      std::lock_guard<std::mutex> lock(latencies_mu);
      good_elapsed_s += static_cast<double>(elapsed) / 1e6;
      good_latencies_us.insert(good_latencies_us.end(), latencies.begin(),
                               latencies.end());
    });
    for (std::thread& thread : producers) thread.join();
  }

  const double total = static_cast<double>(state.iterations()) *
                       (kAbusiveProducers + 1) * kPerProducer;
  state.SetItemsProcessed(static_cast<int64_t>(total));
  std::sort(good_latencies_us.begin(), good_latencies_us.end());
  const size_t n = good_latencies_us.size();
  const int64_t p99 =
      n == 0 ? 0
             : good_latencies_us[std::min(
                   n - 1, static_cast<size_t>(0.99 * (n - 1)))];
  const uint64_t refusals = abusive_refused.load() + good_refused.load();
  const uint64_t good_answered = good_decided.load() + good_refused.load();
  state.counters["good_decided_rps"] =
      good_elapsed_s == 0 ? 0.0 : good_decided.load() / good_elapsed_s;
  state.counters["good_decided_p99_us"] = static_cast<double>(p99);
  state.counters["good_refused_frac"] =
      good_answered == 0
          ? 0.0
          : static_cast<double>(good_refused.load()) / good_answered;
  state.counters["abusive_refusal_share"] =
      refusals == 0
          ? 0.0
          : static_cast<double>(abusive_refused.load()) / refusals;
  const ServiceStats stats = service->Stats();
  state.counters["policer_refused"] =
      static_cast<double>(stats.policer_refused);
}
BENCHMARK(BM_Service_WeightedShedFairness)
    ->Arg(0)  // Indiscriminate shedding.
    ->Arg(1)  // Weighted: u0000 over-quota, refused first.
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sentinel

BENCHMARK_MAIN();
