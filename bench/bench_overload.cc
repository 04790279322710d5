// Overload behavior under saturated offered load — 16 closed-loop producer
// threads hammering a single shard, so the mailbox always holds (roughly)
// one envelope per producer. Three arms, selected by Args({capacity,
// deadline_us}):
//
//   {0, 0}    unbounded mailbox, no deadline — the pre-overload-protection
//             semantics: every request queues and waits its full turn.
//   {4, 0}    capacity 4, shed policy — requests beyond the bound are
//             answered immediately with AccessOutcome::kOverloaded.
//   {0, 500}  unbounded with a 500us deadline — requests that wait longer
//             than the budget are expired at dequeue instead of decided.
//
// items_per_second counts *answered* requests (decided + shed + expired):
// overload protection trades decided throughput for bounded latency and
// bounded memory. The decided/shed/expired fractions and the peak mailbox
// depth counters make that trade directly readable.

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

namespace sentinel {
namespace {

constexpr int kUsers = 16;
constexpr int kProducers = 16;
constexpr int kPerProducer = 400;

Policy FlatPolicy() {
  Policy policy("overload-bench");
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

void BM_Service_SaturatedOfferedLoad(benchmark::State& state) {
  const size_t capacity = static_cast<size_t>(state.range(0));
  const Duration deadline_us = state.range(1);

  ServiceConfig config;
  config.num_shards = 1;
  config.start_time = benchutil::Noon();
  config.mailbox_capacity = capacity;
  config.overload_policy =
      capacity > 0 ? OverloadPolicy::kShed : OverloadPolicy::kBlock;
  config.default_deadline = deadline_us;
  auto service = std::make_unique<AuthorizationService>(config);
  if (!service->LoadPolicy(FlatPolicy()).ok()) std::abort();
  for (int u = 0; u < kUsers; ++u) {
    (void)service->CreateSession(SyntheticUserName(u), SessionOf(u));
    (void)service->AddActiveRole(SyntheticUserName(u), SessionOf(u),
                                 "worker");
  }
  std::vector<AccessRequest> requests;
  requests.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    const int u = p % kUsers;
    requests.push_back(AccessRequest{SyntheticUserName(u), SessionOf(u),
                                     "read", "ledger", ""});
  }

  std::atomic<uint64_t> decided{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> expired{0};
  for (auto _ : state) {
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        uint64_t ok = 0, dropped = 0, late = 0;
        for (int i = 0; i < kPerProducer; ++i) {
          const AccessDecision decision = service->CheckAccess(requests[p]);
          if (decision.outcome == AccessOutcome::kDecided) {
            ++ok;
          } else if (decision.reason.find("shed") != std::string::npos) {
            ++dropped;
          } else {
            ++late;
          }
        }
        decided.fetch_add(ok);
        shed.fetch_add(dropped);
        expired.fetch_add(late);
      });
    }
    for (std::thread& thread : producers) thread.join();
  }

  const double total =
      static_cast<double>(state.iterations()) * kProducers * kPerProducer;
  state.SetItemsProcessed(static_cast<int64_t>(total));
  state.counters["decided_frac"] = total == 0 ? 0.0 : decided.load() / total;
  state.counters["shed_frac"] = total == 0 ? 0.0 : shed.load() / total;
  state.counters["expired_frac"] = total == 0 ? 0.0 : expired.load() / total;
  state.counters["peak_depth"] =
      static_cast<double>(service->MailboxPeakDepth(0));
}
BENCHMARK(BM_Service_SaturatedOfferedLoad)
    ->Args({0, 0})    // Unbounded, no deadline: pre-PR behavior.
    ->Args({4, 0})    // Bounded + shed.
    ->Args({0, 500})  // Unbounded + 500us deadline.
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sentinel

BENCHMARK_MAIN();
