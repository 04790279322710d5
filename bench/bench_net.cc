// End-to-end wire benchmarks: a real WireServer (epoll reactor) on a
// loopback socket, measured from the client side of the socket — TCP,
// framing, batching and the service all included. Two families:
//
// BM_Net_ClosedLoop — Args({fastpath, batch}): one closed-loop client.
//   batch=1 sends one kCheckRequest and waits (pure RTT: syscalls + wire
//   codec + one reactor sweep + one service batch); batch=32 pipelines 32
//   frames before the first read, which the reactor folds into one
//   CheckAccessBatch call — amortizing the per-sweep cost exactly the way
//   the protocol is designed to. The fastpath arm turns the PR-6 zero-hop
//   cache on underneath, showing how much of the wire RTT the service
//   decision itself was. p50_us/p99_us are percentiles of per-request RTT
//   samples (RTT is tens of microseconds; the clock reads around each call
//   are noise).
//
// BM_Net_SaturatedShard — Args({policy}): the overload contract observed
//   *through the wire*. The reactor itself is a single service producer
//   that blocks inline on each folded batch, so wire traffic alone cannot
//   overfill a mailbox — instead 8 in-process producer threads saturate
//   the one-shard service (the PR-5 regime) while a wire client pipelines
//   bursts through the reactor and tallies what comes back. policy 0 =
//   unbounded mailbox + a 500us deadline on every check (block-style: wire
//   batches queue behind the stampede and expire when late; set-up session
//   ops carry no budget and wait for the shard); policy 1 = capacity-4
//   mailbox, kShed (the wire batch's envelope is refused at admission and
//   the whole chunk comes back kOverloaded). decided/overloaded fractions
//   and the burst RTT percentiles show a remote caller seeing exactly the
//   typed kOverloaded verdicts an in-process caller would.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "net/client.h"
#include "net/server.h"

namespace sentinel {
namespace {

constexpr int kUsers = 16;

Policy FlatPolicy() {
  Policy policy("net-bench");
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

struct Harness {
  std::unique_ptr<AuthorizationService> service;
  std::unique_ptr<net::WireServer> server;

  explicit Harness(ServiceConfig config) {
    service = std::make_unique<AuthorizationService>(config);
    if (!service->LoadPolicy(FlatPolicy()).ok()) std::abort();
    for (int u = 0; u < kUsers; ++u) {
      if (!service->CreateSession(SyntheticUserName(u), SessionOf(u)).ok() ||
          !service->AddActiveRole(SyntheticUserName(u), SessionOf(u), "worker")
               .ok()) {
        std::abort();
      }
    }
    server = std::make_unique<net::WireServer>(service.get(),
                                               net::ServerConfig{});
    if (!server->Start().ok()) std::abort();
  }
};

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t index = static_cast<size_t>(
      p / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void BM_Net_ClosedLoop(benchmark::State& state) {
  const bool fastpath = state.range(0) != 0;
  const int batch = static_cast<int>(state.range(1));

  ServiceConfig config;
  config.num_shards = 1;
  config.start_time = benchutil::Noon();
  if (fastpath) {
    config.decision_cache_capacity = 1024;
    config.decision_cache_fastpath = true;
  }
  Harness harness(config);
  auto connected =
      net::WireClient::Connect("127.0.0.1", harness.server->port());
  if (!connected.ok()) std::abort();
  auto client = std::move(connected).value();

  std::vector<AccessRequest> window(
      static_cast<size_t>(batch),
      AccessRequest{SyntheticUserName(0), SessionOf(0), "read", "ledger",
                    ""});
  // Warm the decision cache so the fastpath arm measures hits.
  if (!client->CheckBatch(window).ok()) std::abort();

  std::vector<double> rtt_us;
  int64_t answered = 0;
  for (auto _ : state) {
    const int64_t before = NowUs();
    if (batch == 1) {
      auto decision = client->Check(window[0]);
      if (!decision.ok() || !decision.value().allowed) std::abort();
    } else {
      auto decisions = client->CheckBatch(window);
      if (!decisions.ok()) std::abort();
    }
    const double rtt =
        static_cast<double>(NowUs() - before) / static_cast<double>(batch);
    rtt_us.push_back(rtt);
    answered += batch;
  }
  std::sort(rtt_us.begin(), rtt_us.end());
  state.counters["p50_us"] = Percentile(rtt_us, 50.0);
  state.counters["p99_us"] = Percentile(rtt_us, 99.0);
  state.SetItemsProcessed(answered);
}
BENCHMARK(BM_Net_ClosedLoop)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 32})
    ->Args({1, 32})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_Net_SaturatedShard(benchmark::State& state) {
  const bool shed = state.range(0) != 0;
  constexpr int kSaturators = 8;
  constexpr int kBurst = 64;
  constexpr int kBurstsPerEpisode = 40;

  ServiceConfig config;
  config.num_shards = 1;
  config.start_time = benchutil::Noon();
  if (shed) {
    config.mailbox_capacity = 4;
    config.overload_policy = OverloadPolicy::kShed;
  }
  // Block-style with bounded waiting: the budget rides on each check (the
  // wire carries it), so the set-up's session ops are never refused.
  const Duration deadline = shed ? 0 : 500;  // us
  Harness harness(config);

  // In-process stampede keeping the shard mailbox at its bound for the
  // whole run; its own verdicts are not the measurement.
  std::atomic<bool> stop_saturators{false};
  std::vector<std::thread> saturators;
  for (int s = 0; s < kSaturators; ++s) {
    saturators.emplace_back([&, s] {
      const int u = s % kUsers;
      const AccessRequest request{SyntheticUserName(u), SessionOf(u), "read",
                                  "ledger", "", deadline};
      while (!stop_saturators.load(std::memory_order_acquire)) {
        (void)harness.service->CheckAccess(request);
      }
    });
  }

  auto connected =
      net::WireClient::Connect("127.0.0.1", harness.server->port());
  if (!connected.ok()) std::abort();
  auto client = std::move(connected).value();
  std::vector<AccessRequest> burst(
      kBurst, AccessRequest{SyntheticUserName(0), SessionOf(0), "read",
                            "ledger", "", deadline});

  uint64_t decided = 0, overloaded = 0;
  std::vector<double> burst_rtt_us;
  for (auto _ : state) {
    for (int b = 0; b < kBurstsPerEpisode; ++b) {
      const int64_t before = NowUs();
      auto decisions = client->CheckBatch(burst);
      burst_rtt_us.push_back(static_cast<double>(NowUs() - before));
      if (!decisions.ok()) std::abort();
      for (const AccessDecision& decision : decisions.value()) {
        if (decision.outcome == AccessOutcome::kDecided) {
          ++decided;
        } else {
          ++overloaded;
        }
      }
    }
  }
  stop_saturators.store(true, std::memory_order_release);
  for (std::thread& thread : saturators) thread.join();

  std::sort(burst_rtt_us.begin(), burst_rtt_us.end());
  const double answered = static_cast<double>(decided + overloaded);
  state.counters["decided_frac"] =
      answered > 0 ? static_cast<double>(decided) / answered : 0.0;
  state.counters["overloaded_frac"] =
      answered > 0 ? static_cast<double>(overloaded) / answered : 0.0;
  state.counters["burst_p50_us"] = Percentile(burst_rtt_us, 50.0);
  state.counters["burst_p99_us"] = Percentile(burst_rtt_us, 99.0);
  state.SetItemsProcessed(static_cast<int64_t>(answered));
}
BENCHMARK(BM_Net_SaturatedShard)
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sentinel

BENCHMARK_MAIN();
