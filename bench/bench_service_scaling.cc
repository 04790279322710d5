// Service scaling — aggregate CheckAccess throughput of the sharded
// AuthorizationService at 1/2/4/8 shard threads, driven through the
// batch API (one envelope per involved shard per batch: all but the last
// cross a mailbox, and the caller runs the last itself while the other
// shards work). The per-shard engines never share request-path state, so
// on a machine with enough cores throughput scales with the shard count;
// the `shards` counter and items_per_second make the scaling curve
// directly readable. At one shard a single caller runs every envelope on
// its own thread, so /1 is also the reference with no thread crossing.

#include <benchmark/benchmark.h>

#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace sentinel {
namespace {

constexpr int kUsers = 64;
constexpr int kRoles = 12;
constexpr int kPerms = 6;
constexpr int kActiveRoles = 8;
constexpr size_t kBatch = 1024;

/// Every user is assigned all roles; each role holds kPerms permissions.
Policy ScalingPolicy() {
  Policy policy("service-scaling");
  for (int r = 0; r < kRoles; ++r) {
    RoleSpec role;
    role.name = SyntheticRoleName(r);
    for (int p = 0; p < kPerms; ++p) {
      role.permissions.insert(Permission{
          "op" + std::to_string(p), SyntheticObjectName(r * kPerms + p)});
    }
    (void)policy.AddRole(std::move(role));
  }
  for (int u = 0; u < kUsers; ++u) {
    UserSpec user;
    user.name = SyntheticUserName(u);
    for (int r = 0; r < kRoles; ++r) {
      user.assignments.insert(SyntheticRoleName(r));
    }
    (void)policy.AddUser(std::move(user));
  }
  return policy;
}

std::string SessionOf(int user) { return "sess" + std::to_string(user); }

/// One session per user with kActiveRoles activations — the per-shard
/// working set the check path walks.
void ActivateSessions(AuthorizationService& service) {
  for (int u = 0; u < kUsers; ++u) {
    const std::string user = SyntheticUserName(u);
    (void)service.CreateSession(user, SessionOf(u));
    for (int r = 0; r < kActiveRoles; ++r) {
      (void)service.AddActiveRole(user, SessionOf(u), SyntheticRoleName(r));
    }
  }
}

/// Round-robin request pool: every batch mixes all users (and so touches
/// every shard); the target permission is held by the last activated role —
/// the worst-case scan.
std::vector<AccessRequest> BuildRequestPool() {
  std::vector<AccessRequest> pool;
  pool.reserve(kBatch);
  const std::string op = "op" + std::to_string(kPerms - 1);
  const std::string obj =
      SyntheticObjectName((kActiveRoles - 1) * kPerms + kPerms - 1);
  for (size_t i = 0; i < kBatch; ++i) {
    const int u = static_cast<int>(i % kUsers);
    pool.push_back(
        AccessRequest{SyntheticUserName(u), SessionOf(u), op, obj, ""});
  }
  return pool;
}

void RunBatches(benchmark::State& state, AuthorizationService& service) {
  ActivateSessions(service);
  const std::vector<AccessRequest> pool = BuildRequestPool();
  uint64_t allowed = 0;
  for (auto _ : state) {
    const std::vector<AccessDecision> decisions =
        service.CheckAccessBatch(std::span<const AccessRequest>(pool));
    for (const AccessDecision& decision : decisions) {
      allowed += decision.allowed ? 1 : 0;
    }
    benchmark::DoNotOptimize(allowed);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBatch));
  state.counters["allowed_frac"] =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(allowed) /
                static_cast<double>(state.iterations() * kBatch);
}

void BM_Service_Sharded(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  benchutil::ServiceUnderTest sut(ScalingPolicy(), shards);
  RunBatches(state, *sut.service);
  state.counters["shards"] = shards;
}
BENCHMARK(BM_Service_Sharded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sentinel

BENCHMARK_MAIN();
