// E5 — checkAccess latency (Rule 5 / CA1): the globalized check-access
// rule walks the session's active role set and the permission inheritance
// closure. Sweeps the number of active roles per session and permissions
// per role; engine (behind the AuthorizationService facade, submitted via
// CheckAccessBatch so bulk callers pay one boundary hop per batch) vs
// DirectEnforcer.

#include <benchmark/benchmark.h>

#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace sentinel {
namespace {

constexpr size_t kBatch = 64;

/// Flat policy: `roles` roles, each granted `perms` permissions, one user
/// assigned to all of them.
Policy FlatPolicy(int roles, int perms) {
  Policy policy("flat");
  UserSpec user;
  user.name = "u";
  for (int r = 0; r < roles; ++r) {
    RoleSpec role;
    role.name = SyntheticRoleName(r);
    for (int p = 0; p < perms; ++p) {
      role.permissions.insert(
          Permission{"op" + std::to_string(p),
                     SyntheticObjectName(r * perms + p)});
    }
    user.assignments.insert(role.name);
    (void)policy.AddRole(std::move(role));
  }
  (void)policy.AddUser(std::move(user));
  return policy;
}

void ActivateAll(AuthorizationService& service, int roles) {
  (void)service.CreateSession("u", "s1");
  for (int r = 0; r < roles; ++r) {
    (void)service.AddActiveRole("u", "s1", SyntheticRoleName(r));
  }
}

void ActivateAllBaseline(DirectEnforcer& enforcer, int roles) {
  (void)enforcer.CreateSession("u", "s1");
  for (int r = 0; r < roles; ++r) {
    (void)enforcer.AddActiveRole("u", "s1", SyntheticRoleName(r));
  }
}

/// A batch of identical worst-case requests; per-request cost is the
/// reported metric (items_processed).
std::vector<AccessRequest> RepeatRequest(const std::string& op,
                                         const std::string& obj) {
  return std::vector<AccessRequest>(kBatch,
                                    AccessRequest{"u", "s1", op, obj, ""});
}

void RunBatches(benchmark::State& state, AuthorizationService& service,
                const std::vector<AccessRequest>& batch) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        service.CheckAccessBatch(std::span<const AccessRequest>(batch)));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
  // The engine's own sampled latency histogram, scraped once at the end —
  // percentile counters ride along in the benchmark's JSON output.
  const TelemetrySnapshot snap = service.Snapshot();
  const telemetry::HistogramSnapshot* latency =
      snap.metrics.FindHistogram("decision_latency_us");
  if (latency != nullptr && latency->TotalCount() > 0) {
    state.counters["lat_p50_us"] = latency->Percentile(50);
    state.counters["lat_p99_us"] = latency->Percentile(99);
    state.counters["lat_samples"] = static_cast<double>(latency->TotalCount());
  }
}

void BM_CheckAccess_Engine_ActiveRoles(benchmark::State& state) {
  const int roles = static_cast<int>(state.range(0));
  benchutil::ServiceUnderTest sut(FlatPolicy(roles, 4));
  ActivateAll(*sut.service, roles);
  // Worst case: the permission held only by the last-ordered role.
  const std::string obj = SyntheticObjectName((roles - 1) * 4 + 3);
  RunBatches(state, *sut.service, RepeatRequest("op3", obj));
  state.counters["active_roles"] = roles;
}
BENCHMARK(BM_CheckAccess_Engine_ActiveRoles)->Arg(1)->Arg(4)->Arg(16)
    ->Arg(64);

void BM_CheckAccess_Baseline_ActiveRoles(benchmark::State& state) {
  const int roles = static_cast<int>(state.range(0));
  benchutil::BaselineUnderTest sut(FlatPolicy(roles, 4));
  ActivateAllBaseline(*sut.enforcer, roles);
  const std::string obj = SyntheticObjectName((roles - 1) * 4 + 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sut.enforcer->CheckAccess("s1", "op3", obj));
  }
  state.counters["active_roles"] = roles;
}
BENCHMARK(BM_CheckAccess_Baseline_ActiveRoles)->Arg(1)->Arg(4)->Arg(16)
    ->Arg(64);

void BM_CheckAccess_Engine_PermsPerRole(benchmark::State& state) {
  const int perms = static_cast<int>(state.range(0));
  benchutil::ServiceUnderTest sut(FlatPolicy(4, perms));
  ActivateAll(*sut.service, 4);
  const std::string obj = SyntheticObjectName(3 * perms + perms - 1);
  RunBatches(state, *sut.service,
             RepeatRequest("op" + std::to_string(perms - 1), obj));
  state.counters["perms_per_role"] = perms;
}
BENCHMARK(BM_CheckAccess_Engine_PermsPerRole)->Arg(2)->Arg(8)->Arg(32)
    ->Arg(128);

void BM_CheckAccess_Engine_Denied(benchmark::State& state) {
  benchutil::ServiceUnderTest sut(FlatPolicy(8, 4));
  ActivateAll(*sut.service, 8);
  // Known op/object, but no grant matches: full scan, then deny.
  RunBatches(state, *sut.service,
             RepeatRequest("op0", SyntheticObjectName(1)));
}
BENCHMARK(BM_CheckAccess_Engine_Denied);

void BM_CheckAccess_Baseline_Denied(benchmark::State& state) {
  benchutil::BaselineUnderTest sut(FlatPolicy(8, 4));
  ActivateAllBaseline(*sut.enforcer, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sut.enforcer->CheckAccess("s1", "op0", SyntheticObjectName(1)));
  }
}
BENCHMARK(BM_CheckAccess_Baseline_Denied);

// Repeat-heavy workload: a small working set of distinct (op, obj) pairs
// cycled through every batch — the access pattern the decision cache is
// built for. Arg is the cache capacity (0 = cache off), so consecutive
// rows are the uncached/cached A/B at identical request streams.
void BM_CheckAccess_Engine_RepeatHeavy(benchmark::State& state) {
  const size_t capacity = static_cast<size_t>(state.range(0));
  constexpr int kRoles = 16;
  constexpr int kPerms = 4;
  benchutil::ServiceUnderTest sut(FlatPolicy(kRoles, kPerms), 1,
                                  benchutil::Noon(), capacity);
  ActivateAll(*sut.service, kRoles);
  // 16 distinct requests spread across the role set, repeated to kBatch.
  std::vector<AccessRequest> batch;
  batch.reserve(kBatch);
  for (size_t i = 0; i < kBatch; ++i) {
    const int slot = static_cast<int>(i % 16);
    const int role = slot * kRoles / 16;
    const int perm = slot % kPerms;
    batch.push_back(AccessRequest{
        "u", "s1", "op" + std::to_string(perm),
        SyntheticObjectName(role * kPerms + perm), ""});
  }
  RunBatches(state, *sut.service, batch);
  state.counters["cache_capacity"] = static_cast<double>(capacity);
  const ServiceStats stats = sut.service->Stats();
  const uint64_t lookups = stats.cache_hits + stats.cache_misses;
  state.counters["cache_hit_rate"] =
      lookups == 0 ? 0.0
                   : static_cast<double>(stats.cache_hits) /
                         static_cast<double>(lookups);
}
BENCHMARK(BM_CheckAccess_Engine_RepeatHeavy)->Arg(0)->Arg(1024);

// Deep hierarchy: permission only at the bottom; the active role is the
// top. CheckAccess walks the junior closure.
void BM_CheckAccess_Engine_HierarchyDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  Policy policy("deep");
  RoleSpec bottom;
  bottom.name = "L0";
  bottom.permissions.insert(Permission{"read", "leaf"});
  (void)policy.AddRole(std::move(bottom));
  for (int i = 1; i <= depth; ++i) {
    RoleSpec role;
    role.name = "L" + std::to_string(i);
    role.juniors.insert("L" + std::to_string(i - 1));
    (void)policy.AddRole(std::move(role));
  }
  UserSpec user;
  user.name = "u";
  user.assignments.insert("L" + std::to_string(depth));
  (void)policy.AddUser(std::move(user));

  benchutil::ServiceUnderTest sut(policy);
  (void)sut.service->CreateSession("u", "s1");
  (void)sut.service->AddActiveRole("u", "s1", "L" + std::to_string(depth));
  RunBatches(state, *sut.service, RepeatRequest("read", "leaf"));
  state.counters["depth"] = depth;
}
BENCHMARK(BM_CheckAccess_Engine_HierarchyDepth)->Arg(1)->Arg(4)->Arg(16)
    ->Arg(64);

}  // namespace
}  // namespace sentinel

BENCHMARK_MAIN();
