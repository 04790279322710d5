// E2 — Rule-generation scaling: "large enterprises have hundreds of roles,
// which requires thousands of rules" (§1/§7). Measures full policy-load
// time and reports generated rule/event counts as the role count grows,
// for plain and constraint-rich policies, and what one engine costs at
// perfbench's service scale (BM_Load_ServiceScale), what one policy swap
// costs it (BM_Commit_ServiceScale) and what a full Validate() of that
// policy costs (BM_Validate_ServiceScale).

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <chrono>
#include <memory>

#include "bench/bench_util.h"
#include "workload/scenario_gen.h"

namespace sentinel {
namespace {

PolicyGenParams ParamsFor(int roles, bool rich) {
  PolicyGenParams params;
  params.seed = 42;
  params.num_roles = roles;
  params.num_users = roles * 2;
  if (rich) {
    params.hierarchy_prob = 0.7;
    params.ssd_sets = roles / 10 + 1;
    params.dsd_sets = roles / 10 + 1;
    params.cardinality_frac = 0.3;
    params.duration_frac = 0.2;
    params.user_cap_frac = 0.2;
  }
  return params;
}

void RunGeneration(benchmark::State& state, bool rich) {
  const int roles = static_cast<int>(state.range(0));
  const Policy policy = GeneratePolicy(ParamsFor(roles, rich));
  size_t rule_count = 0;
  int event_count = 0;
  for (auto _ : state) {
    SimulatedClock clock(benchutil::Noon());
    AuthorizationEngine engine(&clock);
    const Status status = engine.LoadPolicy(policy);
    benchmark::DoNotOptimize(status);
    rule_count = engine.rule_manager().rule_count();
    event_count = engine.detector().registry().size();
  }
  state.counters["roles"] = roles;
  state.counters["rules"] = static_cast<double>(rule_count);
  state.counters["events"] = static_cast<double>(event_count);
  state.counters["rules_per_role"] =
      static_cast<double>(rule_count) / roles;
}

void BM_Generate_Plain(benchmark::State& state) {
  RunGeneration(state, /*rich=*/false);
}
BENCHMARK(BM_Generate_Plain)->Arg(10)->Arg(50)->Arg(100)->Arg(200)->Arg(500)
    ->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_Generate_Rich(benchmark::State& state) {
  RunGeneration(state, /*rich=*/true);
}
BENCHMARK(BM_Generate_Rich)->Arg(10)->Arg(50)->Arg(100)->Arg(200)->Arg(500)
    ->Arg(1000)->Unit(benchmark::kMillisecond);

// The baseline has no rules to generate: its "load" is pure base-state
// instantiation. The gap is the cost of the paper's automation.
void BM_Generate_BaselineLoad(benchmark::State& state) {
  const int roles = static_cast<int>(state.range(0));
  const Policy policy = GeneratePolicy(ParamsFor(roles, true));
  for (auto _ : state) {
    SimulatedClock clock(benchutil::Noon());
    DirectEnforcer enforcer(&clock);
    benchmark::DoNotOptimize(enforcer.LoadPolicy(policy));
  }
  state.counters["roles"] = roles;
}
BENCHMARK(BM_Generate_BaselineLoad)->Arg(100)->Arg(500)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// Service scale: perfbench's scenario shape (4 divisions, depth 5,
// branching 3, 2,048 objects, 20,000 users).
ScenarioParams ServiceScaleParams() {
  ScenarioParams params;
  params.seed = 5101;
  params.divisions = 4;
  params.depth = 5;
  params.branching = 3;
  params.num_objects = 2048;
  params.num_users = 20000;
  params.num_requests = 0;
  return params;
}

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// The service-scale scenario loaded into one engine, then one of two
// shards' sessions set up — a session and the assigned activations for
// every even-numbered user. Counters: load_s and setup_s, and the heap the
// engine holds after set-up (heap_mib: the change in mallinfo2's in-use
// arena bytes; mmap_mib: in mmapped chunks).
void BM_Load_ServiceScale(benchmark::State& state) {
  const ScenarioParams params = ServiceScaleParams();
  const Scenario scenario = GenerateScenario(params);
  double load_s = 0, setup_s = 0, heap_mib = 0, mmap_mib = 0;
  for (auto _ : state) {
    const struct mallinfo2 before = mallinfo2();
    const Clock::time_point t0 = Clock::now();
    SimulatedClock clock(benchutil::Noon());
    auto engine = std::make_unique<AuthorizationEngine>(&clock);
    benchmark::DoNotOptimize(engine->LoadPolicy(scenario.policy));
    const Clock::time_point t1 = Clock::now();
    for (int i = 0; i < params.num_users; i += 2) {
      const UserName user = ScenarioUserName(i);
      const SessionId session = "s" + std::to_string(i);
      benchmark::DoNotOptimize(engine->CreateSession(user, session));
      const auto spec = scenario.policy.users().find(user);
      if (spec == scenario.policy.users().end()) continue;
      for (const RoleName& role : spec->second.assignments) {
        benchmark::DoNotOptimize(engine->AddActiveRole(user, session, role));
      }
    }
    const Clock::time_point t2 = Clock::now();
    const struct mallinfo2 after = mallinfo2();
    load_s += Seconds(t1 - t0);
    setup_s += Seconds(t2 - t1);
    heap_mib += (static_cast<double>(after.uordblks) -
                 static_cast<double>(before.uordblks)) / (1 << 20);
    mmap_mib += (static_cast<double>(after.hblkhd) -
                 static_cast<double>(before.hblkhd)) / (1 << 20);
  }
  const auto per_run = benchmark::Counter::kAvgIterations;
  state.counters["load_s"] = benchmark::Counter(load_s, per_run);
  state.counters["setup_s"] = benchmark::Counter(setup_s, per_run);
  state.counters["heap_mib"] = benchmark::Counter(heap_mib, per_run);
  state.counters["mmap_mib"] = benchmark::Counter(mmap_mib, per_run);
}
BENCHMARK(BM_Load_ServiceScale)->Iterations(3)->Unit(benchmark::kMillisecond);

// One policy swap on the service-scale engine: each iteration edits the
// installed generation, prepares the plan and commits it — one shard's
// share of a swap. The argument picks the edit: 0 toggles one role's
// permission (WithToggledPermission, the swap perfbench's churn runs), 1
// one user's assignment (WithToggledAssignment) and 2 a DSD set over two
// co-assigned roles (WithToggledDsd). Building the edited policy is not
// timed. Counters: prepare_us and commit_us per swap.
void BM_Commit_ServiceScale(benchmark::State& state) {
  static constexpr const char* kEdits[] = {"permission", "assignment", "dsd"};
  const int64_t edit = state.range(0);
  state.SetLabel(kEdits[edit]);
  const Scenario scenario = GenerateScenario(ServiceScaleParams());
  SimulatedClock clock(benchutil::Noon());
  AuthorizationEngine engine(&clock);
  if (!engine.LoadPolicy(scenario.policy).ok()) {
    state.SkipWithError("policy load failed");
    return;
  }
  double prepare_s = 0, commit_s = 0;
  uint64_t salt = 0;
  for (auto _ : state) {
    const std::shared_ptr<const Policy> base = engine.policy_generation();
    auto next = edit == 0   ? WithToggledPermission(*base, salt)
                : edit == 1 ? WithToggledAssignment(*base, salt)
                            : WithToggledDsd(*base, "bench-dsd");
    ++salt;
    if (!next.ok()) {
      state.SkipWithError("nothing to toggle");
      return;
    }
    const Clock::time_point t0 = Clock::now();
    auto plan =
        AuthorizationEngine::PreparePolicyUpdate(base, std::move(*next));
    const Clock::time_point t1 = Clock::now();
    if (!plan.ok() || !engine.CommitPolicyUpdate(*plan).ok()) {
      state.SkipWithError("policy swap failed");
      return;
    }
    const Clock::time_point t2 = Clock::now();
    prepare_s += Seconds(t1 - t0);
    commit_s += Seconds(t2 - t1);
  }
  const auto per_swap = benchmark::Counter::kAvgIterations;
  state.counters["prepare_us"] = benchmark::Counter(prepare_s * 1e6, per_swap);
  state.counters["commit_us"] = benchmark::Counter(commit_s * 1e6, per_swap);
}
BENCHMARK(BM_Commit_ServiceScale)
    ->ArgName("edit")
    ->DenseRange(0, 2)
    ->Unit(benchmark::kMicrosecond);

// The full Validate() of the service-scale policy, with no base to skip
// by: what LoadPolicy, the parser, replay and the DirectEnforcer oracle's
// every update pay.
void BM_Validate_ServiceScale(benchmark::State& state) {
  const Scenario scenario = GenerateScenario(ServiceScaleParams());
  for (auto _ : state) {
    const Status status = scenario.policy.Validate();
    if (!status.ok()) {
      state.SkipWithError("policy invalid");
      return;
    }
  }
}
BENCHMARK(BM_Validate_ServiceScale)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sentinel

BENCHMARK_MAIN();
