// E7 — Temporal machinery scalability (Rules 2 and 7): many outstanding
// PLUS expiries, firing them by advancing simulated time, and the
// engine-level duration chain (activation -> PLUS -> forced deactivation)
// against the DirectEnforcer's expiry heap.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "event/event_detector.h"

namespace sentinel {
namespace {

void BM_Temporal_PlusScheduleAndFire(benchmark::State& state) {
  const int pending = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    SimulatedClock clock(benchutil::Noon());
    EventDetector detector(&clock);
    const EventId a = *detector.DefinePrimitive("a");
    const EventId plus = *detector.DefinePlus("plus", a, kMinute);
    const Symbol n = detector.symbols().Intern("n");
    uint64_t fired = 0;
    detector.Subscribe(plus, [&fired](const Occurrence&) { ++fired; });
    state.ResumeTiming();

    for (int i = 0; i < pending; ++i) {
      clock.Advance(3);  // Offset expiries; odd microsecond spacing.
      benchmark::DoNotOptimize(detector.Raise(a, {{n, Value(int64_t{i})}}));
    }
    detector.AdvanceTo(clock.Now() + 2 * kMinute, &clock);
    if (fired != static_cast<uint64_t>(pending)) {
      state.SkipWithError("missed expiries");
    }
  }
  state.counters["pending"] = pending;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          pending);
}
BENCHMARK(BM_Temporal_PlusScheduleAndFire)->Arg(100)->Arg(1000)->Arg(10000)
    ->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_Temporal_CancelHalf(benchmark::State& state) {
  const int pending = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    SimulatedClock clock(benchutil::Noon());
    EventDetector detector(&clock);
    const EventId a = *detector.DefinePrimitive("a");
    const EventId plus = *detector.DefinePlus("plus", a, kMinute);
    const Symbol parity = detector.symbols().Intern("parity");
    for (int i = 0; i < pending; ++i) {
      clock.Advance(3);
      (void)detector.Raise(a, {{parity, Value(int64_t{i % 2})}});
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        detector.CancelPendingPlus(plus, {{parity, Value(int64_t{0})}}));
    detector.AdvanceTo(clock.Now() + 2 * kMinute, &clock);
  }
  state.counters["pending"] = pending;
}
BENCHMARK(BM_Temporal_CancelHalf)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// Engine-level duration chain: N activations with a 30min bound, then one
// AdvanceTo that expires all of them (rule-driven forced deactivation).
Policy DurationPolicy(int users) {
  Policy policy("durations");
  RoleSpec role;
  role.name = "OnCall";
  role.max_activation = 30 * kMinute;
  (void)policy.AddRole(std::move(role));
  for (int i = 0; i < users; ++i) {
    UserSpec user;
    user.name = SyntheticUserName(i);
    user.assignments.insert("OnCall");
    (void)policy.AddUser(std::move(user));
  }
  return policy;
}

void BM_Temporal_EngineDurationExpiryWave(benchmark::State& state) {
  const int users = static_cast<int>(state.range(0));
  const Policy policy = DurationPolicy(users);
  for (auto _ : state) {
    state.PauseTiming();
    benchutil::EngineUnderTest sut(policy);
    for (int i = 0; i < users; ++i) {
      const std::string name = SyntheticUserName(i);
      (void)sut.engine->CreateSession(name, "s" + std::to_string(i));
      sut.clock->Advance(3);
      (void)sut.engine->AddActiveRole(name, "s" + std::to_string(i),
                                      "OnCall");
    }
    state.ResumeTiming();
    sut.engine->AdvanceBy(31 * kMinute);
    if (sut.engine->rbac().db().ActiveSessionCount("OnCall") != 0) {
      state.SkipWithError("expiries missed");
    }
  }
  state.counters["activations"] = users;
}
BENCHMARK(BM_Temporal_EngineDurationExpiryWave)->Arg(100)->Arg(1000)
    ->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_Temporal_BaselineDurationExpiryWave(benchmark::State& state) {
  const int users = static_cast<int>(state.range(0));
  const Policy policy = DurationPolicy(users);
  for (auto _ : state) {
    state.PauseTiming();
    benchutil::BaselineUnderTest sut(policy);
    for (int i = 0; i < users; ++i) {
      const std::string name = SyntheticUserName(i);
      (void)sut.enforcer->CreateSession(name, "s" + std::to_string(i));
      sut.clock->Advance(3);
      (void)sut.enforcer->AddActiveRole(name, "s" + std::to_string(i),
                                        "OnCall");
    }
    state.ResumeTiming();
    sut.enforcer->AdvanceTo(sut.enforcer->Now() + 31 * kMinute);
    if (sut.enforcer->rbac().db().ActiveSessionCount("OnCall") != 0) {
      state.SkipWithError("expiries missed");
    }
  }
  state.counters["activations"] = users;
}
BENCHMARK(BM_Temporal_BaselineDurationExpiryWave)->Arg(100)->Arg(1000)
    ->Arg(5000)->Unit(benchmark::kMillisecond);

// One early deactivation among N pending expiries spread over 50 duration
// roles: each iteration drops one activation (cancelling its expiry) and
// re-adds it (scheduling a fresh one). The drop should cost what the
// activation owns, not grow with N.
Policy DurationRolesPolicy(int roles, int users) {
  Policy policy("duration-roles");
  for (int r = 0; r < roles; ++r) {
    RoleSpec role;
    role.name = "Dur" + std::to_string(r);
    role.max_activation = 30 * kMinute;
    (void)policy.AddRole(std::move(role));
  }
  for (int i = 0; i < users; ++i) {
    UserSpec user;
    user.name = SyntheticUserName(i);
    user.assignments.insert("Dur" + std::to_string(i % roles));
    (void)policy.AddUser(std::move(user));
  }
  return policy;
}

void BM_Temporal_EngineDeactivateAmongPendingExpiries(
    benchmark::State& state) {
  constexpr int kRoles = 50;
  const int pending = static_cast<int>(state.range(0));
  benchutil::EngineUnderTest sut(DurationRolesPolicy(kRoles, pending));
  for (int i = 0; i < pending; ++i) {
    const std::string name = SyntheticUserName(i);
    const std::string session = "s" + std::to_string(i);
    (void)sut.engine->CreateSession(name, session);
    (void)sut.engine->AddActiveRole(name, session,
                                    "Dur" + std::to_string(i % kRoles));
  }
  if (sut.engine->detector().pending_timer_count() <
      static_cast<size_t>(pending)) {
    state.SkipWithError("activations missing");
  }
  const std::string user = SyntheticUserName(0);
  for (auto _ : state) {
    if (!sut.engine->DropActiveRole(user, "s0", "Dur0").allowed ||
        !sut.engine->AddActiveRole(user, "s0", "Dur0").allowed) {
      state.SkipWithError("drop or re-add refused");
      break;
    }
  }
  state.counters["pending"] = pending;
}
BENCHMARK(BM_Temporal_EngineDeactivateAmongPendingExpiries)->Arg(100)
    ->Arg(1000)->Arg(10000)->Unit(benchmark::kMicrosecond);

// Absolute (calendar) events: advance a month with k daily shift roles.
void BM_Temporal_ShiftBoundariesMonth(benchmark::State& state) {
  const int roles = static_cast<int>(state.range(0));
  PolicyGenParams params;
  params.seed = 3;
  params.num_roles = roles;
  params.num_users = 1;
  params.shift_frac = 1.0;
  params.assignments_per_user = 0;
  const Policy policy = GeneratePolicy(params);
  for (auto _ : state) {
    state.PauseTiming();
    benchutil::EngineUnderTest sut(policy);
    state.ResumeTiming();
    sut.engine->AdvanceBy(30 * kDay);
  }
  state.counters["shift_roles"] = roles;
  state.counters["boundaries"] = roles * 30.0 * 2;
}
BENCHMARK(BM_Temporal_ShiftBoundariesMonth)->Arg(10)->Arg(50)->Arg(200)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sentinel

BENCHMARK_MAIN();
