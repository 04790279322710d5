// E6 — Composite event detection throughput per operator (§3): raise rates
// through each Snoop operator, per consumption mode, and versus DAG depth.
// The numbers bound what any rule built from these operators can sustain.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "event/event_detector.h"

namespace sentinel {
namespace {

struct Rig {
  SimulatedClock clock{benchutil::Noon()};
  EventDetector detector{&clock};
  uint64_t detections = 0;

  void Count(EventId event) {
    detector.Subscribe(event,
                       [this](const Occurrence&) { ++detections; });
  }
};

void BM_Op_PrimitiveRaise(benchmark::State& state) {
  Rig rig;
  const EventId a = *rig.detector.DefinePrimitive("a");
  rig.Count(a);
  for (auto _ : state) {
    rig.clock.Advance(1);
    benchmark::DoNotOptimize(rig.detector.Raise(a, {}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Op_PrimitiveRaise);

void BM_Op_Filter(benchmark::State& state) {
  Rig rig;
  SymbolTable& symbols = rig.detector.symbols();
  const EventId a = *rig.detector.DefinePrimitive("a");
  const FlatParamMap hit{
      {symbols.Intern("role"), Value(symbols.Intern("R1"))}};
  const EventId f = *rig.detector.DefineFilter("f", a, hit);
  rig.Count(f);
  for (auto _ : state) {
    rig.clock.Advance(1);
    benchmark::DoNotOptimize(rig.detector.Raise(a, hit));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Op_Filter);

void BM_Op_Or(benchmark::State& state) {
  Rig rig;
  const EventId a = *rig.detector.DefinePrimitive("a");
  const EventId b = *rig.detector.DefinePrimitive("b");
  const EventId or_ev = *rig.detector.DefineOr("or", {a, b});
  rig.Count(or_ev);
  for (auto _ : state) {
    rig.clock.Advance(1);
    benchmark::DoNotOptimize(rig.detector.Raise(a, {}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Op_Or);

void PairwiseOp(benchmark::State& state, EventKind kind,
                ConsumptionMode mode) {
  Rig rig;
  const EventId a = *rig.detector.DefinePrimitive("a");
  const EventId b = *rig.detector.DefinePrimitive("b");
  EventId composite = kInvalidEventId;
  switch (kind) {
    case EventKind::kAnd:
      composite = *rig.detector.DefineAnd("op", a, b, mode);
      break;
    case EventKind::kSeq:
      composite = *rig.detector.DefineSeq("op", a, b, mode);
      break;
    default:
      state.SkipWithError("unsupported");
      return;
  }
  rig.Count(composite);
  for (auto _ : state) {
    rig.clock.Advance(1);
    benchmark::DoNotOptimize(rig.detector.Raise(a, {}));
    rig.clock.Advance(1);
    benchmark::DoNotOptimize(rig.detector.Raise(b, {}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
  state.SetLabel(ConsumptionModeToString(mode));
}

void BM_Op_And(benchmark::State& state) {
  PairwiseOp(state, EventKind::kAnd,
             static_cast<ConsumptionMode>(state.range(0)));
}
BENCHMARK(BM_Op_And)->DenseRange(0, 3);

void BM_Op_Seq(benchmark::State& state) {
  PairwiseOp(state, EventKind::kSeq,
             static_cast<ConsumptionMode>(state.range(0)));
}
BENCHMARK(BM_Op_Seq)->DenseRange(0, 3);

void BM_Op_Not(benchmark::State& state) {
  Rig rig;
  const EventId a = *rig.detector.DefinePrimitive("a");
  const EventId b = *rig.detector.DefinePrimitive("b");
  const EventId c = *rig.detector.DefinePrimitive("c");
  const EventId not_ev = *rig.detector.DefineNot("not", a, b, c);
  rig.Count(not_ev);
  for (auto _ : state) {
    rig.clock.Advance(1);
    benchmark::DoNotOptimize(rig.detector.Raise(a, {}));
    rig.clock.Advance(1);
    benchmark::DoNotOptimize(rig.detector.Raise(c, {}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_Op_Not);

void BM_Op_Aperiodic(benchmark::State& state) {
  Rig rig;
  const EventId a = *rig.detector.DefinePrimitive("a");
  const EventId b = *rig.detector.DefinePrimitive("b");
  const EventId c = *rig.detector.DefinePrimitive("c");
  const EventId ap = *rig.detector.DefineAperiodic("ap", a, b, c);
  rig.Count(ap);
  (void)rig.detector.Raise(a, {});  // Open the window once.
  for (auto _ : state) {
    rig.clock.Advance(1);
    benchmark::DoNotOptimize(rig.detector.Raise(b, {}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Op_Aperiodic);

void BM_Op_Plus(benchmark::State& state) {
  Rig rig;
  const EventId a = *rig.detector.DefinePrimitive("a");
  const EventId plus = *rig.detector.DefinePlus("plus", a, 10);
  rig.Count(plus);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.detector.Raise(a, {}));
    // Fire the expiry immediately: schedule + fire per iteration.
    rig.detector.AdvanceTo(rig.clock.Now() + 11, &rig.clock);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Op_Plus);

// Linear SEQ chains: detection must climb `depth` operator nodes.
void BM_Op_SeqChainDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  Rig rig;
  std::vector<EventId> prims;
  for (int i = 0; i <= depth; ++i) {
    prims.push_back(
        *rig.detector.DefinePrimitive("p" + std::to_string(i)));
  }
  EventId chain = prims[0];
  for (int i = 1; i <= depth; ++i) {
    chain = *rig.detector.DefineSeq("seq" + std::to_string(i), chain,
                                    prims[i], ConsumptionMode::kRecent);
  }
  rig.Count(chain);
  for (auto _ : state) {
    for (int i = 0; i <= depth; ++i) {
      rig.clock.Advance(1);
      benchmark::DoNotOptimize(rig.detector.Raise(prims[i], {}));
    }
  }
  state.counters["depth"] = depth;
  state.counters["detections"] = static_cast<double>(rig.detections);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          (depth + 1));
}
BENCHMARK(BM_Op_SeqChainDepth)->Arg(1)->Arg(4)->Arg(16);

// Fan-out: one primitive feeding N filter nodes (the shape generated
// per-role rules create on rbac.addActiveRole).
void BM_Op_FilterFanout(benchmark::State& state) {
  const int fanout = static_cast<int>(state.range(0));
  Rig rig;
  SymbolTable& symbols = rig.detector.symbols();
  const Symbol role = symbols.Intern("role");
  const EventId a = *rig.detector.DefinePrimitive("a");
  for (int i = 0; i < fanout; ++i) {
    const Symbol name = symbols.Intern("R" + std::to_string(i));
    const EventId f = *rig.detector.DefineFilter("f" + std::to_string(i), a,
                                                 {{role, Value(name)}});
    rig.Count(f);
  }
  const FlatParamMap params{{role, Value(symbols.Intern("R0"))}};
  for (auto _ : state) {
    rig.clock.Advance(1);
    benchmark::DoNotOptimize(rig.detector.Raise(a, params));
  }
  state.counters["fanout"] = fanout;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Op_FilterFanout)->Arg(10)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace sentinel

BENCHMARK_MAIN();
