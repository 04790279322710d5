#ifndef SENTINELPP_BENCH_BENCH_UTIL_H_
#define SENTINELPP_BENCH_BENCH_UTIL_H_

#include <memory>
#include <string>

#include "api/sentinelpp.h"
#include "common/calendar.h"
#include "common/clock.h"
#include "core/engine.h"
#include "baseline/direct_enforcer.h"
#include "core/policy_parser.h"
#include "workload/policy_gen.h"
#include "workload/request_gen.h"

namespace sentinel {
namespace benchutil {

/// Benchmarks anchor simulated time here: 2026-07-06 12:00:00 UTC.
inline Time Noon() { return MakeTime(2026, 7, 6, 12, 0, 0); }

/// Engine + its clock, policy loaded; aborts on failure (bench setup).
struct EngineUnderTest {
  std::unique_ptr<SimulatedClock> clock;
  std::unique_ptr<AuthorizationEngine> engine;

  explicit EngineUnderTest(const Policy& policy, Time start = Noon()) {
    clock = std::make_unique<SimulatedClock>(start);
    engine = std::make_unique<AuthorizationEngine>(clock.get());
    const Status status = engine->LoadPolicy(policy);
    if (!status.ok()) {
      std::fprintf(stderr, "bench setup failed: %s\n",
                   status.ToString().c_str());
      std::abort();
    }
  }
};

/// AuthorizationService with policy loaded on `num_shards` shards; one by
/// default, where a single caller runs every check on its own thread.
struct ServiceUnderTest {
  std::unique_ptr<AuthorizationService> service;

  explicit ServiceUnderTest(const Policy& policy, int num_shards = 1,
                            Time start = Noon(),
                            size_t decision_cache_capacity = 0) {
    ServiceConfig config;
    config.num_shards = num_shards;
    config.start_time = start;
    config.decision_cache_capacity = decision_cache_capacity;
    service = std::make_unique<AuthorizationService>(config);
    const Status status = service->LoadPolicy(policy);
    if (!status.ok()) {
      std::fprintf(stderr, "bench setup failed: %s\n",
                   status.ToString().c_str());
      std::abort();
    }
  }
};

/// DirectEnforcer + its clock, policy loaded.
struct BaselineUnderTest {
  std::unique_ptr<SimulatedClock> clock;
  std::unique_ptr<DirectEnforcer> enforcer;

  explicit BaselineUnderTest(const Policy& policy, Time start = Noon()) {
    clock = std::make_unique<SimulatedClock>(start);
    enforcer = std::make_unique<DirectEnforcer>(clock.get());
    const Status status = enforcer->LoadPolicy(policy);
    if (!status.ok()) {
      std::fprintf(stderr, "bench setup failed: %s\n",
                   status.ToString().c_str());
      std::abort();
    }
  }
};

}  // namespace benchutil
}  // namespace sentinel

#endif  // SENTINELPP_BENCH_BENCH_UTIL_H_
