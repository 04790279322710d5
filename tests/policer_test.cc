// Admission policer: GCRA refill arithmetic at clock edges (zero-elapsed,
// long-idle, near-INT64_MAX), per-principal isolation across shards,
// weighted-shed ordering under a full mailbox, quota updates delivered by
// threshold rules through the pauseless swap path, and a multi-producer
// stress kept small enough for the TSan stage.

#include "service/policer.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/sentinelpp.h"
#include "core/policy_parser.h"
#include "service/authorization_service.h"
#include "service/mailbox.h"
#include "tests/test_util.h"

namespace sentinel {
namespace {

constexpr int64_t kSecond = 1'000'000'000;

/// A policer driven by a hand-cranked logical clock.
struct LogicalPolicer {
  explicit LogicalPolicer(Policer::Quota default_quota,
                          size_t capacity = 64) {
    Policer::Options options;
    options.capacity = capacity;
    options.default_quota = default_quota;
    options.clock = [this] { return now.load(); };
    policer = std::make_unique<Policer>(std::move(options));
  }
  std::atomic<int64_t> now{0};
  std::unique_ptr<Policer> policer;
};

// --------------------------------------------------------------- GCRA unit

TEST(PolicerTest, InactiveWithoutAnyQuota) {
  Policer policer(Policer::Options{});
  EXPECT_FALSE(policer.active());
  EXPECT_EQ(policer.Admit("anyone"), Policer::Verdict::kUnpoliced);
  EXPECT_EQ(policer.admitted(), 0u);
}

TEST(PolicerTest, ZeroElapsedClockDrainsExactlyBurst) {
  LogicalPolicer fixture(Policer::Quota{1.0, 3});
  Policer& policer = *fixture.policer;
  EXPECT_EQ(policer.TokensAvailable("alice"), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(policer.Admit("alice"), Policer::Verdict::kConforming) << i;
  }
  // The clock has not moved: no refill, the bucket is exactly empty.
  EXPECT_EQ(policer.Admit("alice"), Policer::Verdict::kOverQuota);
  EXPECT_EQ(policer.Admit("alice"), Policer::Verdict::kOverQuota);
  EXPECT_EQ(policer.TokensAvailable("alice"), 0);
  EXPECT_EQ(policer.admitted(), 3u);
  EXPECT_EQ(policer.over_quota_verdicts(), 2u);
}

TEST(PolicerTest, RefillAtExactIntervalBoundary) {
  LogicalPolicer fixture(Policer::Quota{1.0, 1});
  Policer& policer = *fixture.policer;
  EXPECT_EQ(policer.Admit("alice"), Policer::Verdict::kConforming);
  // One token per second; one nanosecond short of the interval is still
  // over quota, the exact boundary conforms.
  fixture.now = kSecond - 1;
  EXPECT_EQ(policer.Admit("alice"), Policer::Verdict::kOverQuota);
  fixture.now = kSecond;
  EXPECT_EQ(policer.Admit("alice"), Policer::Verdict::kConforming);
}

TEST(PolicerTest, LongIdleClampsRefillAtBurst) {
  LogicalPolicer fixture(Policer::Quota{1.0, 4});
  Policer& policer = *fixture.policer;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(policer.Admit("alice"), Policer::Verdict::kConforming);
  }
  // A week idle refills to the bucket depth, not a week of tokens.
  fixture.now = int64_t{7} * 24 * 3600 * kSecond;
  EXPECT_EQ(policer.TokensAvailable("alice"), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(policer.Admit("alice"), Policer::Verdict::kConforming);
  }
  EXPECT_EQ(policer.Admit("alice"), Policer::Verdict::kOverQuota);
  // Refill accounting saw one bucket's worth, clamped.
  EXPECT_LE(policer.refilled_tokens(), 5u);
  EXPECT_GE(policer.refilled_tokens(), 4u);
}

TEST(PolicerTest, NearInt64MaxClockHasNoOverflow) {
  LogicalPolicer fixture(Policer::Quota{1.0, 1});
  Policer& policer = *fixture.policer;
  // A hostile clock parked a few ns shy of INT64_MAX: the TAT advance must
  // saturate instead of wrapping (UBSan pins this). A wrapped TAT would go
  // negative and wrongly conform — over-quota here proves saturation.
  fixture.now = std::numeric_limits<int64_t>::max() - 5;
  EXPECT_EQ(policer.Admit("alice"), Policer::Verdict::kConforming);
  EXPECT_EQ(policer.Admit("alice"), Policer::Verdict::kOverQuota);
  EXPECT_EQ(policer.Admit("alice"), Policer::Verdict::kOverQuota);
  EXPECT_GE(policer.TokensAvailable("alice"), 0);
}

TEST(PolicerTest, HugeBurstSaturatesTauWithoutOverflow) {
  LogicalPolicer fixture(
      Policer::Quota{1e-6, std::numeric_limits<int64_t>::max()});
  Policer& policer = *fixture.policer;
  // interval ~1e15 ns times a maximal burst: tau saturates, conformance
  // must still hold (a saturated tau polices nothing, it never wraps).
  EXPECT_EQ(policer.Admit("alice"), Policer::Verdict::kConforming);
  EXPECT_EQ(policer.Admit("alice"), Policer::Verdict::kConforming);
}

TEST(PolicerTest, OverrideAndResetSemantics) {
  LogicalPolicer fixture(Policer::Quota{1.0, 1});
  Policer& policer = *fixture.policer;
  // Explicitly unpoliced override wins over the default quota.
  policer.SetQuota("vip", Policer::Quota{0, 1});
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(policer.Admit("vip"), Policer::Verdict::kUnpoliced);
  }
  // A tighter override applies immediately; Reset reverts to the default.
  policer.SetQuota("mallory", Policer::Quota{1.0, 2});
  EXPECT_EQ(policer.Admit("mallory"), Policer::Verdict::kConforming);
  EXPECT_EQ(policer.Admit("mallory"), Policer::Verdict::kConforming);
  EXPECT_EQ(policer.Admit("mallory"), Policer::Verdict::kOverQuota);
  policer.ResetQuota("vip");
  EXPECT_EQ(policer.Admit("vip"), Policer::Verdict::kConforming);
  EXPECT_EQ(policer.Admit("vip"), Policer::Verdict::kOverQuota);
}

TEST(PolicerTest, TableOverflowFailsOpen) {
  Policer::Options options;
  options.capacity = 4;
  options.default_quota = Policer::Quota{1.0, 1};
  options.clock = [] { return int64_t{0}; };
  Policer policer(std::move(options));
  // More principals than slots: the extras are unpoliced, and counted.
  for (int i = 0; i < 64; ++i) {
    (void)policer.Admit("user-" + std::to_string(i));
  }
  EXPECT_GT(policer.overflows(), 0u);
  EXPECT_GT(policer.admitted(), 0u);
}

TEST(PolicerTest, OccupancyScanReportsStates) {
  LogicalPolicer fixture(Policer::Quota{1.0, 1});
  Policer& policer = *fixture.policer;
  EXPECT_EQ(policer.Admit("a"), Policer::Verdict::kConforming);
  EXPECT_EQ(policer.Admit("a"), Policer::Verdict::kOverQuota);
  policer.SetQuota("b", Policer::Quota{5.0, 2});
  const Policer::Occupancy occupancy = policer.Occupy();
  EXPECT_EQ(occupancy.tracked, 2u);
  EXPECT_EQ(occupancy.over_quota, 1u);
  EXPECT_EQ(occupancy.throttled, 1u);
}

// ------------------------------------------- Weighted mailbox reservation

TEST(PolicerTest, ReducedDepthReservesHeadroomForConformantPushes) {
  Mailbox<int> mailbox;
  mailbox.set_capacity(8);
  using Push = Mailbox<int>::PushResult;
  // Over-quota producers admit only up to the reduced bound (6 of 8)...
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(mailbox.PushBounded(i, /*block=*/false, 0, nullptr, 6),
              Push::kOk);
  }
  EXPECT_EQ(mailbox.PushBounded(99, /*block=*/false, 0, nullptr, 6),
            Push::kFull);
  // ...while conformant producers still find the reserved top quarter.
  EXPECT_EQ(mailbox.PushBounded(6, /*block=*/false, 0, nullptr), Push::kOk);
  EXPECT_EQ(mailbox.PushBounded(7, /*block=*/false, 0, nullptr), Push::kOk);
  EXPECT_EQ(mailbox.PushBounded(99, /*block=*/false, 0, nullptr),
            Push::kFull);
  EXPECT_EQ(mailbox.depth(), 8u);
  EXPECT_EQ(mailbox.peak_depth(), 8u);
}

// ------------------------------------------------------ Service admission

ServiceConfig PolicedConfig(int shards, std::atomic<int64_t>* clock) {
  ServiceConfig config;
  config.num_shards = shards;
  config.start_time = testutil::Noon();
  config.quota_rate_per_s = 1.0;
  config.quota_burst = 2;
  config.quota_enforcement = QuotaEnforcement::kAlways;
  config.quota_clock = [clock] { return clock->load(); };
  return config;
}

TEST(PolicerServiceTest, PerPrincipalIsolationAcrossShards) {
  std::atomic<int64_t> clock{0};
  AuthorizationService service(PolicedConfig(4, &clock));
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "sa").ok());
  ASSERT_TRUE(service.CreateSession("bob", "sb").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "sa", "PM").ok());
  ASSERT_TRUE(service.AddActiveRole("bob", "sb", "AC").ok());

  const AccessRequest alice{"alice", "sa", "read", "ledger", ""};
  const AccessRequest bob{"bob", "sb", "read", "ledger", ""};
  // Alice exhausts her own bucket (burst 2, frozen clock)...
  EXPECT_EQ(service.CheckAccess(alice).outcome, AccessOutcome::kDecided);
  EXPECT_EQ(service.CheckAccess(alice).outcome, AccessOutcome::kDecided);
  const AccessDecision refused = service.CheckAccess(alice);
  EXPECT_EQ(refused.outcome, AccessOutcome::kOverloaded);
  EXPECT_EQ(refused.reason, "overloaded: over quota");
  // ...without spending a single token of bob's, wherever he shards.
  EXPECT_EQ(service.CheckAccess(bob).outcome, AccessOutcome::kDecided);
  EXPECT_EQ(service.CheckAccess(bob).outcome, AccessOutcome::kDecided);
  EXPECT_EQ(service.CheckAccess(bob).outcome, AccessOutcome::kOverloaded);

  // Refill restores both, independently.
  clock += 10 * kSecond;
  EXPECT_EQ(service.CheckAccess(alice).outcome, AccessOutcome::kDecided);
  EXPECT_EQ(service.CheckAccess(bob).outcome, AccessOutcome::kDecided);

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.policer_refused, 2u);
  EXPECT_EQ(stats.policer_over_quota, 2u);
  EXPECT_GE(stats.policer_admitted, 6u);
  service.Shutdown();
}

TEST(PolicerServiceTest, BatchPathRefusesPerItem) {
  std::atomic<int64_t> clock{0};
  AuthorizationService service(PolicedConfig(2, &clock));
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "sa").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "sa", "PM").ok());
  ASSERT_TRUE(service.CreateSession("carol", "sc").ok());
  ASSERT_TRUE(service.AddActiveRole("carol", "sc", "Clerk").ok());

  // Four alice items against a burst of 2, interleaved with carol's: the
  // overflow is refused item by item, batch-mates unharmed.
  std::vector<AccessRequest> requests = {
      {"alice", "sa", "read", "ledger", ""},
      {"carol", "sc", "read", "ledger", ""},
      {"alice", "sa", "read", "ledger", ""},
      {"alice", "sa", "read", "ledger", ""},
      {"carol", "sc", "read", "ledger", ""},
      {"alice", "sa", "read", "ledger", ""},
  };
  const std::vector<AccessDecision> results =
      service.CheckAccessBatch(requests);
  EXPECT_EQ(results[0].outcome, AccessOutcome::kDecided);
  EXPECT_EQ(results[1].outcome, AccessOutcome::kDecided);
  EXPECT_EQ(results[2].outcome, AccessOutcome::kDecided);
  EXPECT_EQ(results[3].outcome, AccessOutcome::kOverloaded);
  EXPECT_EQ(results[3].reason, "overloaded: over quota");
  EXPECT_EQ(results[4].outcome, AccessOutcome::kDecided);
  EXPECT_EQ(results[5].outcome, AccessOutcome::kOverloaded);
  service.Shutdown();
}

TEST(PolicerServiceTest, SessionKeyedWhenUserAbsent) {
  std::atomic<int64_t> clock{0};
  AuthorizationService service(PolicedConfig(1, &clock));
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "s1", "PM").ok());

  // No user on the request: the session id is the principal. s1 spends its
  // own bucket (burst 2, frozen clock) and leaves s2's full.
  const AccessRequest first{"", "s1", "read", "ledger", ""};
  const AccessRequest second{"", "s2", "read", "ledger", ""};
  EXPECT_EQ(service.CheckAccess(first).outcome, AccessOutcome::kDecided);
  EXPECT_EQ(service.CheckAccess(first).outcome, AccessOutcome::kDecided);
  EXPECT_EQ(service.CheckAccess(first).outcome, AccessOutcome::kOverloaded);
  EXPECT_EQ(service.policer().TokensAvailable("s1"), 0);
  EXPECT_EQ(service.CheckAccess(second).outcome, AccessOutcome::kDecided);
  EXPECT_EQ(service.policer().TokensAvailable("s2"), 1);
  EXPECT_EQ(service.policer().TokensAvailable("alice"), 2);
  service.Shutdown();
}

TEST(PolicerServiceTest, ConfigRejectsInertAndMalformedQuotas) {
  ServiceConfig inert;
  inert.quota_rate_per_s = 5;  // kOnOverload + unbounded mailbox: inert.
  EXPECT_FALSE(AuthorizationService::ValidateConfig(inert).ok());
  inert.mailbox_capacity = 64;
  EXPECT_TRUE(AuthorizationService::ValidateConfig(inert).ok());

  ServiceConfig negative;
  negative.quota_rate_per_s = -1;
  EXPECT_FALSE(AuthorizationService::ValidateConfig(negative).ok());

  ServiceConfig capacity;
  capacity.policer_capacity = 100;  // Not a power of two.
  EXPECT_FALSE(AuthorizationService::ValidateConfig(capacity).ok());

  ServiceConfig anonymous;
  anonymous.quota_overrides.push_back(PrincipalQuota{"", 1.0, 1});
  EXPECT_FALSE(AuthorizationService::ValidateConfig(anonymous).ok());
}

// Weighted shedding under a genuinely full mailbox: over-quota principals
// are refused at the reduced bound while a conformant principal still gets
// the reserved headroom.
TEST(PolicerServiceTest, WeightedShedOrderingUnderFullMailbox) {
  std::atomic<int64_t> clock{0};
  ServiceConfig config;
  config.num_shards = 1;
  config.start_time = testutil::Noon();
  config.mailbox_capacity = 8;
  config.overload_policy = OverloadPolicy::kShed;
  config.quota_enforcement = QuotaEnforcement::kOnOverload;
  config.quota_overrides.push_back(PrincipalQuota{"alice", 1e-9, 1});
  config.quota_clock = [&clock] { return clock.load(); };
  AuthorizationService service(config);
  ASSERT_TRUE(service.init_status().ok());
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("carol", "sc").ok());
  ASSERT_TRUE(service.AddActiveRole("carol", "sc", "Clerk").ok());
  ASSERT_TRUE(service.CreateSession("alice", "sa").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "sa", "PM").ok());

  // Spend alice's only token while the shard is still live, so every
  // producer below is deterministically over quota.
  const AccessRequest abusive{"alice", "sa", "read", "ledger", ""};
  EXPECT_EQ(service.CheckAccess(abusive).outcome, AccessOutcome::kDecided);

  // Stall the shard so admitted envelopes pile up behind it; wait until
  // the fault is actually running so no producer envelope is popped into
  // the shard's local batch alongside it.
  std::atomic<bool> stalled{false};
  std::atomic<bool> release{false};
  ASSERT_TRUE(service.InjectShardFault(0, [&stalled, &release] {
    stalled = true;
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }));
  while (!stalled.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Seven over-quota requests may only fill the non-reserved depth
  // (6 of 8): exactly six queue, the seventh is refused immediately.
  std::vector<std::thread> producers;
  std::vector<AccessDecision> abusive_results(7);
  std::atomic<int> returned{0};
  for (int i = 0; i < 7; ++i) {
    producers.emplace_back([&service, &abusive, &abusive_results, &returned,
                            i] {
      abusive_results[i] = service.CheckAccess(abusive);
      returned.fetch_add(1);
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.MailboxDepth(0) < 6 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.MailboxDepth(0), 6u);
  // Depth 6 does not yet mean the seventh producer has been refused: it may
  // still be on its way to admission, and would be admitted if it arrived
  // after `release` below. Wait until it has returned; the six admitted
  // producers cannot return before `release`. (Stats() and Snapshot() would
  // queue behind the stalled shard.)
  while (returned.load() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(returned.load(), 1);

  // At the reduced bound, another over-quota request is refused
  // immediately...
  const AccessDecision refused = service.CheckAccess(abusive);
  EXPECT_EQ(refused.outcome, AccessOutcome::kOverloaded);
  EXPECT_EQ(refused.reason, "overloaded: over quota");
  // ...while the conformant principal is still admitted into the reserve.
  const AccessRequest good{"carol", "sc", "read", "ledger", ""};
  std::thread conformant_caller([&service, &good] {
    const AccessDecision decision = service.CheckAccess(good);
    EXPECT_EQ(decision.outcome, AccessOutcome::kDecided);
    EXPECT_TRUE(decision.allowed);
  });

  release = true;
  for (std::thread& t : producers) t.join();
  conformant_caller.join();

  // Of the 7 concurrent abusive calls, 6 were admitted (the reduced
  // bound) and at least one was refused over quota; adding the inline
  // refusal above, refusals land only on alice.
  int refusals = 0;
  for (const AccessDecision& decision : abusive_results) {
    if (decision.outcome == AccessOutcome::kOverloaded) {
      EXPECT_EQ(decision.reason, "overloaded: over quota");
      ++refusals;
    }
  }
  EXPECT_EQ(refusals, 1);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.policer_refused, 2u);
  service.Shutdown();
}

// ----------------------------------------- Threshold-rule driven throttle

const char* kThrottlePolicy = R"(
policy "throttle"

role Clerk { permission: read(ledger) }
user mallory { assign: Clerk }
user eve { assign: Clerk }

threshold guard { count: 3  window: 1m  throttle-rate: 0.000001
                  throttle-burst: 1 }
)";

// Same policy with a softer penalty bucket: the swap test's target.
const char* kThrottlePolicySoft = R"(
policy "throttle"

role Clerk { permission: read(ledger) }
user mallory { assign: Clerk }
user eve { assign: Clerk }

threshold guard { count: 3  window: 1m  throttle-rate: 0.000001
                  throttle-burst: 3 }
)";

TEST(PolicerServiceTest, ThresholdRuleThrottlesAbusivePrincipal) {
  std::atomic<int64_t> clock{0};
  ServiceConfig config;
  config.num_shards = 1;
  config.start_time = testutil::Noon();
  config.quota_enforcement = QuotaEnforcement::kAlways;
  config.quota_clock = [&clock] { return clock.load(); };
  AuthorizationService service(config);
  auto policy = PolicyParser::Parse(kThrottlePolicy);
  ASSERT_TRUE(policy.ok()) << policy.status().message();
  ASSERT_TRUE(service.LoadPolicy(*policy).ok());
  ASSERT_TRUE(service.CreateSession("mallory", "sm").ok());
  ASSERT_TRUE(service.AddActiveRole("mallory", "sm", "Clerk").ok());

  // Three denials within the window trip the per-user throttle reaction.
  const AccessRequest bad{"mallory", "sm", "erase", "ledger", ""};
  for (int i = 0; i < 3; ++i) {
    const AccessDecision denied = service.CheckAccess(bad);
    EXPECT_EQ(denied.outcome, AccessOutcome::kDecided);
    EXPECT_FALSE(denied.allowed);
  }
  // The penalty quota (burst 1) allows one more dispatch, then the
  // admission edge refuses — even a legitimate request.
  const AccessRequest good{"mallory", "sm", "read", "ledger", ""};
  EXPECT_EQ(service.CheckAccess(good).outcome, AccessOutcome::kDecided);
  const AccessDecision refused = service.CheckAccess(good);
  EXPECT_EQ(refused.outcome, AccessOutcome::kOverloaded);
  EXPECT_EQ(refused.reason, "overloaded: over quota");
  service.Shutdown();
}

TEST(PolicerServiceTest, PauselessSwapUpdatesThrottlePenalty) {
  std::atomic<int64_t> clock{0};
  ServiceConfig config;
  config.num_shards = 1;
  config.start_time = testutil::Noon();
  config.quota_enforcement = QuotaEnforcement::kAlways;
  config.quota_clock = [&clock] { return clock.load(); };
  AuthorizationService service(config);
  auto policy = PolicyParser::Parse(kThrottlePolicy);
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(service.LoadPolicy(*policy).ok());
  ASSERT_TRUE(service.CreateSession("eve", "se").ok());
  ASSERT_TRUE(service.AddActiveRole("eve", "se", "Clerk").ok());

  // Swap in a softer penalty (burst 3) via the pauseless path before any
  // breach: the regenerated SEC rule must carry the new directive.
  auto softer = PolicyParser::Parse(kThrottlePolicySoft);
  ASSERT_TRUE(softer.ok());
  auto report = service.ApplyPolicyUpdate(*softer);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const AccessRequest bad{"eve", "se", "erase", "ledger", ""};
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(service.CheckAccess(bad).allowed);
  }
  // The updated penalty allows a burst of 3 before refusing.
  const AccessRequest good{"eve", "se", "read", "ledger", ""};
  EXPECT_EQ(service.CheckAccess(good).outcome, AccessOutcome::kDecided);
  EXPECT_EQ(service.CheckAccess(good).outcome, AccessOutcome::kDecided);
  EXPECT_EQ(service.CheckAccess(good).outcome, AccessOutcome::kDecided);
  EXPECT_EQ(service.CheckAccess(good).outcome, AccessOutcome::kOverloaded);
  service.Shutdown();
}

// ------------------------------------------------------------ TSan stress

TEST(PolicerStressTest, MultiProducerAdmissionWithConcurrentQuotaUpdates) {
  std::atomic<int64_t> clock{0};
  Policer::Options options;
  options.capacity = 64;
  options.default_quota = Policer::Quota{1000.0, 8};
  options.clock = [&clock] { return clock.load(); };
  Policer policer(std::move(options));

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;
  std::atomic<uint64_t> observed_admits{0};
  std::atomic<uint64_t> observed_over{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&policer, &clock, &observed_admits,
                          &observed_over, t] {
      const std::string principals[] = {"alice", "bob", "mallory",
                                        "worker-" + std::to_string(t)};
      for (int i = 0; i < kOpsPerThread; ++i) {
        const Policer::Verdict verdict =
            policer.Admit(principals[i % 4]);
        if (verdict == Policer::Verdict::kConforming) {
          observed_admits.fetch_add(1);
        } else if (verdict == Policer::Verdict::kOverQuota) {
          observed_over.fetch_add(1);
        }
        if (i % 128 == 0) clock.fetch_add(1'000'000);  // 1ms.
        if (i % 512 == 0) {
          policer.SetQuota("mallory", Policer::Quota{0.5, 1 + i % 3});
        }
        if (i % 1024 == 0) (void)policer.Occupy();
      }
    });
  }
  for (std::thread& t : workers) t.join();
  // Every verdict was either an admit or an over-quota refusal, and the
  // policer's own counters agree with what the callers observed.
  EXPECT_EQ(policer.admitted(), observed_admits.load());
  EXPECT_EQ(policer.over_quota_verdicts(), observed_over.load());
  EXPECT_EQ(observed_admits.load() + observed_over.load(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(policer.overflows(), 0u);
}

}  // namespace
}  // namespace sentinel
