#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "audit/replay.h"
#include "common/clock.h"
#include "core/engine.h"
#include "service/authorization_service.h"
#include "workload/scenario_gen.h"

namespace sentinel {
namespace audit {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "sentinelpp_" + name;
}

/// Drives one generated workload request into the service (the soak
/// driver's dispatch, test-sized).
void Apply(AuthorizationService& service, const Request& request) {
  switch (request.kind) {
    case RequestKind::kCreateSession:
      (void)service.CreateSession(request.user, request.session);
      break;
    case RequestKind::kDeleteSession:
      (void)service.DeleteSession(request.session);
      break;
    case RequestKind::kAddActiveRole:
      (void)service.AddActiveRole(request.user, request.session,
                                  request.role);
      break;
    case RequestKind::kDropActiveRole:
      (void)service.DropActiveRole(request.user, request.session,
                                   request.role);
      break;
    case RequestKind::kCheckAccess: {
      AccessRequest access;
      access.session = request.session;
      access.operation = request.operation;
      access.object = request.object;
      access.purpose = request.purpose;
      (void)service.CheckAccess(access);
      break;
    }
    case RequestKind::kAssignUser:
      (void)service.AssignUser(request.user, request.role);
      break;
    case RequestKind::kDeassignUser:
      (void)service.DeassignUser(request.user, request.role);
      break;
    case RequestKind::kEnableRole:
      (void)service.EnableRole(request.role);
      break;
    case RequestKind::kDisableRole:
      (void)service.DisableRole(request.role);
      break;
    case RequestKind::kAdvanceTime:
      (void)service.AdvanceBy(request.advance);
      break;
    case RequestKind::kSetContext:
      service.SetContext(request.context_key, request.context_value);
      break;
  }
}

/// Captures an audit stream by running `scenario` through a synchronous
/// audited service; returns the parsed records.
std::vector<AuditRecord> CaptureScenario(const Scenario& scenario,
                                         const std::string& path) {
  std::remove(path.c_str());
  ServiceConfig config;
  config.synchronous = true;
  config.num_shards = 1;
  config.start_time = MakeTime(2026, 7, 6, 9, 0, 0);
  config.audit_path = path;
  AuthorizationService service(config);
  EXPECT_TRUE(service.LoadPolicy(scenario.policy).ok());
  for (const Request& request : scenario.requests) Apply(service, request);
  service.Shutdown();
  EXPECT_EQ(service.audit_exporter()->counters().drops, 0u);

  uint64_t parse_errors = 0;
  auto records = LoadCaptureFile(path, &parse_errors);
  EXPECT_TRUE(records.ok());
  EXPECT_EQ(parse_errors, 0u);
  return records.ok() ? *records : std::vector<AuditRecord>{};
}

// ------------------------------------------------------------- determinism

TEST(ReplayTest, UnchangedPolicyReplaysWithZeroDiffs) {
  ScenarioParams params = SmokeScenarioParams();
  params.num_users = 60;
  params.num_requests = 3000;
  const Scenario scenario = GenerateScenario(params);
  const auto records =
      CaptureScenario(scenario, TempPath("replay_zero.jsonl"));
  ASSERT_GT(records.size(), 2000u);

  auto report = ReplayCapture(records, scenario.policy);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_GT(report->replayed, 2000u);
  EXPECT_EQ(report->flips(), 0u);
  EXPECT_EQ(report->outcome_changes, 0u);
  EXPECT_TRUE(report->diffs.empty());

  // Replay is itself deterministic: a second pass agrees exactly.
  auto again = ReplayCapture(records, scenario.policy);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->replayed, report->replayed);
  EXPECT_EQ(again->skipped, report->skipped);
  EXPECT_EQ(again->flips(), 0u);
}

// ------------------------------------------------- capture vs capture

/// A smoke-sized scenario captured twice: two runs of one deterministic
/// workload, differing only in wall-clock fields.
struct CapturePair {
  std::vector<AuditRecord> first;
  std::vector<AuditRecord> second;
};

CapturePair CaptureTwice() {
  ScenarioParams params = SmokeScenarioParams();
  params.num_users = 40;
  params.num_requests = 1500;
  const Scenario scenario = GenerateScenario(params);
  CapturePair pair;
  pair.first = CaptureScenario(scenario, TempPath("compare_a.jsonl"));
  pair.second = CaptureScenario(scenario, TempPath("compare_b.jsonl"));
  return pair;
}

TEST(CaptureCompareTest, IdenticalRunsCompareWithZeroDiffs) {
  const CapturePair pair = CaptureTwice();
  ASSERT_GT(pair.first.size(), 1000u);
  // The two runs differ in wall-clock fields, which the comparison ignores.
  ASSERT_NE(pair.first.back().wall_us, 0);
  const CaptureDiffReport report = CompareCaptures(pair.first, pair.second);
  EXPECT_EQ(report.differences(), 0u) << CaptureDiffToText(report);
  EXPECT_TRUE(report.diffs.empty());
  EXPECT_EQ(report.capture_records, pair.first.size());
  EXPECT_EQ(report.baseline_records, pair.second.size());
  EXPECT_NE(CaptureDiffToText(report).find("record_diffs: 0\n"),
            std::string::npos);
}

TEST(CaptureCompareTest, FlippedVerdictDiffersOnBothSides) {
  CapturePair pair = CaptureTwice();
  ASSERT_GT(pair.second.size(), 100u);
  AuditRecord& flipped = pair.second[pair.second.size() / 2];
  flipped.allowed = !flipped.allowed;
  const CaptureDiffReport report = CompareCaptures(pair.first, pair.second);
  EXPECT_EQ(report.only_in_capture, 1u) << CaptureDiffToText(report);
  EXPECT_EQ(report.only_in_baseline, 1u);
  // Both versions of the record, side by side at its (shard, seq).
  ASSERT_EQ(report.diffs.size(), 2u);
  for (const RecordDiff& diff : report.diffs) {
    EXPECT_EQ(diff.shard, flipped.shard);
    EXPECT_EQ(diff.seq, flipped.seq);
  }
  EXPECT_NE(report.diffs[0].in_capture, report.diffs[1].in_capture);
  EXPECT_NE(CaptureDiffToText(report).find("record_diffs: 2\n"),
            std::string::npos);
}

TEST(CaptureCompareTest, MissingRecordShiftsNothingElse) {
  CapturePair pair = CaptureTwice();
  ASSERT_GT(pair.first.size(), 100u);
  const AuditRecord missing = pair.first[pair.first.size() / 3];
  pair.first.erase(pair.first.begin() + pair.first.size() / 3);
  // A service-level record on one side only is a multiset difference.
  AuditRecord marker;
  marker.kind = "service.overload";
  marker.user = "alice";
  marker.shard = 99;
  pair.first.push_back(marker);
  const CaptureDiffReport report = CompareCaptures(pair.first, pair.second);
  EXPECT_EQ(report.only_in_baseline, 1u) << CaptureDiffToText(report);
  EXPECT_EQ(report.only_in_capture, 1u);
  ASSERT_EQ(report.diffs.size(), 2u);
  EXPECT_EQ(report.diffs[0].shard, missing.shard);
  EXPECT_EQ(report.diffs[0].seq, missing.seq);
  EXPECT_FALSE(report.diffs[0].in_capture);
  EXPECT_EQ(report.diffs[1].shard, 99);
  EXPECT_TRUE(report.diffs[1].in_capture);
}

// ------------------------------------------------------------ verdict flips

Policy FlipBasePolicy() {
  Policy policy("flip-base");
  RoleSpec a;
  a.name = "A";
  a.permissions.insert(Permission{"read", "doc"});
  (void)policy.AddRole(std::move(a));
  RoleSpec b;
  b.name = "B";
  b.permissions.insert(Permission{"write", "doc"});
  (void)policy.AddRole(std::move(b));
  UserSpec alice;
  alice.name = "alice";
  alice.assignments = {"A", "B"};
  (void)policy.AddUser(std::move(alice));
  return policy;
}

/// Runs the canonical four-step capture (session, activate A, activate B,
/// write doc) against `policy` on a bare engine and drains its audit trail.
std::vector<AuditRecord> CaptureFlipSequence(const Policy& policy) {
  SimulatedClock clock;
  AuthorizationEngine engine(&clock);
  EXPECT_TRUE(engine.LoadPolicy(policy).ok());
  (void)engine.CreateSession("alice", "s1");
  (void)engine.AddActiveRole("alice", "s1", "A");
  (void)engine.AddActiveRole("alice", "s1", "B");
  (void)engine.CheckAccess("s1", "write", "doc", "");
  std::vector<AuditRecord> records;
  engine.DrainDecisionLog([&records](const DecisionRecord& record) {
    records.push_back(FromDecisionRecord(record, 0, 1));
  });
  EXPECT_EQ(records.size(), 4u);
  return records;
}

TEST(ReplayTest, AddedDsdEdgeFlipsExactlyTheDependentVerdicts) {
  const Policy base = FlipBasePolicy();
  auto mutated = WithAddedDsdEdge(base, "DSD_SHADOW");
  ASSERT_TRUE(mutated.ok()) << mutated.status().message();
  ASSERT_EQ(mutated->dsd_sets().count("DSD_SHADOW"), 1u);

  const auto records = CaptureFlipSequence(base);
  auto report = ReplayCapture(records, *mutated);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report->replayed, 4u);
  // Exactly the DSD-dependent verdicts flip: activating B on top of A, and
  // the write that only B granted. Nothing else moves.
  EXPECT_EQ(report->allow_to_deny, 2u);
  EXPECT_EQ(report->deny_to_allow, 0u);
  ASSERT_EQ(report->diffs.size(), 2u);
  EXPECT_EQ(report->diffs[0].recorded.kind, "rbac.addActiveRole");
  EXPECT_EQ(report->diffs[0].recorded.role, "B");
  EXPECT_FALSE(report->diffs[0].new_rule.empty());
  EXPECT_EQ(report->diffs[1].recorded.kind, "rbac.checkAccess");
  EXPECT_EQ(report->diffs[1].recorded.op, "write");
  uint64_t attributed = 0;
  for (const auto& [rule, count] : report->flips_by_rule) attributed += count;
  EXPECT_EQ(attributed, 2u);
}

TEST(ReplayTest, RemovedDsdEdgeFlipsTheOtherWay) {
  const Policy base = FlipBasePolicy();
  auto mutated = WithAddedDsdEdge(base, "DSD_SHADOW");
  ASSERT_TRUE(mutated.ok());

  // Capture under the constrained policy, replay against the relaxed one.
  const auto records = CaptureFlipSequence(*mutated);
  auto report = ReplayCapture(records, base);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->allow_to_deny, 0u);
  EXPECT_EQ(report->deny_to_allow, 2u);
}

// ---------------------------------------------------- pauseless swap tails

// A capture taken across mid-run pauseless policy swaps stays replayable:
// each committed swap drops a `service.swap` marker into the stream, and
// the segment after the last marker — decided entirely under the final
// generation — replays against the final policy with zero diffs. The tail
// must be self-contained (replay starts each shard from a fresh engine, so
// head-era sessions and runtime assignments do not exist), hence the
// dedicated epilogue user/role untouched by the generated soak.
TEST(ReplayTest, TailAfterPauselessSwapsReplaysFinalPolicyWithZeroDiffs) {
  ScenarioParams params = SmokeScenarioParams();
  params.num_users = 60;
  params.num_requests = 3000;
  const Scenario scenario = GenerateScenario(params);
  Policy base = scenario.policy;
  RoleSpec tail_reader;
  tail_reader.name = "tail_reader";
  tail_reader.permissions.insert(Permission{"read", "tape"});
  ASSERT_TRUE(base.AddRole(std::move(tail_reader)).ok());
  UserSpec tailor;
  tailor.name = "tailor";
  tailor.assignments.insert("tail_reader");
  ASSERT_TRUE(base.AddUser(std::move(tailor)).ok());
  auto mutated = WithToggledPermission(base, 0);
  ASSERT_TRUE(mutated.ok()) << mutated.status().message();

  const std::string path = TempPath("replay_swap_tail.jsonl");
  std::remove(path.c_str());
  ServiceConfig config;
  config.synchronous = true;
  config.num_shards = 1;
  config.start_time = MakeTime(2026, 7, 6, 9, 0, 0);
  config.audit_path = path;
  AuthorizationService service(config);
  ASSERT_TRUE(service.LoadPolicy(base).ok());
  // Two pauseless swaps land mid-soak, a third installs the final policy
  // right before the epilogue — the capture tail runs entirely under it.
  size_t applied = 0;
  for (const Request& request : scenario.requests) {
    Apply(service, request);
    ++applied;
    if (applied == 1000) {
      ASSERT_TRUE(service.ApplyPolicyUpdate(*mutated).ok());
    } else if (applied == 2000) {
      ASSERT_TRUE(service.ApplyPolicyUpdate(base).ok());
    }
  }
  ASSERT_TRUE(service.ApplyPolicyUpdate(*mutated).ok());
  ASSERT_TRUE(service.CreateSession("tailor", "tail_s1").ok());
  ASSERT_TRUE(service.AddActiveRole("tailor", "tail_s1", "tail_reader").ok());
  for (int i = 0; i < 64; ++i) {
    AccessRequest allow;
    allow.session = "tail_s1";
    allow.operation = "read";
    allow.object = "tape";
    EXPECT_TRUE(service.CheckAccess(allow).allowed);
    AccessRequest deny;
    deny.session = "tail_s1";
    deny.operation = "write";
    deny.object = "tape";
    EXPECT_FALSE(service.CheckAccess(deny).allowed);
  }
  service.Shutdown();
  EXPECT_EQ(service.audit_exporter()->counters().drops, 0u);

  uint64_t parse_errors = 0;
  auto records = LoadCaptureFile(path, &parse_errors);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(parse_errors, 0u);

  size_t last_marker = records->size();
  size_t markers = 0;
  for (size_t i = 0; i < records->size(); ++i) {
    if ((*records)[i].kind == "service.swap") {
      last_marker = i;
      ++markers;
    }
  }
  ASSERT_EQ(markers, 3u);
  ASSERT_LT(last_marker + 1, records->size());
  const std::vector<AuditRecord> tail(records->begin() + last_marker + 1,
                                      records->end());

  auto report = ReplayCapture(tail, *mutated);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_GE(report->replayed, 130u);  // 2 session ops + 128 checks.
  EXPECT_EQ(report->flips(), 0u) << ReportToText(*report);
  EXPECT_EQ(report->outcome_changes, 0u) << ReportToText(*report);

  // And the cross-check is not vacuous: replaying the same tail against a
  // policy whose tail_reader lost `read tape` flips exactly the 64
  // epilogue allows — the zero above is the swap holding, not the harness
  // ignoring the segment.
  Policy severed = scenario.policy;
  RoleSpec blind;
  blind.name = "tail_reader";
  blind.permissions.insert(Permission{"read", "tome"});
  ASSERT_TRUE(severed.AddRole(std::move(blind)).ok());
  UserSpec tailor_again;
  tailor_again.name = "tailor";
  tailor_again.assignments.insert("tail_reader");
  ASSERT_TRUE(severed.AddUser(std::move(tailor_again)).ok());
  auto report_severed = ReplayCapture(tail, severed);
  ASSERT_TRUE(report_severed.ok());
  EXPECT_EQ(report_severed->allow_to_deny, 64u) << ReportToText(*report_severed);
  EXPECT_EQ(report_severed->deny_to_allow, 0u);
}

// ---------------------------------------------------------------- skipping

TEST(ReplayTest, SkipsServiceMarkersAndUnknownKinds) {
  std::vector<AuditRecord> records;
  AuditRecord marker;
  marker.seq = 0;
  marker.kind = "service.fastpath";
  marker.allowed = true;
  records.push_back(marker);
  AuditRecord future;
  future.seq = 5;
  future.kind = "rbac.someFutureVerb";
  records.push_back(future);

  auto report = ReplayCapture(records, FlipBasePolicy());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->replayed, 0u);
  EXPECT_EQ(report->skipped, 2u);
  EXPECT_EQ(report->flips(), 0u);
}

TEST(ReplayTest, RejectsInvalidCandidatePolicy) {
  Policy broken("broken");
  UserSpec ghost;
  ghost.name = "ghost";
  ghost.assignments.insert("no-such-role");
  (void)broken.AddUser(std::move(ghost));
  auto report = ReplayCapture({}, broken);
  EXPECT_FALSE(report.ok());
}

// -------------------------------------------------------------- time warp

TEST(ReplayTest, TimeWarpReproducesDurationExpiry) {
  Policy policy("timed");
  RoleSpec a;
  a.name = "A";
  a.permissions.insert(Permission{"read", "doc"});
  a.max_activation = 10 * kMinute;
  (void)policy.AddRole(std::move(a));
  UserSpec alice;
  alice.name = "alice";
  alice.assignments.insert("A");
  (void)policy.AddUser(std::move(alice));

  SimulatedClock clock;
  AuthorizationEngine engine(&clock);
  ASSERT_TRUE(engine.LoadPolicy(policy).ok());
  (void)engine.CreateSession("alice", "s1");
  (void)engine.AddActiveRole("alice", "s1", "A");
  EXPECT_TRUE(engine.CheckAccess("s1", "read", "doc", "").allowed);
  engine.AdvanceTo(engine.Now() + 20 * kMinute);  // Past the bound.
  EXPECT_FALSE(engine.CheckAccess("s1", "read", "doc", "").allowed);
  std::vector<AuditRecord> records;
  engine.DrainDecisionLog([&records](const DecisionRecord& record) {
    records.push_back(FromDecisionRecord(record, 0, 1));
  });

  // Replaying against the same policy reproduces the expiry-driven denial
  // only if the replay engine's clock is warped between records.
  auto report = ReplayCapture(records, policy);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->replayed, 0u);
  EXPECT_EQ(report->flips(), 0u) << ReportToText(*report);
  EXPECT_EQ(report->outcome_changes, 0u) << ReportToText(*report);
}

// ------------------------------------------------------- loading & reports

TEST(ReplayTest, LoadCaptureCountsParseErrors) {
  const std::string path = TempPath("replay_parse_errors.jsonl");
  {
    std::ofstream out(path, std::ios::trunc);
    AuditRecord record;
    record.seq = 1;
    record.kind = "rbac.enableRole";
    record.role = "A";
    std::string line;
    AppendJsonLine(record, &line);
    out << line << "this is not json\n" << line;
  }
  uint64_t parse_errors = 0;
  auto records = LoadCaptureFile(path, &parse_errors);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);
  EXPECT_EQ(parse_errors, 1u);
}

TEST(ReplayTest, LoadCaptureMissingFileIsAnError) {
  uint64_t parse_errors = 0;
  EXPECT_FALSE(
      LoadCaptureFile("/nonexistent/capture.jsonl", &parse_errors).ok());
}

TEST(ReplayTest, ReportRendersStableGreppableText) {
  const Policy base = FlipBasePolicy();
  auto mutated = WithAddedDsdEdge(base, "DSD_SHADOW");
  ASSERT_TRUE(mutated.ok());
  auto report = ReplayCapture(CaptureFlipSequence(base), *mutated);
  ASSERT_TRUE(report.ok());

  const std::string text = ReportToText(*report);
  EXPECT_NE(text.find("replayed: 4"), std::string::npos);
  EXPECT_NE(text.find("allow_to_deny: 2"), std::string::npos);
  EXPECT_NE(text.find("deny_to_allow: 0"), std::string::npos);
  EXPECT_NE(text.find("flips by "), std::string::npos);
  EXPECT_NE(text.find("allow -> deny"), std::string::npos);

  const std::string json = ReportToJson(*report);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"allow_to_deny\":2"), std::string::npos);
  EXPECT_NE(json.find("\"flips_by_rule\""), std::string::npos);
}

}  // namespace
}  // namespace audit
}  // namespace sentinel
