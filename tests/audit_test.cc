#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "audit/exporter.h"
#include "audit/record.h"
#include "service/authorization_service.h"

namespace sentinel {
namespace audit {
namespace {

// ------------------------------------------------------------------ helpers

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "sentinelpp_" + name;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

AuditRecord FullRecord() {
  AuditRecord record;
  record.seq = 42;
  record.shard = 3;
  record.epoch = 7;
  record.wall_us = 1786240945885250;
  record.sim_us = 1783328400000000;
  record.kind = "rbac.checkAccess";
  record.user = "alice";
  record.session = "s1";
  record.role = "Doctor";
  record.op = "read";
  record.object = "chart-7";
  record.purpose = "treatment";
  record.allowed = false;
  record.outcome = 1;
  record.rule = "CA.global";
  record.reason = "Permission Denied";
  record.failed_condition = "ANY role IN getSessionRoles";
  record.latency_us = 12;
  return record;
}

// ------------------------------------------------------------ record codec

TEST(AuditRecordTest, RoundTripsEveryField) {
  const AuditRecord record = FullRecord();
  std::string line;
  AppendJsonLine(record, &line);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');

  AuditRecord parsed;
  std::string error;
  ASSERT_TRUE(ParseJsonLine(line, &parsed, &error)) << error;
  EXPECT_EQ(parsed.v, record.v);
  EXPECT_EQ(parsed.seq, record.seq);
  EXPECT_EQ(parsed.shard, record.shard);
  EXPECT_EQ(parsed.epoch, record.epoch);
  EXPECT_EQ(parsed.wall_us, record.wall_us);
  EXPECT_EQ(parsed.sim_us, record.sim_us);
  EXPECT_EQ(parsed.kind, record.kind);
  EXPECT_EQ(parsed.user, record.user);
  EXPECT_EQ(parsed.session, record.session);
  EXPECT_EQ(parsed.role, record.role);
  EXPECT_EQ(parsed.op, record.op);
  EXPECT_EQ(parsed.object, record.object);
  EXPECT_EQ(parsed.purpose, record.purpose);
  EXPECT_EQ(parsed.allowed, record.allowed);
  EXPECT_EQ(parsed.outcome, record.outcome);
  EXPECT_EQ(parsed.rule, record.rule);
  EXPECT_EQ(parsed.reason, record.reason);
  EXPECT_EQ(parsed.failed_condition, record.failed_condition);
  EXPECT_EQ(parsed.latency_us, record.latency_us);
}

TEST(AuditRecordTest, EscapingTortureRoundTrips) {
  const std::string torture[] = {
      "she said \"hi\"",
      "C:\\path\\to\\file",
      std::string("ctrl:\x01\x02\n\r\t\x1f.", 12),
      "h\xc3\xa9llo \xe4\xb8\x96\xe7\x95\x8c \xf0\x9f\x9a\x80",  // héllo 世界 🚀
      "mix\"of\\every\nthing\x7f",
      "",
  };
  for (const std::string& s : torture) {
    AuditRecord record;
    record.kind = "rbac.checkAccess";
    record.user = s;
    record.reason = s;
    std::string line;
    AppendJsonLine(record, &line);
    AuditRecord parsed;
    std::string error;
    ASSERT_TRUE(ParseJsonLine(line, &parsed, &error))
        << error << " for " << line;
    EXPECT_EQ(parsed.user, s);
    EXPECT_EQ(parsed.reason, s);
  }
}

TEST(AuditRecordTest, EscapedStringsStayOnOneLine) {
  AuditRecord record;
  record.kind = "k";
  record.reason = "two\nlines\rand\ttabs";
  std::string line;
  AppendJsonLine(record, &line);
  // The only newline is the terminator — a raw one would corrupt the stream.
  EXPECT_EQ(line.find('\n'), line.size() - 1);
  EXPECT_EQ(line.find('\r'), std::string::npos);
}

TEST(AuditRecordTest, OmitsEmptyAttributionAndZeroLatency) {
  AuditRecord record;
  record.seq = 1;
  record.kind = "rbac.enableRole";
  record.role = "Doctor";
  record.allowed = true;
  std::string line;
  AppendJsonLine(record, &line);
  EXPECT_EQ(line.find("\"user\""), std::string::npos);
  EXPECT_EQ(line.find("\"purpose\""), std::string::npos);
  EXPECT_EQ(line.find("\"latency_us\""), std::string::npos);
  EXPECT_EQ(line.find("\"failed_condition\""), std::string::npos);
  EXPECT_NE(line.find("\"role\":\"Doctor\""), std::string::npos);
}

TEST(AuditRecordTest, DecodesUnicodeEscapesIncludingSurrogates) {
  AuditRecord parsed;
  std::string error;
  ASSERT_TRUE(ParseJsonLine(
      R"({"v":1,"kind":"k","user":"\u0041\u00e9\u4e16\ud83d\ude00","allowed":true})",
      &parsed, &error))
      << error;
  EXPECT_EQ(parsed.user, "A\xc3\xa9\xe4\xb8\x96\xf0\x9f\x98\x80");
  EXPECT_TRUE(parsed.allowed);
}

TEST(AuditRecordTest, IgnoresUnknownKeysPerAddOnlyContract) {
  AuditRecord parsed;
  ASSERT_TRUE(ParseJsonLine(
      R"({"v":2,"kind":"rbac.checkAccess","from_the_future":"yes","n":3,"allowed":true})",
      &parsed));
  EXPECT_EQ(parsed.v, 2);
  EXPECT_EQ(parsed.kind, "rbac.checkAccess");
  EXPECT_TRUE(parsed.allowed);
}

TEST(AuditRecordTest, RejectsMalformedLines) {
  const char* bad[] = {
      "",
      "not json",
      "{",
      "[1,2]",
      R"({"v":})",
      R"({"v":1 "seq":2})",
      R"({"kind":"unterminated)",
      R"({"kind":"bad escape \q"})",
  };
  for (const char* line : bad) {
    AuditRecord parsed;
    std::string error;
    EXPECT_FALSE(ParseJsonLine(line, &parsed, &error)) << line;
  }
}

// --------------------------------------------------------------- exporter

TEST(AuditExporterTest, WritesParseableLinesAndCounts) {
  const std::string path = TempPath("export_basic.jsonl");
  std::remove(path.c_str());
  AuditExporter::Options options;
  options.path = path;
  AuditExporter exporter(options);
  for (int i = 0; i < 100; ++i) {
    AuditRecord record = FullRecord();
    record.seq = static_cast<uint64_t>(i + 1);
    exporter.Offer(std::move(record));
  }
  exporter.Close();
  EXPECT_FALSE(exporter.failed());
  const auto counters = exporter.counters();
  EXPECT_EQ(counters.records, 100u);
  EXPECT_EQ(counters.drops, 0u);

  const auto lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 100u);
  uint64_t bytes = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    AuditRecord parsed;
    ASSERT_TRUE(ParseJsonLine(lines[i], &parsed)) << lines[i];
    EXPECT_EQ(parsed.seq, i + 1);
    bytes += lines[i].size() + 1;  // getline stripped the newline.
  }
  EXPECT_EQ(counters.bytes, bytes);
}

TEST(AuditExporterTest, RotatesBySizeKeepingEveryRecord) {
  const std::string path = TempPath("export_rotate.jsonl");
  for (int i = 0; i <= 64; ++i) {
    std::remove((i == 0 ? path : path + "." + std::to_string(i)).c_str());
  }
  AuditExporter::Options options;
  options.path = path;
  options.rotate_bytes = 600;  // A handful of ~200-byte lines per file.
  AuditExporter exporter(options);
  for (int i = 0; i < 40; ++i) {
    AuditRecord record = FullRecord();
    record.seq = static_cast<uint64_t>(i + 1);
    exporter.Offer(std::move(record));
    exporter.Flush();  // One batch per record: deterministic rotation points.
  }
  exporter.Close();

  // Oldest-first: `<path>.1` was the first file rotated out, ascending
  // suffixes are newer, and the un-suffixed path is the live tail.
  std::vector<uint64_t> seen;
  size_t rotated_files = 0;
  for (int i = 1; i <= 65; ++i) {
    const std::string file = i == 65 ? path : path + "." + std::to_string(i);
    const auto lines = ReadLines(file);
    if (i < 65 && !lines.empty()) ++rotated_files;
    for (const std::string& line : lines) {
      AuditRecord parsed;
      ASSERT_TRUE(ParseJsonLine(line, &parsed)) << file << ": " << line;
      seen.push_back(parsed.seq);
    }
  }
  ASSERT_EQ(seen.size(), 40u);
  EXPECT_GE(rotated_files, 2u) << "rotation never triggered";
  // Oldest-first across rotated files then the live tail, no gaps.
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i + 1);
}

/// Blocks the writer thread inside its pre-write hook until released, so a
/// test can fill the hand-off queue deterministically.
class WriterGate {
 public:
  std::function<void()> Hook() {
    return [this] {
      std::unique_lock<std::mutex> lock(mu_);
      if (released_) return;
      stalled_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    };
  }
  void WaitUntilStalled() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return stalled_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stalled_ = false;
  bool released_ = false;
};

TEST(AuditExporterTest, SlowWriterDropsAreCountedExactly) {
  const std::string path = TempPath("export_drops.jsonl");
  std::remove(path.c_str());
  AuditExporter::Options options;
  options.path = path;
  options.queue_capacity = 4;
  AuditExporter exporter(options);
  WriterGate gate;
  exporter.InjectWriterStallForTest(gate.Hook());

  exporter.Offer(FullRecord());  // Swapped into the writer's batch...
  gate.WaitUntilStalled();       // ...which is now parked pre-write.
  for (int i = 0; i < 4; ++i) exporter.Offer(FullRecord());  // Fills queue.
  for (int i = 0; i < 3; ++i) exporter.Offer(FullRecord());  // Dropped.
  EXPECT_EQ(exporter.counters().drops, 3u);

  gate.Release();
  exporter.Close();
  const auto counters = exporter.counters();
  EXPECT_EQ(counters.records, 5u);
  EXPECT_EQ(counters.drops, 3u);
  EXPECT_EQ(ReadLines(path).size(), 5u);
}

TEST(AuditExporterTest, UpstreamLossJoinsTheDropCounter) {
  const std::string path = TempPath("export_upstream.jsonl");
  std::remove(path.c_str());
  AuditExporter::Options options;
  options.path = path;
  AuditExporter exporter(options);
  exporter.AddUpstreamLoss(7);
  exporter.Offer(FullRecord());
  exporter.Close();
  EXPECT_EQ(exporter.counters().records, 1u);
  EXPECT_EQ(exporter.counters().drops, 7u);
}

TEST(AuditExporterTest, UnwritablePathFailsLoudlyWithExactAccounting) {
  AuditExporter::Options options;
  options.path = "/nonexistent-dir/sub/audit.jsonl";
  AuditExporter exporter(options);
  for (int i = 0; i < 3; ++i) exporter.Offer(FullRecord());
  exporter.Close();
  EXPECT_TRUE(exporter.failed());
  EXPECT_EQ(exporter.counters().records, 0u);
  EXPECT_EQ(exporter.counters().drops, 3u);
}

TEST(AuditExporterTest, CloseIsIdempotentAndOffersAfterCloseDrop) {
  const std::string path = TempPath("export_close.jsonl");
  std::remove(path.c_str());
  AuditExporter::Options options;
  options.path = path;
  AuditExporter exporter(options);
  exporter.Offer(FullRecord());
  exporter.Close();
  exporter.Close();
  exporter.Offer(FullRecord());
  EXPECT_EQ(exporter.counters().records, 1u);
  EXPECT_EQ(exporter.counters().drops, 1u);
  EXPECT_EQ(ReadLines(path).size(), 1u);
}

// ------------------------------------------------- service integration

Policy TinyPolicy() {
  Policy policy("audit-tiny");
  RoleSpec role;
  role.name = "worker";
  role.permissions.insert(Permission{"read", "ledger"});
  (void)policy.AddRole(std::move(role));
  UserSpec user;
  user.name = "alice";
  user.assignments.insert("worker");
  (void)policy.AddUser(std::move(user));
  return policy;
}

TEST(ServiceAuditTest, ExportsEveryEngineDecisionWithExactAccounting) {
  const std::string path = TempPath("service_audit.jsonl");
  std::remove(path.c_str());
  ServiceConfig config;
  config.synchronous = true;
  config.num_shards = 1;
  config.audit_path = path;
  AuthorizationService service(config);
  ASSERT_TRUE(service.init_status().ok());
  ASSERT_TRUE(service.LoadPolicy(TinyPolicy()).ok());

  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "s1", "worker").ok());
  uint64_t issued = 2;
  for (int i = 0; i < 20; ++i) {
    AccessRequest request;
    request.user = "alice";
    request.session = "s1";
    request.operation = i % 2 == 0 ? "read" : "write";  // write -> deny.
    request.object = "ledger";
    const AccessDecision decision = service.CheckAccess(request);
    EXPECT_EQ(decision.outcome, AccessOutcome::kDecided);
    ++issued;
  }
  const ServiceStats live = service.Stats();
  EXPECT_EQ(live.decisions, issued);
  service.Shutdown();

  const auto counters = service.audit_exporter()->counters();
  EXPECT_EQ(counters.drops, 0u);
  EXPECT_EQ(counters.records, issued);
  const auto lines = ReadLines(path);
  ASSERT_EQ(lines.size(), issued);
  uint64_t last_seq = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    AuditRecord parsed;
    ASSERT_TRUE(ParseJsonLine(lines[i], &parsed)) << lines[i];
    EXPECT_EQ(parsed.shard, 0);
    if (i > 0) {
      EXPECT_EQ(parsed.seq, last_seq + 1) << "gap at line " << i;
    }
    last_seq = parsed.seq;
  }

  // Post-shutdown Stats still surfaces the final exporter counters.
  const ServiceStats final_stats = service.Stats();
  EXPECT_EQ(final_stats.audit_records, issued);
  EXPECT_EQ(final_stats.audit_drops, 0u);
  EXPECT_GT(final_stats.audit_bytes, 0u);
}

TEST(ServiceAuditTest, MetricsSurfaceAuditCounters) {
  const std::string path = TempPath("service_audit_metrics.jsonl");
  std::remove(path.c_str());
  ServiceConfig config;
  config.synchronous = true;
  config.num_shards = 1;
  config.audit_path = path;
  AuthorizationService service(config);
  ASSERT_TRUE(service.LoadPolicy(TinyPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  service.audit_exporter()->Flush();

  const std::string text = service.RenderMetrics();
  EXPECT_NE(text.find("decision_log_overflow_total"), std::string::npos);
  EXPECT_NE(text.find("audit_export_records_total"), std::string::npos);
  EXPECT_NE(text.find("audit_export_drops_total"), std::string::npos);
  EXPECT_NE(text.find("audit_export_bytes_total"), std::string::npos);
  const std::string json = service.RenderMetricsJson();
  EXPECT_NE(json.find("audit_export_records_total"), std::string::npos);
  service.Shutdown();
}

TEST(ServiceAuditTest, ShedSingleCallsExportAttributedOverloadRecords) {
  const std::string path = TempPath("service_audit_shed.jsonl");
  std::remove(path.c_str());
  ServiceConfig config;
  config.num_shards = 1;
  config.mailbox_capacity = 2;
  config.overload_policy = OverloadPolicy::kShed;
  config.audit_path = path;
  AuthorizationService service(config);
  ASSERT_TRUE(service.init_status().ok());
  ASSERT_TRUE(service.LoadPolicy(TinyPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "s1", "worker").ok());

  // Stall the shard on a gate, then fill its two mailbox slots.
  std::mutex mu;
  std::condition_variable cv;
  bool stalled = false, open = false;
  ASSERT_TRUE(service.InjectShardFault(0, [&] {
    std::unique_lock<std::mutex> lock(mu);
    stalled = true;
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
  }));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return stalled; });
  }
  AccessRequest queued;
  queued.user = "alice";
  queued.session = "s1";
  queued.operation = "read";
  queued.object = "ledger";
  std::vector<std::thread> fillers;
  for (int i = 0; i < 2; ++i) {
    fillers.emplace_back([&] {
      EXPECT_EQ(service.CheckAccess(queued).outcome,
                AccessOutcome::kDecided);
    });
  }
  while (service.MailboxDepth(0) < 2) std::this_thread::yield();

  AccessRequest shed;
  shed.user = "alice";
  shed.session = "s1";
  shed.operation = "write";
  shed.object = "vault";
  const AccessDecision refused = service.CheckAccess(shed);
  EXPECT_EQ(refused.outcome, AccessOutcome::kOverloaded);
  EXPECT_EQ(refused.reason, "overloaded: shed");
  // A session op is shed the same way, and named by its op and role.
  const AdminResult dropped = service.DropActiveRole("alice", "s1", "worker");
  EXPECT_TRUE(dropped.status.IsResourceExhausted()) << dropped.status;
  {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
  }
  cv.notify_all();
  for (std::thread& filler : fillers) filler.join();
  service.Shutdown();

  size_t overload_records = 0;
  std::map<std::string, std::string> object_by_op;
  for (const std::string& line : ReadLines(path)) {
    AuditRecord parsed;
    ASSERT_TRUE(ParseJsonLine(line, &parsed)) << line;
    if (parsed.kind != "service.overload") continue;
    ++overload_records;
    EXPECT_EQ(parsed.user, "alice");
    EXPECT_EQ(parsed.session, "s1");
    EXPECT_EQ(parsed.reason, "overloaded: shed");
    object_by_op[parsed.op] = parsed.object;
  }
  const std::map<std::string, std::string> expected = {
      {"write", "vault"}, {"DropActiveRole", "worker"}};
  EXPECT_EQ(object_by_op, expected);
  EXPECT_EQ(overload_records, 2u);
}

TEST(ServiceAuditTest, RejectsZeroQueueCapacityWithAuditPath) {
  ServiceConfig config;
  config.audit_path = TempPath("never_written.jsonl");
  config.audit_queue_capacity = 0;
  EXPECT_FALSE(AuthorizationService::ValidateConfig(config).ok());
}

}  // namespace
}  // namespace audit
}  // namespace sentinel
