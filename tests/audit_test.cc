#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
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

// The exact bytes of a line: key order, number format and escapes. The
// round-trip tests above would pass a writer that changed any of them.
TEST(AuditRecordTest, WritesPinnedBytesForEveryField) {
  AuditRecord record;
  record.seq = 4294967297;
  record.shard = 3;
  record.epoch = 7;
  record.wall_us = 1786240945885250;
  record.sim_us = 1783328400000000;
  record.kind = "rbac.checkAccess";
  record.user = "al\"ice";
  record.session = "s\\1";
  record.role = "Doc\x01tor";
  record.op = "re\tad";
  record.object = "chart-\xc3\xa9\xe4\xb8\x96";  // chart-é世
  record.purpose = "treat\nment";
  record.allowed = false;
  record.outcome = 1;
  record.rule = "CA.global";
  record.reason = "Permission Denied";
  record.failed_condition = "ANY role IN getSessionRoles";
  record.latency_us = 12;
  std::string line;
  AppendJsonLine(record, &line);
  EXPECT_EQ(line,
            "{\"v\":1,\"seq\":4294967297,\"shard\":3,\"epoch\":7,"
            "\"wall_us\":1786240945885250,\"sim_us\":1783328400000000,"
            "\"kind\":\"rbac.checkAccess\",\"user\":\"al\\\"ice\","
            "\"session\":\"s\\\\1\",\"role\":\"Doc\\u0001tor\","
            "\"op\":\"re\\tad\",\"obj\":\"chart-\xc3\xa9\xe4\xb8\x96\","
            "\"purpose\":\"treat\\nment\",\"allowed\":false,\"outcome\":1,"
            "\"rule\":\"CA.global\",\"reason\":\"Permission Denied\","
            "\"failed_condition\":\"ANY role IN getSessionRoles\","
            "\"latency_us\":12}\n");
}

TEST(AuditRecordTest, WritesPinnedBytesWithEveryOptionalFieldEmpty) {
  std::string line;
  AppendJsonLine(AuditRecord(), &line);
  EXPECT_EQ(line,
            "{\"v\":1,\"seq\":0,\"shard\":0,\"epoch\":0,\"wall_us\":0,"
            "\"sim_us\":0,\"kind\":\"\",\"allowed\":false}\n");
}

// A queued record names things by symbol; the writer resolves them into
// the same bytes the text record writes.
TEST(AuditRecordTest, QueuedRecordWritesTheBytesOfItsText) {
  AuditRecord text = FullRecord();
  text.outcome = 0;  // Queued records are decided; refusals keep text.
  SymbolTable symbols;
  QueuedRecord queued;
  queued.symbols = &symbols;
  queued.epoch = text.epoch;
  queued.shard = text.shard;
  DecisionRecord& d = queued.decision;
  d.seq = text.seq;
  d.when = text.sim_us;
  d.wall_us = text.wall_us;
  d.latency_us = text.latency_us;
  d.event = symbols.Intern(text.kind);
  d.user = symbols.Intern(text.user);
  d.session = symbols.Intern(text.session);
  d.role = symbols.Intern(text.role);
  d.op = symbols.Intern(text.op);
  d.object = symbols.Intern(text.object);
  d.purpose = symbols.Intern(text.purpose);
  d.allowed = text.allowed;
  d.rule = symbols.Intern(text.rule);
  d.reason = symbols.Intern(text.reason);
  d.failed_condition = symbols.Intern(text.failed_condition);
  std::string want;
  AppendJsonLine(text, &want);
  std::string line;
  AppendJsonLine(View(queued), &line);
  EXPECT_EQ(line, want);
  EXPECT_EQ(FromDecisionRecord(d, symbols, text.shard, text.epoch).kind,
            text.kind);

  // A service kind names the record in place of the event; invalid
  // symbols and a null table read as absent fields.
  queued.kind = ServiceKind::kFastPath;
  queued.decision.role = Symbol();
  queued.decision.failed_condition = Symbol();
  AuditRecord expected = text;
  expected.kind = "service.fastpath";
  expected.role.clear();
  expected.failed_condition.clear();
  want.clear();
  AppendJsonLine(expected, &want);
  line.clear();
  AppendJsonLine(View(queued), &line);
  EXPECT_EQ(line, want);
  queued.symbols = nullptr;
  line.clear();
  AppendJsonLine(View(queued), &line);
  EXPECT_EQ(line.find("\"user\""), std::string::npos);
  EXPECT_NE(line.find("\"kind\":\"service.fastpath\""), std::string::npos);
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

/// Every line of `<path>.1`, `<path>.2`, ... up to the first missing file,
/// then of the live `<path>`: the stream oldest first.
std::vector<std::string> ReadRotatedLines(const std::string& path) {
  std::vector<std::string> lines;
  for (int n = 1;; ++n) {
    const std::string file = path + "." + std::to_string(n);
    if (!std::ifstream(file)) break;
    for (std::string& line : ReadLines(file)) lines.push_back(std::move(line));
  }
  for (std::string& line : ReadLines(path)) lines.push_back(std::move(line));
  return lines;
}

TEST(AuditExporterTest, RestartContinuesRotationNumbering) {
  const std::string path = TempPath("export_restart.jsonl");
  for (int i = 0; i <= 64; ++i) {
    std::remove((i == 0 ? path : path + "." + std::to_string(i)).c_str());
  }
  AuditExporter::Options options;
  options.path = path;
  options.rotate_bytes = 600;
  uint64_t seq = 0;
  // Two runs in turn on one path: the second resumes the live file and
  // must number its rotations after the first run's.
  for (int run = 0; run < 2; ++run) {
    AuditExporter exporter(options);
    for (int i = 0; i < 12; ++i) {
      AuditRecord record = FullRecord();
      record.seq = ++seq;
      exporter.Offer(std::move(record));
      exporter.Flush();
    }
    exporter.Close();
    EXPECT_FALSE(exporter.failed());
  }
  const std::vector<std::string> lines = ReadRotatedLines(path);
  ASSERT_EQ(lines.size(), 24u);
  for (size_t i = 0; i < lines.size(); ++i) {
    AuditRecord parsed;
    ASSERT_TRUE(ParseJsonLine(lines[i], &parsed)) << lines[i];
    EXPECT_EQ(parsed.seq, i + 1);
  }
}

TEST(AuditExporterTest, CountsOneBatchPerWrite) {
  const std::string path = TempPath("export_batches.jsonl");
  std::remove(path.c_str());
  AuditExporter::Options options;
  options.path = path;
  AuditExporter exporter(options);
  for (int i = 0; i < 40; ++i) {
    exporter.Offer(FullRecord());
    exporter.Flush();  // Each record is its own batch.
  }
  exporter.Close();
  EXPECT_EQ(exporter.counters().records, 40u);
  EXPECT_EQ(exporter.counters().batches, 40u);
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
  config.num_shards = 1;
  config.audit_path = path;
  AuthorizationService service(config);
  ASSERT_TRUE(service.LoadPolicy(TinyPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  service.audit_exporter()->Flush();

  // One record, flushed: one batch.
  EXPECT_EQ(service.audit_exporter()->counters().batches, 1u);

  const std::string text = service.RenderMetrics();
  EXPECT_NE(text.find("decision_log_overflow_total"), std::string::npos);
  EXPECT_NE(text.find("audit_export_records_total"), std::string::npos);
  EXPECT_NE(text.find("audit_export_drops_total"), std::string::npos);
  EXPECT_NE(text.find("audit_export_bytes_total"), std::string::npos);
  EXPECT_NE(text.find("audit_export_batches_total 1\n"), std::string::npos);
  const std::string json = service.RenderMetricsJson();
  EXPECT_NE(json.find("audit_export_records_total"), std::string::npos);
  EXPECT_NE(json.find("audit_export_batches_total"), std::string::npos);
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

// The tap drains after every engine call, so one batch envelope longer
// than the ring loses nothing.
TEST(ServiceAuditTest, BatchLongerThanTheRingExportsEveryRecord) {
  const std::string path = TempPath("service_audit_long_batch.jsonl");
  std::remove(path.c_str());
  ServiceConfig config;
  config.num_shards = 1;
  config.decision_log_capacity = 8;
  config.audit_path = path;
  AuthorizationService service(config);
  ASSERT_TRUE(service.init_status().ok());
  ASSERT_TRUE(service.LoadPolicy(TinyPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "s1", "worker").ok());

  AccessRequest request;
  request.user = "alice";
  request.session = "s1";
  request.operation = "read";
  request.object = "ledger";
  const std::vector<AccessRequest> batch(64, request);
  for (const AccessDecision& decision : service.CheckAccessBatch(batch)) {
    EXPECT_TRUE(decision.allowed);
  }
  service.Shutdown();

  size_t checks = 0;
  for (const std::string& line : ReadLines(path)) {
    AuditRecord parsed;
    ASSERT_TRUE(ParseJsonLine(line, &parsed)) << line;
    if (parsed.kind == "rbac.checkAccess") ++checks;
  }
  EXPECT_EQ(checks, 64u);
  EXPECT_EQ(service.audit_exporter()->counters().drops, 0u);
}

TEST(ServiceAuditTest, AdminRecordsCarryTheEpochTheCallReturns) {
  const std::string path = TempPath("service_audit_epochs.jsonl");
  std::remove(path.c_str());
  ServiceConfig config;
  config.num_shards = 1;
  config.audit_path = path;
  AuthorizationService service(config);
  Policy policy = TinyPolicy();
  RoleSpec auditor;
  auditor.name = "auditor";
  auditor.permissions.insert(Permission{"read", "report"});
  ASSERT_TRUE(policy.AddRole(std::move(auditor)).ok());
  ASSERT_TRUE(service.LoadPolicy(policy).ok());
  const uint64_t loaded = service.admin_epoch();

  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  const AccessRequest check{"alice", "s1", "read", "ledger", ""};
  const AccessDecision before = service.CheckAccess(check);
  const AdminResult assigned = service.AssignUser("alice", "auditor");
  ASSERT_TRUE(assigned.ok()) << assigned.status;
  ASSERT_GT(assigned.epoch, loaded);
  const AccessDecision after = service.CheckAccess(check);
  service.SetContext("location", "office");
  const uint64_t context_epoch = service.admin_epoch();
  ASSERT_GT(context_epoch, assigned.epoch);
  EXPECT_EQ(before.epoch, loaded);
  EXPECT_EQ(after.epoch, assigned.epoch);
  service.audit_exporter()->Flush();

  // A broadcast's own record carries the epoch its caller is told; checks
  // on either side of it carry the epoch they were decided under.
  std::vector<std::pair<std::string, uint64_t>> got;
  for (const std::string& line : ReadLines(path)) {
    AuditRecord parsed;
    ASSERT_TRUE(ParseJsonLine(line, &parsed)) << line;
    got.emplace_back(parsed.kind, parsed.epoch);
  }
  const std::vector<std::pair<std::string, uint64_t>> want = {
      {"rbac.createSession", loaded},
      {"rbac.checkAccess", loaded},
      {"rbac.assignUser", assigned.epoch},
      {"rbac.checkAccess", assigned.epoch},
      {"rbac.contextChanged", context_epoch}};
  EXPECT_EQ(got, want);
  service.Shutdown();
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
