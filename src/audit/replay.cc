#include "audit/replay.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "common/clock.h"
#include "core/engine.h"

namespace sentinel {
namespace audit {

Result<std::vector<AuditRecord>> LoadCaptureFile(const std::string& path,
                                                 uint64_t* parse_errors) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open capture file: " + path);
  }
  std::vector<AuditRecord> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    AuditRecord record;
    if (ParseJsonLine(line, &record)) {
      records.push_back(std::move(record));
    } else if (parse_errors != nullptr) {
      ++*parse_errors;
    }
  }
  return records;
}

namespace {

/// Re-executes one record through `engine` and returns the fresh verdict;
/// returns false when the kind is not replayable (caller counts a skip).
bool ReExecute(AuthorizationEngine& engine, const AuditRecord& r,
               Decision* out) {
  const std::string& kind = r.kind;
  if (kind == "rbac.checkAccess") {
    *out = engine.CheckAccess(r.session, r.op, r.object, r.purpose);
  } else if (kind == "rbac.createSession") {
    *out = engine.CreateSession(r.user, r.session);
  } else if (kind == "rbac.deleteSession") {
    *out = engine.DeleteSession(r.session);
  } else if (kind == "rbac.addActiveRole") {
    *out = engine.AddActiveRole(r.user, r.session, r.role);
  } else if (kind == "rbac.dropActiveRole") {
    *out = engine.DropActiveRole(r.user, r.session, r.role);
  } else if (kind == "rbac.assignUser") {
    *out = engine.AssignUser(r.user, r.role);
  } else if (kind == "rbac.deassignUser") {
    *out = engine.DeassignUser(r.user, r.role);
  } else if (kind == "rbac.enableRole") {
    *out = engine.EnableRole(r.role);
  } else if (kind == "rbac.disableRole") {
    *out = engine.DisableRole(r.role);
  } else if (kind == "rbac.contextChanged") {
    // State-bearing but verdict-free: apply for its effect on later
    // records, nothing to diff (the capture side logs a synthetic allow).
    engine.SetContext(r.op, r.object);
    return false;
  } else {
    return false;
  }
  return true;
}

const char* kDefaultDenyKey = "(default-deny)";

/// How many differences CompareCaptures spells out; its counters are exact.
constexpr size_t kMaxCaptureDiffDetails = 20;

/// `r` as one JSON line with the wall-clock fields zeroed: two records are
/// the same decision exactly when their canonical lines are equal.
std::string CanonicalLine(AuditRecord r) {
  r.wall_us = 0;
  r.latency_us = 0;
  std::string line;
  AppendJsonLine(r, &line);
  line.pop_back();  // The trailing newline.
  return line;
}

}  // namespace

Result<ReplayReport> ReplayCapture(const std::vector<AuditRecord>& records,
                                   const Policy& candidate,
                                   const ReplayOptions& options) {
  SENTINEL_RETURN_IF_ERROR(candidate.Validate());

  // Group into per-shard streams; within a shard the exporter preserved
  // drain order, but interleaved batches make the file order global-ish —
  // a stable sort by seq restores each shard's exact decision order.
  std::map<int, std::vector<const AuditRecord*>> by_shard;
  ReplayReport report;
  for (const AuditRecord& r : records) {
    if (r.seq == 0 && r.kind.rfind("service.", 0) == 0) {
      ++report.skipped;  // Never reached an engine; nothing to re-decide.
      continue;
    }
    by_shard[r.shard].push_back(&r);
  }

  for (auto& [shard, stream] : by_shard) {
    std::stable_sort(stream.begin(), stream.end(),
                     [](const AuditRecord* a, const AuditRecord* b) {
                       return a->seq < b->seq;
                     });
    // Each shard replays in its own fresh single-threaded world, exactly
    // like the capture-side shard thread it mirrors.
    SimulatedClock clock;
    auto engine = std::make_unique<AuthorizationEngine>(&clock);
    engine->set_decision_log_capacity(0);  // The replay *is* the audit.
    SENTINEL_RETURN_IF_ERROR(engine->LoadPolicy(candidate));
    for (const AuditRecord* r : stream) {
      // Time-warp first: temporal rules (PERIODIC windows, PLUS expiries)
      // must have fired exactly as far as they had at capture time.
      if (r->sim_us > engine->Now()) engine->AdvanceTo(r->sim_us);
      Decision fresh;
      if (!ReExecute(*engine, *r, &fresh)) {
        ++report.skipped;
        continue;
      }
      ++report.replayed;
      const bool flipped = fresh.allowed != r->allowed;
      const bool moved =
          !flipped && (fresh.rule != r->rule || fresh.reason != r->reason);
      if (flipped) {
        if (r->allowed) {
          ++report.allow_to_deny;
        } else {
          ++report.deny_to_allow;
        }
        const std::string& key =
            fresh.rule.empty() ? kDefaultDenyKey : fresh.rule;
        ++report.flips_by_rule[key];
      } else if (moved) {
        ++report.outcome_changes;
      }
      if ((flipped || (moved && options.include_outcome_changes)) &&
          report.diffs.size() < options.max_diff_details) {
        VerdictDiff diff;
        diff.recorded = *r;
        diff.new_allowed = fresh.allowed;
        diff.new_rule = fresh.rule;
        diff.new_reason = fresh.reason;
        report.diffs.push_back(std::move(diff));
      }
    }
  }
  return report;
}

CaptureDiffReport CompareCaptures(const std::vector<AuditRecord>& capture,
                                  const std::vector<AuditRecord>& baseline) {
  // Each record's count in the capture minus its count in the baseline.
  // Engine records are unique by (shard, seq), so for them this is the
  // per-shard comparison in seq order; seq-0 service records compare as
  // the multiset they are.
  std::map<std::tuple<int, uint64_t, std::string>, int64_t> balance;
  for (const AuditRecord& r : capture) {
    ++balance[{r.shard, r.seq, CanonicalLine(r)}];
  }
  for (const AuditRecord& r : baseline) {
    --balance[{r.shard, r.seq, CanonicalLine(r)}];
  }
  CaptureDiffReport report;
  report.capture_records = capture.size();
  report.baseline_records = baseline.size();
  for (const auto& [key, count] : balance) {
    if (count == 0) continue;
    (count > 0 ? report.only_in_capture : report.only_in_baseline) +=
        static_cast<uint64_t>(count > 0 ? count : -count);
    if (report.diffs.size() < kMaxCaptureDiffDetails) {
      report.diffs.push_back(RecordDiff{std::get<0>(key), std::get<1>(key),
                                        count > 0, std::get<2>(key)});
    }
  }
  return report;
}

std::string CaptureDiffToText(const CaptureDiffReport& report) {
  std::string out;
  out += "capture_records: " + std::to_string(report.capture_records) + "\n";
  out += "baseline_records: " + std::to_string(report.baseline_records) +
         "\n";
  out += "only_in_capture: " + std::to_string(report.only_in_capture) + "\n";
  out += "only_in_baseline: " + std::to_string(report.only_in_baseline) +
         "\n";
  out += "record_diffs: " + std::to_string(report.differences()) + "\n";
  for (const RecordDiff& diff : report.diffs) {
    out += "  [shard " + std::to_string(diff.shard) + " seq " +
           std::to_string(diff.seq) + "] " +
           (diff.in_capture ? "capture only: " : "baseline only: ") +
           diff.line + "\n";
  }
  return out;
}

std::string ReportToText(const ReplayReport& report) {
  std::string out;
  out += "replayed: " + std::to_string(report.replayed) + "\n";
  out += "skipped: " + std::to_string(report.skipped) + "\n";
  out += "allow_to_deny: " + std::to_string(report.allow_to_deny) + "\n";
  out += "deny_to_allow: " + std::to_string(report.deny_to_allow) + "\n";
  out += "outcome_changes: " + std::to_string(report.outcome_changes) + "\n";
  out += "verdict_diffs: " + std::to_string(report.flips()) + "\n";
  for (const auto& [rule, count] : report.flips_by_rule) {
    out += "  flips by " + rule + ": " + std::to_string(count) + "\n";
  }
  size_t shown = 0;
  for (const VerdictDiff& diff : report.diffs) {
    const AuditRecord& r = diff.recorded;
    out += "  [" + std::to_string(r.shard) + "/" + std::to_string(r.seq) +
           "] " + r.kind;
    if (!r.user.empty()) out += " user=" + r.user;
    if (!r.session.empty()) out += " session=" + r.session;
    if (!r.role.empty()) out += " role=" + r.role;
    if (!r.op.empty()) out += " op=" + r.op;
    if (!r.object.empty()) out += " obj=" + r.object;
    out += std::string(": ") + (r.allowed ? "allow" : "deny") + " -> " +
           (diff.new_allowed ? "allow" : "deny");
    if (!diff.new_rule.empty()) out += " by " + diff.new_rule;
    if (!diff.new_reason.empty()) out += " (" + diff.new_reason + ")";
    out += "\n";
    if (++shown >= 50) {
      out += "  ... " + std::to_string(report.diffs.size() - shown) +
             " more\n";
      break;
    }
  }
  return out;
}

std::string ReportToJson(const ReplayReport& report) {
  std::string out = "{";
  out += "\"replayed\":" + std::to_string(report.replayed);
  out += ",\"skipped\":" + std::to_string(report.skipped);
  out += ",\"allow_to_deny\":" + std::to_string(report.allow_to_deny);
  out += ",\"deny_to_allow\":" + std::to_string(report.deny_to_allow);
  out += ",\"outcome_changes\":" + std::to_string(report.outcome_changes);
  out += ",\"flips_by_rule\":{";
  bool first = true;
  for (const auto& [rule, count] : report.flips_by_rule) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(rule, &out);
    out += ":" + std::to_string(count);
  }
  out += "},\"diffs\":[";
  first = true;
  for (const VerdictDiff& diff : report.diffs) {
    if (!first) out += ",";
    first = false;
    out += "{\"shard\":" + std::to_string(diff.recorded.shard);
    out += ",\"seq\":" + std::to_string(diff.recorded.seq);
    out += ",\"kind\":";
    AppendJsonString(diff.recorded.kind, &out);
    out += ",\"was\":";
    out += diff.recorded.allowed ? "true" : "false";
    out += ",\"now\":";
    out += diff.new_allowed ? "true" : "false";
    out += ",\"rule\":";
    AppendJsonString(diff.new_rule, &out);
    out += ",\"reason\":";
    AppendJsonString(diff.new_reason, &out);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace audit
}  // namespace sentinel
