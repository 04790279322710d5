#ifndef SENTINELPP_AUDIT_REPLAY_H_
#define SENTINELPP_AUDIT_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "audit/record.h"
#include "common/status.h"
#include "core/policy.h"

namespace sentinel {
namespace audit {

/// One verdict that changed between the capture and the candidate policy.
struct VerdictDiff {
  AuditRecord recorded;      // What production decided.
  bool new_allowed = false;  // What the candidate policy decides.
  std::string new_rule;
  std::string new_reason;
};

/// \brief Outcome of replaying a captured decision stream against a
/// candidate policy — the answer to "what breaks if I ship this change?".
struct ReplayReport {
  uint64_t replayed = 0;  // Records re-executed through an engine.
  uint64_t skipped = 0;   // seq==0 service records, context markers,
                          // unknown kinds (forward compat).
  uint64_t allow_to_deny = 0;
  uint64_t deny_to_allow = 0;
  /// Verdict kept its allow/deny but the deciding rule or denial reason
  /// moved — the "same answer, different law" class of change.
  uint64_t outcome_changes = 0;
  /// Flip counts keyed by the candidate policy's deciding rule (the rule
  /// that now denies what was allowed, or allows what was denied) —
  /// per-rule attribution for the diff summary. Unattributed fail-safe
  /// denials key as "(default-deny)".
  std::map<std::string, uint64_t> flips_by_rule;
  /// Every flip plus (optionally) every outcome change, in replay order.
  std::vector<VerdictDiff> diffs;

  uint64_t flips() const { return allow_to_deny + deny_to_allow; }
};

struct ReplayOptions {
  /// Record outcome_changes (rule/reason moved, verdict same) as diffs too.
  bool include_outcome_changes = true;
  /// Cap on retained VerdictDiff details (counters are always exact).
  size_t max_diff_details = 1000;
};

/// Loads a JSONL capture (as written by AuditExporter). Lines that fail to
/// parse are counted into *parse_errors (when non-null) and skipped; an
/// unreadable file is an error.
Result<std::vector<AuditRecord>> LoadCaptureFile(const std::string& path,
                                                 uint64_t* parse_errors);

/// \brief Re-executes `records` against `candidate` and diffs the verdicts.
///
/// Records are grouped by their originating shard and each shard's stream
/// replays, in sequence order, through a dedicated fresh engine — the same
/// single-threaded-per-shard world the capture came from. Before each
/// record, the engine's simulated clock is advanced to the record's sim
/// time, so PERIODIC windows, duration expiries and every other temporal
/// rule fire exactly as they did (or would have) at capture time.
///
/// seq==0 records (service-level overload/fast-path markers) have no place
/// in the ordered stream and are skipped, as are kinds this binary does not
/// know (a newer stream, per the add-only schema contract).
Result<ReplayReport> ReplayCapture(const std::vector<AuditRecord>& records,
                                   const Policy& candidate,
                                   const ReplayOptions& options = {});

/// A record found in one capture only (a changed record is one on each
/// side).
struct RecordDiff {
  int shard = 0;
  uint64_t seq = 0;
  bool in_capture = false;  // Else it is in the baseline only.
  std::string line;         // The record, wall-clock fields zeroed.
};

/// \brief Outcome of comparing two captures of one workload — "did this
/// change move any decision?", answered without an engine.
struct CaptureDiffReport {
  uint64_t capture_records = 0;
  uint64_t baseline_records = 0;
  uint64_t only_in_capture = 0;
  uint64_t only_in_baseline = 0;
  /// The first 20 differences in (shard, seq) order; counters are exact.
  std::vector<RecordDiff> diffs;

  uint64_t differences() const { return only_in_capture + only_in_baseline; }
};

/// Compares two captures on every field except `wall_us` and `latency_us`:
/// engine records per shard in seq order, and service-level records, which
/// have no order against the shard streams, as a multiset.
CaptureDiffReport CompareCaptures(const std::vector<AuditRecord>& capture,
                                  const std::vector<AuditRecord>& baseline);

/// Renders the comparison as a human-readable summary (stable format).
std::string CaptureDiffToText(const CaptureDiffReport& report);

/// Renders the report as a human-readable summary (stable format — the
/// check.sh replay stage greps it).
std::string ReportToText(const ReplayReport& report);

/// Renders the report as a single JSON object (machine consumption).
std::string ReportToJson(const ReplayReport& report);

}  // namespace audit
}  // namespace sentinel

#endif  // SENTINELPP_AUDIT_REPLAY_H_
