#ifndef SENTINELPP_AUDIT_RECORD_H_
#define SENTINELPP_AUDIT_RECORD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/interner.h"
#include "core/decision_log.h"

namespace sentinel {
namespace audit {

/// \brief One line of the durable audit stream — the exporter's stable,
/// add-only schema (version field `v`, currently 1).
///
/// "Add-only" is the compatibility contract: a future version may introduce
/// new keys but never rename, retype or remove existing ones, and the parser
/// ignores keys it does not know — so an old reader survives a new stream
/// and a new reader survives an old one. Keep that in mind before touching
/// any field here.
///
/// Records carry both clocks: `sim_us` is the engine's simulated time (what
/// temporal rules evaluated against — replay re-warps to it), `wall_us` the
/// wall-clock capture instant (what external log correlation joins on).
///
/// `Text` is std::string for a record that owns its words (AuditRecord: a
/// parsed line, a refused request) and std::string_view for the view the
/// serializer reads (RecordView).
template <typename Text>
struct BasicAuditRecord {
  int v = 1;
  /// Per-shard DecisionLog sequence. 0 marks a service-level record that
  /// never reached an engine (overload shed, deadline expiry, fast-path
  /// answer) — such records have no total order against the shard stream
  /// and are skipped by replay.
  uint64_t seq = 0;
  int shard = 0;
  /// Admin epoch of the deciding shard when it recorded the decision: the
  /// last admin broadcast it had applied, or, for a broadcast's own
  /// records, the one it was applying. A service-level record carries the
  /// service's admin epoch at the moment it was written.
  uint64_t epoch = 0;
  int64_t wall_us = 0;
  int64_t sim_us = 0;
  /// The request event's name ("rbac.checkAccess", "rbac.addActiveRole",
  /// ...), or a service-level marker ("service.overload", "service.fastpath").
  Text kind;
  // Request attribution; empty fields are omitted from the line.
  Text user;
  Text session;
  Text role;
  Text op;
  Text object;
  Text purpose;
  bool allowed = false;
  /// Mirrors AccessOutcome: 0 decided, 1 overloaded, 2 shutdown.
  int outcome = 0;
  Text rule;
  Text reason;
  Text failed_condition;
  /// Sampled dispatch latency (us); 0 when this request was unsampled.
  int64_t latency_us = 0;
};

using AuditRecord = BasicAuditRecord<std::string>;
using RecordView = BasicAuditRecord<std::string_view>;

/// The kinds of record a service writes itself (seq 0): verdicts that never
/// reached an engine, and the swap marker. kNone: an engine record, whose
/// kind is its request event.
enum class ServiceKind : uint8_t { kNone, kFastPath, kOverload, kSwap };

/// "service.fastpath", "service.overload", "service.swap"; empty for kNone.
std::string_view KindName(ServiceKind kind);

/// \brief One record on the exporter's hand-off queue.
///
/// Fixed-field: the engine's DecisionRecord as the ring stored it plus the
/// fields the service adds, so queueing a record copies no text. The names are
/// symbols of `symbols` — the deciding shard's table — and only the audit
/// writer resolves them (SymbolTable::NameOf is safe from any thread, and a
/// name never moves). The table must therefore outlive the record: the
/// service closes its exporter before any engine dies.
///
/// Its outcome is "decided" (0). A record that names requests no shard
/// table holds — a refusal carries whatever the client sent — keeps its
/// words in `text` instead, and every field, outcome included, then comes
/// from there.
struct QueuedRecord {
  DecisionRecord decision;
  /// Resolves `decision`'s symbols; null reads every name as empty.
  const SymbolTable* symbols = nullptr;
  uint64_t epoch = 0;
  int shard = 0;
  ServiceKind kind = ServiceKind::kNone;
  std::unique_ptr<AuditRecord> text{};
};

/// The serializer's view of a record. For a QueuedRecord, names resolve
/// through its table; the views live as long as the record (or the table).
RecordView View(const AuditRecord& record);
RecordView View(const QueuedRecord& record);

/// Builds the text record for one engine decision, names resolved through
/// `symbols`. `epoch` is the shard's admin epoch at record time.
AuditRecord FromDecisionRecord(const DecisionRecord& record,
                               const SymbolTable& symbols, int shard,
                               uint64_t epoch);

/// Serializes `record` as one JSON object and appends it plus '\n' to *out.
/// Empty string fields and a zero latency are omitted; key order is fixed,
/// so identical records serialize identically (replay corpora diff cleanly).
/// The one serializer: the exporter and the replay tool both write through
/// it.
void AppendJsonLine(const RecordView& record, std::string* out);
inline void AppendJsonLine(const AuditRecord& record, std::string* out) {
  AppendJsonLine(View(record), out);
}

/// Parses one exported line (with or without the trailing newline) back into
/// *out. Unknown keys are ignored per the add-only contract; missing keys
/// keep their defaults. Returns false on malformed input, with a short
/// description in *error when non-null.
bool ParseJsonLine(std::string_view line, AuditRecord* out,
                   std::string* error = nullptr);

/// Appends the JSON string escape of `s` (including the surrounding quotes):
/// `"` `\` and control characters are escaped, all other bytes — UTF-8
/// included — pass through verbatim.
void AppendJsonString(std::string_view s, std::string* out);

}  // namespace audit
}  // namespace sentinel

#endif  // SENTINELPP_AUDIT_RECORD_H_
