#include "core/report.h"

#include <sstream>

#include "common/calendar.h"
#include "core/engine.h"

namespace sentinel {

std::string GenerateAdminReport(const AuthorizationEngine& engine,
                                const ReportOptions& options) {
  std::ostringstream os;
  const Policy& policy = engine.policy();

  os << "=== sentinelpp administrator report ===\n";
  os << "time: " << FormatTime(engine.Now()) << "\n";
  os << "policy: \"" << policy.name() << "\" (" << policy.roles().size()
     << " roles, " << policy.users().size() << " users)\n\n";

  // ------------------------------------------------------------- Decisions
  os << "-- decisions --\n";
  os << "total: " << engine.decisions_made()
     << "  denials: " << engine.denials();
  if (engine.decisions_made() > 0) {
    os << "  (deny rate "
       << (100 * engine.denials() / engine.decisions_made()) << "%)";
  }
  os << "\n\n";

  // -------------------------------------------------------------- The pool
  const RuleManager& rules = engine.rule_manager();
  os << "-- rule pool --\n";
  os << "rules: " << rules.rule_count()
     << "  fired: " << rules.total_fired()
     << "  events: " << engine.detector().registry().size()
     << "  pending timers: " << engine.detector().pending_timer_count()
     << "\n";
  os << "administrative: " << rules.CountByClass(RuleClass::kAdministrative)
     << "  activity-control: "
     << rules.CountByClass(RuleClass::kActivityControl)
     << "  active-security: "
     << rules.CountByClass(RuleClass::kActiveSecurity) << "\n";
  int disabled_rules = 0;
  for (const Rule* rule : rules.rules()) {
    if (!rule->enabled()) ++disabled_rules;
  }
  if (disabled_rules > 0) {
    os << "DISABLED rules: " << disabled_rules << " —";
    for (const Rule* rule : rules.rules()) {
      if (!rule->enabled()) os << ' ' << rule->name();
    }
    os << "\n";
  }
  os << "\n";

  // ----------------------------------------------------------- Role states
  const auto disabled_roles = engine.role_state().DisabledRoles();
  os << "-- roles --\n";
  os << "disabled: " << disabled_roles.size();
  for (const RoleName& role : disabled_roles) os << ' ' << role;
  os << "\n\n";

  // -------------------------------------------------------------- Sessions
  if (options.include_sessions) {
    os << "-- sessions (" << engine.rbac().db().session_count() << ") --\n";
    for (const SessionId& session : engine.rbac().db().SessionIds()) {
      auto info = engine.rbac().db().GetSession(session);
      if (!info.ok()) continue;
      os << session << " (" << info->user << "):";
      for (const RoleName& role : info->active_roles) os << ' ' << role;
      os << "\n";
    }
    os << "\n";
  }

  // ---------------------------------------------------------------- Alerts
  const auto& alerts = engine.security().alerts();
  os << "-- security alerts (" << alerts.size() << ") --\n";
  for (const SecurityAlert& alert : alerts) {
    os << FormatTime(alert.when) << " [" << alert.directive << "] "
       << alert.detail << " (observed " << alert.observed_count << ")\n";
  }
  os << "\n";

  // ------------------------------------------------------------- Telemetry
  const telemetry::RegistrySnapshot metrics = engine.metrics().Snapshot();
  os << "-- telemetry --\n";
  os << "audit trail overflow: " << engine.decision_log_overflow()
     << " records shed\n";
  const telemetry::HistogramSnapshot* latency =
      metrics.FindHistogram("decision_latency_us");
  if (latency != nullptr && latency->TotalCount() > 0) {
    os << "decision latency (us, sampled): p50 " << latency->Percentile(50)
       << "  p90 " << latency->Percentile(90) << "  p99 "
       << latency->Percentile(99) << "  samples " << latency->TotalCount()
       << "\n";
  }
  const telemetry::CounterSnapshot* occurrences =
      metrics.FindCounter("event_occurrences_total");
  const telemetry::CounterSnapshot* firings =
      metrics.FindCounter("rule_firings_total");
  const telemetry::CounterSnapshot* dropped =
      metrics.FindCounter("dropped_firings_total");
  os << "event occurrences: " << (occurrences ? occurrences->value : 0)
     << "  rule firings: " << (firings ? firings->value : 0)
     << "  dropped firings: " << (dropped ? dropped->value : 0) << "\n";
  // Overload and fast-path series exist only when this engine is a service
  // shard (the AuthorizationService registers them at construction).
  const telemetry::CounterSnapshot* fastpath =
      metrics.FindCounter("decision_cache_fastpath_hits_total");
  if (fastpath != nullptr && fastpath->value > 0) {
    os << "zero-hop fast path: " << fastpath->value
       << " verdicts answered caller-side\n";
  }
  const telemetry::CounterSnapshot* shed =
      metrics.FindCounter("mailbox_shed_total");
  const telemetry::CounterSnapshot* expired =
      metrics.FindCounter("mailbox_expired_total");
  if (shed != nullptr || expired != nullptr) {
    os << "overload: shed " << (shed ? shed->value : 0) << "  expired "
       << (expired ? expired->value : 0);
    const telemetry::HistogramSnapshot* wait =
        metrics.FindHistogram("mailbox_queue_wait_us");
    if (wait != nullptr && wait->TotalCount() > 0) {
      os << "  queue wait (us): p50 " << wait->Percentile(50) << "  p99 "
         << wait->Percentile(99);
    }
    const telemetry::HistogramSnapshot* depth =
        metrics.FindHistogram("mailbox_queue_depth");
    if (depth != nullptr && depth->TotalCount() > 0) {
      os << "  queue depth: p99 " << depth->Percentile(99);
    }
    os << "\n";
  }
  os << "trace spans: " << engine.tracer().spans_recorded() << " recorded, "
     << engine.tracer().ring_size() << " retained\n\n";

  // -------------------------------------------------------- Recent denials
  if (options.recent_denials > 0) {
    os << "-- recent denials --\n";
    int listed = 0;
    const DecisionLog& log = engine.decision_log();
    const SymbolTable& symbols = engine.symbols();
    // Newest first: the log indexes oldest-first.
    for (size_t i = log.size(); i > 0 && listed < options.recent_denials;
         --i) {
      const DecisionRecord& record = log[i - 1];
      if (record.allowed) continue;
      os << FormatTime(record.when) << ' ' << symbols.NameOf(record.event)
         << " -> "
         << (record.rule.valid() ? symbols.NameOf(record.rule) : "(default)")
         << ": " << symbols.NameOf(record.reason) << "\n";
      ++listed;
    }
    if (listed == 0) os << "(none in the audit trail)\n";
  }
  return os.str();
}

}  // namespace sentinel
