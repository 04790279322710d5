/// \file
/// \brief sentinelpp public facade.
///
/// This is the one header an embedding application includes. It defines the
/// stable request/decision value types of the service boundary and pulls in
/// the concurrent AuthorizationService plus the policy toolchain (DSL
/// parser, clock, calendar, reports).
///
/// The boundary contract: callers describe an access check as an
/// `AccessRequest` value and receive an `AccessDecision` value — no
/// positional string-parameter overloads, no engine internals. The
/// string-keyed `AuthorizationEngine` signatures remain as the internal
/// layer underneath `AuthorizationService`.
///
/// Layout note: the value types live under their own include guard, and the
/// umbrella includes under a second one, so that
/// `service/authorization_service.h` can include this header for the types
/// without an include cycle.

#ifndef SENTINELPP_API_SENTINELPP_TYPES_H_
#define SENTINELPP_API_SENTINELPP_TYPES_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/value.h"
#include "rbac/types.h"

namespace sentinel {

/// \brief One access-check request at the service boundary.
///
/// `user` is the routing key: every request for the same user is handled by
/// the same engine shard, which keeps that user's sessions, DSD state and
/// activation history shard-local. It may be left empty for pure
/// session-keyed checks (legacy callers); the service then resolves the
/// session's home shard through its session registry.
struct AccessRequest {
  /// `deadline` sentinel: opt this request out of the service-wide
  /// ServiceConfig::default_deadline. This is the *only* meaningful
  /// negative deadline; the wire boundary (api/wire.h) rejects every other
  /// negative value with a typed protocol error, and the in-process path
  /// treats them as the sentinel via EffectiveDeadline below.
  static constexpr Duration kNoDeadline = -1;

  UserName user;
  SessionId session;
  OperationName operation;
  ObjectName object;
  /// Optional; required when the object carries a privacy policy.
  std::string purpose;
  /// Wall-clock decision budget in microseconds, measured from submission.
  /// A request still queued when its budget runs out is answered
  /// `AccessOutcome::kOverloaded` instead of consuming engine time. 0 (the
  /// default) inherits ServiceConfig::default_deadline; kNoDeadline makes
  /// this request wait however long it takes.
  Duration deadline = 0;

  /// The one place the deadline sentinel is interpreted. Resolves this
  /// request's wall budget against the service-wide default `fallback`:
  /// a positive return is the budget in microseconds, 0 means "no budget".
  /// 0 inherits `fallback`; kNoDeadline (and, in-process, any negative —
  /// the wire boundary has already rejected non-sentinel negatives)
  /// disables the budget even when a default is configured.
  Duration EffectiveDeadline(Duration fallback) const {
    if (deadline == 0) return fallback > 0 ? fallback : 0;
    if (deadline < 0) return 0;
    return deadline;
  }
};

/// \brief How the service arrived at an AccessDecision.
///
/// Distinguishes "the policy said no" from "the service never asked the
/// policy" — a load balancer retries kOverloaded, but must never retry its
/// way around a real denial.
enum class AccessOutcome : uint8_t {
  /// A rule-pool verdict: `allowed` is the policy's answer.
  kDecided = 0,
  /// Shed at a full mailbox or expired before dispatch; `allowed` is false
  /// but no policy evaluation happened. Maps to Status::ResourceExhausted.
  kOverloaded = 1,
  /// Submitted after Shutdown(); nothing was evaluated.
  kShutdown = 2,
};

/// \brief The service's verdict for one request.
///
/// A value type: safe to copy across threads, carries everything an
/// embedding application audits on — the verdict, the generated rule that
/// produced it, the paper-style denial reason, and service metadata
/// (which shard decided, under which administrative epoch, and the
/// submit-to-decision latency).
struct AccessDecision {
  bool allowed = false;
  /// Name of the generated OWTE rule that produced the verdict
  /// (e.g. "CA.global"); empty for the fail-safe default deny.
  std::string rule;
  /// Denial reason ("Permission Denied", ...). Empty for allows.
  std::string reason;
  /// The WHEN condition whose failure routed the deciding rule into its
  /// ELSE branch. Diagnostic only.
  std::string failed_condition;
  /// Submit-to-decision latency in microseconds of wall time (includes
  /// mailbox queueing in concurrent mode; 0 is possible for sub-µs calls).
  Duration latency = 0;
  /// Shard whose engine decided the request.
  uint32_t shard = 0;
  /// Administrative epoch the deciding shard had applied. Monotonic:
  /// once an admin broadcast returns, every later decision carries an
  /// epoch >= that broadcast's epoch on every shard.
  uint64_t epoch = 0;
  /// Whether `allowed` is a policy verdict at all — see AccessOutcome.
  AccessOutcome outcome = AccessOutcome::kDecided;
};

/// Maps the service-layer outcome onto the library's Status vocabulary:
/// OK for decided requests (allowed or denied — both are answers),
/// ResourceExhausted for overload, FailedPrecondition after shutdown.
inline Status ToStatus(const AccessDecision& decision) {
  switch (decision.outcome) {
    case AccessOutcome::kDecided:
      return Status::OK();
    case AccessOutcome::kOverloaded:
      return Status::ResourceExhausted(decision.reason);
    case AccessOutcome::kShutdown:
      return Status::FailedPrecondition(decision.reason);
  }
  return Status::Internal("unknown AccessOutcome");
}

/// \brief Result of a service mutator (session lifecycle, user/role
/// administration, role enable/disable).
///
/// Mutators used to return AccessDecision, overloading a type whose fields
/// (`rule`, `failed_condition`, fast-path semantics) only make sense for
/// access checks. AdminResult carries exactly what a mutating caller can
/// act on: did the mutation apply, under which administrative epoch, on
/// which shard.
struct AdminResult {
  /// OK — the mutation was applied. ConstraintViolation — the policy
  /// refused it (denial reason in the message). ResourceExhausted — shed
  /// or expired before evaluation (retryable). FailedPrecondition —
  /// submitted after Shutdown().
  Status status;
  /// Same vocabulary as AccessDecision::outcome: kDecided covers both
  /// applied and policy-refused; kOverloaded/kShutdown mean the policy was
  /// never asked.
  AccessOutcome outcome = AccessOutcome::kDecided;
  /// Administrative epoch the deciding shard had applied.
  uint64_t epoch = 0;
  /// Shard that decided (the authoritative shard for broadcast mutators).
  uint32_t shard = 0;
  /// Submit-to-decision latency in microseconds of wall time.
  Duration latency = 0;

  bool ok() const { return status.ok(); }
};

}  // namespace sentinel

#endif  // SENTINELPP_API_SENTINELPP_TYPES_H_

// ----------------------------------------------------------- Facade umbrella
// (separately guarded; see the layout note above).
#ifndef SENTINELPP_API_SENTINELPP_H_
#define SENTINELPP_API_SENTINELPP_H_

#include "common/calendar.h"
#include "common/clock.h"
#include "core/policy_parser.h"
#include "core/report.h"
#include "rules/decision.h"
#include "service/authorization_service.h"
#include "telemetry/exposition.h"

#endif  // SENTINELPP_API_SENTINELPP_H_
