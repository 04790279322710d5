// Traced-run layer calls: on the workload's own inputs, time direct calls
// into each layer below the wire, so a layer's self time is its call time
// minus the time of the layer below on the same inputs.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "bench.h"

namespace perfbench {

/// AuthorizationService::CheckAccess one request per call, then
/// CheckAccessBatchInto in batches of `batch` requests (the reactor's
/// observed sweep size), continuing each connection's key stream from
/// `cursors` so cold keys stay cold. Fills `decisions` with the verdicts
/// for the codec calls.
void TimeServiceChecks(sentinel::AuthorizationService& service,
                       const Inputs& inputs, const uint64_t cursors[2],
                       size_t batch, SpanLog& spans,
                       std::vector<sentinel::AccessDecision>* decisions,
                       Json* out);

/// Pauseless swaps through AuthorizationService::ApplyPolicyUpdate, each
/// preceded by a direct PreparePolicyUpdate of the same update, so the
/// service's commit share is the difference.
void TimeServiceSwaps(sentinel::AuthorizationService& service,
                      const Inputs& inputs, SpanLog& spans, Json* out);

/// A standalone AuthorizationEngine with the same policy, sessions and
/// cache: CheckAccess (with the churn's logins interleaved in churn-mixed),
/// its RbacSystem::CheckAccess, logins, and prepare/commit of swaps.
void TimeEngine(const sentinel::Policy& policy, const Inputs& inputs,
                SpanLog& spans, Json* out);

/// The wire codec on the first connection's requests and on the verdicts
/// TimeServiceChecks collected.
void TimeCodec(const Inputs& inputs,
               const std::vector<sentinel::AccessDecision>& decisions,
               SpanLog& spans, Json* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
