#include "layers.h"

#include <algorithm>
#include <string>
#include <string_view>

#include "api/wire.h"
#include "common/clock.h"
#include "core/engine.h"

namespace perfbench {
namespace {

using sentinel::AccessDecision;
using sentinel::AccessRequest;

constexpr size_t kServiceCalls = 20000;
constexpr size_t kEngineChecks = 40000;
/// Engine and RBAC checks are timed in blocks, so the clock read is a small
/// share of each sample; in churn-mixed one login follows every block,
/// matching the traffic's 20 checks per login.
constexpr size_t kBlock = 20;
constexpr size_t kLogins = 2000;
constexpr size_t kSwaps = 20;
constexpr int kCodecPasses = 5;
/// Swap salts of the layer calls, apart from the admin thread's.
constexpr uint64_t kLayerSwapBase = 1u << 20;

double P50(std::vector<int64_t>& samples) { return PercentileNs(samples, 50); }

uint64_t CounterValue(const sentinel::telemetry::RegistrySnapshot& snapshot,
                      const char* name) {
  const auto* counter = snapshot.FindCounter(name);
  return counter == nullptr ? 0 : counter->value;
}

}  // namespace

void TimeServiceChecks(sentinel::AuthorizationService& service,
                       const Inputs& inputs, const uint64_t cursors[2],
                       size_t batch, SpanLog& spans,
                       std::vector<AccessDecision>* decisions, Json* out) {
  std::vector<int64_t> single;
  single.reserve(kServiceCalls);
  decisions->reserve(kServiceCalls);
  uint64_t undecided = 0;
  const int64_t single_start = NowNs();
  for (size_t j = 0; j < kServiceCalls; ++j) {
    const AccessRequest& request = inputs.keys[inputs.KeyAt(0, cursors[0] + j)];
    const int64_t t0 = NowNs();
    AccessDecision decision = service.CheckAccess(request);
    single.push_back(NowNs() - t0);
    if (decision.outcome != sentinel::AccessOutcome::kDecided) ++undecided;
    decisions->push_back(std::move(decision));
  }
  spans.Add("layer.service.CheckAccess", 0, single_start, NowNs(),
            kServiceCalls);

  std::vector<AccessRequest> requests(batch);
  std::vector<AccessDecision> results(batch);
  std::vector<int64_t> per_item, per_batch;
  const int64_t batch_start = NowNs();
  for (size_t j = 0; j + batch <= kServiceCalls; j += batch) {
    for (size_t m = 0; m < batch; ++m) {
      requests[m] = inputs.keys[inputs.KeyAt(1, cursors[1] + j + m)];
    }
    const int64_t t0 = NowNs();
    service.CheckAccessBatchInto(requests, results);
    const int64_t elapsed = NowNs() - t0;
    per_batch.push_back(elapsed);
    per_item.push_back(elapsed / static_cast<int64_t>(batch));
    for (const AccessDecision& d : results) {
      if (d.outcome != sentinel::AccessOutcome::kDecided) ++undecided;
    }
  }
  spans.Add("layer.service.CheckAccessBatchInto", 0, batch_start, NowNs(),
            per_batch.size() * batch);
  out->Num("service_check_ns", P50(single))
      .Num("service_batch_check_ns", P50(per_item))
      .Num("service_sweep_ns", P50(per_batch))
      .Int("service_batch", static_cast<int64_t>(batch))
      .Int("service_layer_undecided", static_cast<int64_t>(undecided));
}

void TimeServiceSwaps(sentinel::AuthorizationService& service,
                      const Inputs& inputs, SpanLog& spans, Json* out) {
  std::vector<int64_t> prepare, commit_share;
  uint64_t failures = 0;
  for (size_t j = 0; j < kSwaps; ++j) {
    const std::shared_ptr<const sentinel::Policy> base =
        service.current_policy();
    auto next = sentinel::WithToggledPermission(
        *base, inputs.SwapSalt(kLayerSwapBase + j));
    if (!next.ok()) {
      ++failures;
      continue;
    }
    sentinel::Policy copy = *next;
    const int64_t t0 = NowNs();
    const auto plan =
        sentinel::AuthorizationEngine::PreparePolicyUpdate(base, std::move(copy));
    const int64_t t1 = NowNs();
    const auto applied = service.ApplyPolicyUpdate(*next);
    const int64_t t2 = NowNs();
    if (!plan.ok() || !applied.ok()) ++failures;
    prepare.push_back(t1 - t0);
    commit_share.push_back((t2 - t1) - (t1 - t0));
    const uint64_t swap = spans.Add("layer.swap", 0, t0, t2);
    spans.Add("core.PreparePolicyUpdate", swap, t0, t1);
    spans.Add("service.ApplyPolicyUpdate", swap, t1, t2);
  }
  out->Num("service_swap_commit_us", P50(commit_share) / 1e3)
      .Num("service_swap_prepare_us", P50(prepare) / 1e3)
      .Int("service_layer_swap_failures", static_cast<int64_t>(failures));
}

void TimeEngine(const sentinel::Policy& policy, const Inputs& inputs,
                SpanLog& spans, Json* out) {
  sentinel::SimulatedClock clock(StartTime());
  sentinel::AuthorizationEngine engine(&clock);
  engine.ConfigureDecisionCache(kCacheSlots);
  const int64_t load0 = NowNs();
  const sentinel::Status loaded = engine.LoadPolicy(policy);
  const int64_t load1 = NowNs();
  spans.Add("core.LoadPolicy", 0, load0, load1);
  uint64_t failures = loaded.ok() ? 0 : 1;
  ForEachSetupActivation(
      policy, [&](int index, const std::string& user,
                  const sentinel::RoleName* role) {
        if (role == nullptr) {
          if (!engine.CreateSession(user, SetupSession(index)).allowed) {
            ++failures;
          }
        } else {
          (void)engine.AddActiveRole(user, SetupSession(index), *role);
        }
      });

  std::vector<int64_t> login_ns;
  uint64_t logins = 0;
  const auto login = [&] {
    const int user = inputs.LoginUser(logins);
    const std::string name = UserName(user);
    const std::string session = LoginSession(logins);
    ++logins;
    const int64_t t0 = NowNs();
    const bool created = engine.CreateSession(name, session).allowed;
    (void)engine.AddActiveRole(name, session,
                               inputs.first_role[static_cast<size_t>(user)]);
    login_ns.push_back(NowNs() - t0);
    if (!created || !engine.DeleteSession(session).allowed) ++failures;
  };

  // CheckAccess on the workload's stream, in the order the first
  // connection sends it. Counter deltas are taken around each block only,
  // so interleaved logins do not count toward per-check work.
  std::vector<int64_t> check_ns;
  uint64_t firings = 0, events = 0;
  const int64_t checks_start = NowNs();
  for (size_t j = 0; j < kEngineChecks; j += kBlock) {
    const auto before = engine.metrics().Snapshot();
    const int64_t t0 = NowNs();
    for (size_t m = 0; m < kBlock; ++m) {
      const AccessRequest& r = inputs.keys[inputs.KeyAt(0, j + m)];
      (void)engine.CheckAccess(r.session, r.operation, r.object);
    }
    check_ns.push_back((NowNs() - t0) / static_cast<int64_t>(kBlock));
    const auto after = engine.metrics().Snapshot();
    firings += CounterValue(after, "rule_firings_total") -
               CounterValue(before, "rule_firings_total");
    events += CounterValue(after, "events_raised_total") -
              CounterValue(before, "events_raised_total");
    if (Churn(inputs.workload)) login();
  }
  spans.Add("layer.core.CheckAccess", 0, checks_start, NowNs(), kEngineChecks);
  while (logins < kLogins) login();

  // The RBAC check the generated CA rule makes: the symbol overload, with
  // the engine's own symbols resolved outside the timed blocks.
  struct Symbols {
    sentinel::Symbol session, op, obj;
  };
  std::vector<Symbols> symbols(kEngineChecks);
  for (size_t j = 0; j < kEngineChecks; ++j) {
    const AccessRequest& r = inputs.keys[inputs.KeyAt(0, j)];
    symbols[j] = Symbols{engine.symbols().Find(r.session),
                         engine.symbols().Find(r.operation),
                         engine.symbols().Find(r.object)};
  }
  std::vector<int64_t> rbac_ns;
  const int64_t rbac_start = NowNs();
  const sentinel::RbacSystem& rbac = engine.rbac();
  uint64_t granted = 0;
  for (size_t j = 0; j < kEngineChecks; j += kBlock) {
    const int64_t t0 = NowNs();
    for (size_t m = 0; m < kBlock; ++m) {
      const Symbols& k = symbols[j + m];
      const auto allowed = rbac.CheckAccess(k.session, k.op, k.obj);
      if (allowed.ok() && *allowed) ++granted;
    }
    rbac_ns.push_back((NowNs() - t0) / static_cast<int64_t>(kBlock));
  }
  spans.Add("layer.rbac.CheckAccess", 0, rbac_start, NowNs(), kEngineChecks);

  std::vector<int64_t> prepare_ns, commit_ns;
  for (size_t j = 0; j < kSwaps; ++j) {
    const std::shared_ptr<const sentinel::Policy> base =
        engine.policy_generation();
    auto next = sentinel::WithToggledPermission(
        *base, inputs.SwapSalt(kLayerSwapBase + j));
    if (!next.ok()) {
      ++failures;
      continue;
    }
    const int64_t t0 = NowNs();
    const auto plan = sentinel::AuthorizationEngine::PreparePolicyUpdate(
        base, std::move(*next));
    const int64_t t1 = NowNs();
    if (!plan.ok()) {
      ++failures;
      continue;
    }
    const auto committed = engine.CommitPolicyUpdate(*plan);
    const int64_t t2 = NowNs();
    if (!committed.ok()) ++failures;
    prepare_ns.push_back(t1 - t0);
    commit_ns.push_back(t2 - t1);
    spans.Add("core.PreparePolicyUpdate", 0, t0, t1);
    spans.Add("core.CommitPolicyUpdate", 0, t1, t2);
  }

  const double checks = static_cast<double>(check_ns.size() * kBlock);
  out->Num("core_check_ns", P50(check_ns))
      .Num("core_load_policy_s", (load1 - load0) / 1e9)
      .Int("core_rules",
           static_cast<int64_t>(engine.rule_manager().rule_count()))
      .Num("core_rule_firings_per_check", static_cast<double>(firings) / checks)
      .Num("core_events_per_check", static_cast<double>(events) / checks)
      .Num("core_login_us", P50(login_ns) / 1e3)
      .Num("core_prepare_update_us", P50(prepare_ns) / 1e3)
      .Num("core_commit_update_us", P50(commit_ns) / 1e3)
      .Num("rbac_check_ns", P50(rbac_ns))
      .Num("rbac_granted_frac", static_cast<double>(granted) / checks)
      .Int("engine_layer_failures", static_cast<int64_t>(failures));
}

void TimeCodec(const Inputs& inputs,
               const std::vector<AccessDecision>& decisions, SpanLog& spans,
               Json* out) {
  namespace wire = sentinel::wire;
  const size_t n = std::min(kEngineChecks, decisions.size());
  if (n == 0) return;
  std::vector<const AccessRequest*> requests(n);
  for (size_t j = 0; j < n; ++j) requests[j] = &inputs.keys[inputs.KeyAt(0, j)];

  std::vector<std::string> check_frames(n), decision_frames(n);
  for (size_t j = 0; j < n; ++j) {
    (void)wire::EncodeCheckRequest(j + 1, *requests[j], &check_frames[j]);
    (void)wire::EncodeDecision(j + 1, decisions[j], &decision_frames[j]);
  }

  // Each pass runs the call over all n inputs; the per-call time is the
  // median pass divided by n. `sink` keeps the results observable.
  uint64_t sink = 0, errors = 0;
  const auto time_passes = [&](const char* name, auto&& call) {
    std::vector<int64_t> per_call;
    for (int pass = 0; pass < kCodecPasses; ++pass) {
      const int64_t t0 = NowNs();
      for (size_t j = 0; j < n; ++j) call(j);
      const int64_t t1 = NowNs();
      per_call.push_back((t1 - t0) / static_cast<int64_t>(n));
      spans.Add(name, 0, t0, t1, n);
    }
    return P50(per_call);
  };
  std::string buffer;
  const double encode_check = time_passes("layer.api.EncodeCheckRequest",
                                          [&](size_t j) {
    buffer.clear();
    if (!wire::EncodeCheckRequest(j + 1, *requests[j], &buffer).ok()) ++errors;
    sink += buffer.size();
  });
  const double decode_check = time_passes("layer.api.DecodeCheckRequest",
                                          [&](size_t j) {
    wire::FrameView frame;
    wire::ProtocolError error;
    wire::CheckRequestMsg msg;
    const std::string_view body =
        std::string_view(check_frames[j]).substr(wire::kLengthPrefixBytes);
    if (!wire::DecodeFrame(body, &frame, &error) ||
        !wire::DecodeCheckRequest(frame, &msg, &error)) {
      ++errors;
    }
    sink += msg.request.object.size();
  });
  const double encode_decision = time_passes("layer.api.EncodeDecision",
                                             [&](size_t j) {
    buffer.clear();
    if (!wire::EncodeDecision(j + 1, decisions[j], &buffer).ok()) ++errors;
    sink += buffer.size();
  });
  const double decode_decision = time_passes("layer.api.DecodeDecision",
                                             [&](size_t j) {
    wire::FrameView frame;
    wire::ProtocolError error;
    wire::DecisionMsg msg;
    const std::string_view body =
        std::string_view(decision_frames[j]).substr(wire::kLengthPrefixBytes);
    if (!wire::DecodeFrame(body, &frame, &error) ||
        !wire::DecodeDecision(frame, &msg, &error)) {
      ++errors;
    }
    sink += msg.decision.rule.size();
  });
  out->Num("api_encode_check_ns", encode_check)
      .Num("api_decode_check_ns", decode_check)
      .Num("api_encode_decision_ns", encode_decision)
      .Num("api_decode_decision_ns", decode_decision)
      .Int("codec_errors", static_cast<int64_t>(errors))
      .Int("codec_sink", static_cast<int64_t>(sink & 0xffff));
}

}  // namespace perfbench
