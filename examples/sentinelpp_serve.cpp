// sentinelpp-serve — the network front door as a runnable binary.
//
// Stands up an AuthorizationService over a synthetic flat policy (N users
// all granted `read ledger` through one role, sessions pre-created and
// activated) and serves the versioned binary wire API on an epoll reactor.
//
//   sentinelpp-serve [--port=0] [--shards=1] [--users=16]
//                    [--cache=0] [--fastpath=0]
//                    [--capacity=0] [--policy=block|shed]
//                    [--deadline-us=0] [--idle-ms=30000]
//                    [--audit=PATH] [--audit-rotate=0] [--audit-queue=65536]
//                    [--update-churn=0]
//                    [--quota-rate=0] [--quota-burst=8]
//                    [--quota-user=NAME:RATE[:BURST]]...
//                    [--quota-mode=overload|always]
//
// --quota-rate attaches per-principal token-bucket admission policing: every
// principal gets RATE tokens/s (fractional ok) with a burst of --quota-burst.
// --quota-user pins one principal to its own quota (RATE=0 exempts it); the
// flag repeats. --quota-mode picks when over-quota verdicts refuse:
// `overload` (default) only under backpressure — requires --capacity>0 —
// while `always` refuses at the admission edge unconditionally. The final
// stats line gains `policer_refused=` so harnesses can attribute refusals.
//
// --audit attaches the async JSONL audit exporter (see audit/exporter.h):
// every decision the service makes is exported, and the final stats line
// gains `audit_records=`/`audit_drops=` fields so harnesses can assert a
// complete stream.
//
// --update-churn=N (milliseconds) runs an in-process admin thread that
// applies a policy update every N ms while serving — each update toggles a
// spare role's permission, exercising the pauseless swap path under real
// network load. The final stats line gains a `swaps=` field.
//
// Prints exactly one `listening on <addr>:<port>` line once the socket is
// bound (port 0 binds an ephemeral port — scripts parse the real one from
// this line), then serves until SIGINT/SIGTERM. Shutdown is graceful: the
// reactor answers everything already read, flushes write buffers, and the
// final stats line ends with `drained` so harnesses can assert a clean
// exit.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/server.h"
#include "workload/policy_gen.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void OnSignal(int) { g_stop = 1; }

int64_t IntFlag(const char* arg, const char* name, int64_t* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return 0;
  *out = std::strtoll(arg + len + 1, nullptr, 10);
  return 1;
}

int64_t DoubleFlag(const char* arg, const char* name, double* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return 0;
  *out = std::strtod(arg + len + 1, nullptr);
  return 1;
}

/// Parses NAME:RATE[:BURST] into a PrincipalQuota; false on malformed input.
bool ParseQuotaUser(const char* text, sentinel::PrincipalQuota* out) {
  const char* colon = std::strchr(text, ':');
  if (colon == nullptr || colon == text) return false;
  out->principal.assign(text, static_cast<size_t>(colon - text));
  char* end = nullptr;
  out->rate_per_s = std::strtod(colon + 1, &end);
  if (end == colon + 1 || out->rate_per_s < 0) return false;
  out->burst = 1;
  if (*end == ':') {
    out->burst = std::strtoll(end + 1, nullptr, 10);
    if (out->burst < 1) return false;
  } else if (*end != '\0') {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t port = 0, shards = 1, users = 16, cache = 0, fastpath = 0;
  int64_t capacity = 0, deadline_us = 0, idle_ms = 30'000;
  int64_t audit_rotate = 0, audit_queue = 65536, update_churn_ms = 0;
  int64_t quota_burst = 8;
  double quota_rate = 0;
  std::string overload = "block", audit_path, quota_mode = "overload";
  std::vector<sentinel::PrincipalQuota> quota_users;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (IntFlag(arg, "--port", &port) || IntFlag(arg, "--shards", &shards) ||
        IntFlag(arg, "--users", &users) || IntFlag(arg, "--cache", &cache) ||
        IntFlag(arg, "--fastpath", &fastpath) ||
        IntFlag(arg, "--capacity", &capacity) ||
        IntFlag(arg, "--deadline-us", &deadline_us) ||
        IntFlag(arg, "--idle-ms", &idle_ms) ||
        IntFlag(arg, "--audit-rotate", &audit_rotate) ||
        IntFlag(arg, "--audit-queue", &audit_queue) ||
        IntFlag(arg, "--update-churn", &update_churn_ms) ||
        IntFlag(arg, "--quota-burst", &quota_burst) ||
        DoubleFlag(arg, "--quota-rate", &quota_rate)) {
      continue;
    }
    if (std::strncmp(arg, "--policy=", 9) == 0) {
      overload = arg + 9;
      continue;
    }
    if (std::strncmp(arg, "--audit=", 8) == 0) {
      audit_path = arg + 8;
      continue;
    }
    if (std::strncmp(arg, "--quota-mode=", 13) == 0) {
      quota_mode = arg + 13;
      continue;
    }
    if (std::strncmp(arg, "--quota-user=", 13) == 0) {
      sentinel::PrincipalQuota quota;
      if (!ParseQuotaUser(arg + 13, &quota)) {
        std::fprintf(stderr, "bad --quota-user (want NAME:RATE[:BURST]): %s\n",
                     arg);
        return 2;
      }
      quota_users.push_back(std::move(quota));
      continue;
    }
    std::fprintf(stderr, "unknown flag: %s\n", arg);
    return 2;
  }
  if (quota_mode != "overload" && quota_mode != "always") {
    std::fprintf(stderr, "bad --quota-mode (want overload|always)\n");
    return 2;
  }

  sentinel::ServiceConfig config;
  config.num_shards = static_cast<int>(shards);
  config.synchronous = false;
  config.start_time = sentinel::MakeTime(2026, 7, 6, 12, 0, 0);
  config.decision_cache_capacity = static_cast<size_t>(cache);
  config.decision_cache_fastpath = fastpath != 0;
  // One reactor sweep folds up to max_batch requests into one envelope; the
  // audit tap drains the ring after each envelope, so a ring that holds a
  // whole sweep never wraps before it is drained.
  config.decision_log_capacity = sentinel::net::ServerConfig{}.max_batch;
  config.mailbox_capacity = static_cast<size_t>(capacity);
  config.overload_policy = overload == "shed"
                               ? sentinel::OverloadPolicy::kShed
                               : sentinel::OverloadPolicy::kBlock;
  config.default_deadline = deadline_us;
  config.audit_path = audit_path;
  config.audit_rotate_bytes = static_cast<uint64_t>(audit_rotate);
  config.audit_queue_capacity = static_cast<size_t>(audit_queue);
  config.quota_rate_per_s = quota_rate;
  config.quota_burst = quota_burst;
  config.quota_overrides = std::move(quota_users);
  config.quota_enforcement = quota_mode == "always"
                                 ? sentinel::QuotaEnforcement::kAlways
                                 : sentinel::QuotaEnforcement::kOnOverload;
  sentinel::AuthorizationService service(config);
  if (!service.init_status().ok()) {
    std::fprintf(stderr, "bad config: %s\n",
                 std::string(service.init_status().message()).c_str());
    return 2;
  }

  // `spare` absorbs the --update-churn stream: no serving user is assigned
  // to it, so toggling its permission swaps generations without changing
  // any served verdict.
  const auto build_policy = [users](bool toggled) {
    sentinel::Policy policy("serve");
    sentinel::RoleSpec role;
    role.name = "worker";
    role.permissions.insert(sentinel::Permission{"read", "ledger"});
    (void)policy.AddRole(std::move(role));
    sentinel::RoleSpec spare;
    spare.name = "spare";
    spare.permissions.insert(sentinel::Permission{"read", "scratch"});
    if (toggled) {
      spare.permissions.insert(sentinel::Permission{"write", "scratch"});
    }
    (void)policy.AddRole(std::move(spare));
    for (int u = 0; u < users; ++u) {
      sentinel::UserSpec user;
      user.name = sentinel::SyntheticUserName(u);
      user.assignments.insert("worker");
      (void)policy.AddUser(std::move(user));
    }
    return policy;
  };
  if (!service.LoadPolicy(build_policy(false)).ok()) {
    std::fprintf(stderr, "policy load failed\n");
    return 1;
  }
  for (int u = 0; u < users; ++u) {
    const std::string name = sentinel::SyntheticUserName(u);
    const std::string session = "sess" + std::to_string(u);
    if (!service.CreateSession(name, session).ok() ||
        !service.AddActiveRole(name, session, "worker").ok()) {
      std::fprintf(stderr, "session setup failed for %s\n", name.c_str());
      return 1;
    }
  }

  sentinel::net::ServerConfig net_config;
  net_config.port = static_cast<uint16_t>(port);
  net_config.idle_timeout_ms = idle_ms;
  sentinel::net::WireServer server(&service, net_config);
  const sentinel::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n",
                 std::string(started.message()).c_str());
    return 1;
  }
  std::printf("listening on %s:%u\n", net_config.bind_address.c_str(),
              server.port());
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  std::thread churner;
  std::atomic<bool> churn_stop{false};
  if (update_churn_ms > 0) {
    churner = std::thread([&] {
      bool flip = true;
      while (!churn_stop.load(std::memory_order_acquire)) {
        (void)service.ApplyPolicyUpdate(build_policy(flip));
        flip = !flip;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(update_churn_ms));
      }
    });
  }

  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  if (churner.joinable()) {
    churn_stop.store(true, std::memory_order_release);
    churner.join();
  }
  server.Stop();
  // Shut the service down before reading audit counters: Shutdown drains
  // every shard's decision ring into the exporter and flush-closes it, so
  // the printed numbers describe the complete stream.
  service.Shutdown();
  unsigned long long audit_records = 0, audit_drops = 0;
  if (auto* exporter = service.audit_exporter()) {
    const auto counters = exporter->counters();
    audit_records = counters.records;
    audit_drops = counters.drops;
  }
  const sentinel::net::ServerStats stats = server.stats();
  const sentinel::ServiceStats service_stats = service.Stats();
  std::printf(
      "accepted=%llu requests=%llu decisions=%llu batches=%llu "
      "protocol_errors=%llu idle_closed=%llu bytes_in=%llu bytes_out=%llu "
      "swaps=%llu audit_records=%llu audit_drops=%llu "
      "policer_admitted=%llu policer_over_quota=%llu policer_refused=%llu "
      "drained\n",
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.decisions),
      static_cast<unsigned long long>(stats.batches),
      static_cast<unsigned long long>(stats.protocol_errors),
      static_cast<unsigned long long>(stats.idle_closed),
      static_cast<unsigned long long>(stats.bytes_in),
      static_cast<unsigned long long>(stats.bytes_out),
      static_cast<unsigned long long>(service_stats.policy_swaps),
      audit_records, audit_drops,
      static_cast<unsigned long long>(service_stats.policer_admitted),
      static_cast<unsigned long long>(service_stats.policer_over_quota),
      static_cast<unsigned long long>(service_stats.policer_refused));
  std::fflush(stdout);
  return 0;
}
