// sentinelpp-soak — the enterprise scenario soak driver / corpus generator.
//
// Generates a synthetic enterprise (org forest, GTRBAC shifts, SoD sets,
// large user population — see workload/scenario_gen.h), loads it into an
// AuthorizationService, and replays the scenario's deterministic request
// stream. With --audit set the service exports every decision as a JSONL
// audit stream — the canonical capture corpus for sentinelpp-replay.
//
//   sentinelpp-soak [--scale=smoke|enterprise] [--seed=2026]
//                   [--users=N] [--requests=N] [--shards=1]
//                   [--audit=PATH] [--audit-rotate=N] [--audit-queue=N]
//                   [--policy-out=PATH] [--mutated-policy-out=PATH]
//                   [--expect-no-drops]
//
// --shards (at least 1; 1 by default) sets the service's shard count. One
// caller drives the stream, so the capture is deterministic at a given
// count: scripts/check.sh compares two runs at 1 and at 4 shards, and two
// builds' captures compare the same way. --policy-out writes the generated
// policy as .acp text (the replay candidate); --mutated-policy-out writes
// the same policy with one added DSD edge ("DSD_SHADOW") for verdict-flip
// experiments. The final stats line is machine-greppable and ends in `ok`.
// --audit refuses a path that already exists: the exporter would resume
// it, and one capture would then hold two runs' record streams.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "api/sentinelpp.h"
#include "workload/scenario_gen.h"

namespace {

int64_t IntFlag(const char* arg, const char* name, int64_t* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return 0;
  *out = std::strtoll(arg + len + 1, nullptr, 10);
  return 1;
}

int StrFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return 0;
  *out = arg + len + 1;
  return 1;
}

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  out.close();
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  int64_t seed = 2026, users = -1, requests = -1, shards = 1;
  int64_t audit_rotate = 0, audit_queue = 65536;
  std::string scale = "smoke", audit_path, policy_out, mutated_out;
  bool expect_no_drops = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (IntFlag(arg, "--seed", &seed) || IntFlag(arg, "--users", &users) ||
        IntFlag(arg, "--requests", &requests) ||
        IntFlag(arg, "--shards", &shards) ||
        IntFlag(arg, "--audit-rotate", &audit_rotate) ||
        IntFlag(arg, "--audit-queue", &audit_queue) ||
        StrFlag(arg, "--scale", &scale) ||
        StrFlag(arg, "--audit", &audit_path) ||
        StrFlag(arg, "--policy-out", &policy_out) ||
        StrFlag(arg, "--mutated-policy-out", &mutated_out)) {
      continue;
    }
    if (std::strcmp(arg, "--expect-no-drops") == 0) {
      expect_no_drops = true;
      continue;
    }
    std::fprintf(stderr, "unknown flag: %s\n", arg);
    return 2;
  }
  if (shards < 1) {
    std::fprintf(stderr, "--shards must be at least 1; got %lld\n",
                 static_cast<long long>(shards));
    return 1;
  }
  std::error_code exists_error;
  if (!audit_path.empty() &&
      std::filesystem::exists(audit_path, exists_error)) {
    std::fprintf(stderr, "refusing --audit=%s: the file exists\n",
                 audit_path.c_str());
    return 1;
  }

  sentinel::ScenarioParams params = scale == "enterprise"
                                        ? sentinel::EnterpriseScenarioParams()
                                        : sentinel::SmokeScenarioParams();
  params.seed = static_cast<uint64_t>(seed);
  if (users >= 0) params.num_users = static_cast<int>(users);
  if (requests >= 0) params.num_requests = static_cast<int>(requests);

  sentinel::Scenario scenario = sentinel::GenerateScenario(params);
  std::printf("scenario: roles=%d users=%zu requests=%zu\n",
              scenario.num_roles, scenario.policy.users().size(),
              scenario.requests.size());
  std::fflush(stdout);

  if (!policy_out.empty() &&
      !WriteFile(policy_out, sentinel::PolicyToText(scenario.policy))) {
    std::fprintf(stderr, "cannot write %s\n", policy_out.c_str());
    return 1;
  }
  if (!mutated_out.empty()) {
    auto mutated =
        sentinel::WithAddedDsdEdge(scenario.policy, "DSD_SHADOW");
    if (!mutated.ok() ||
        !WriteFile(mutated_out, sentinel::PolicyToText(*mutated))) {
      std::fprintf(stderr, "cannot produce mutated policy at %s\n",
                   mutated_out.c_str());
      return 1;
    }
  }

  sentinel::ServiceConfig config;
  config.num_shards = static_cast<int>(shards);
  config.start_time = sentinel::MakeTime(2026, 7, 6, 9, 0, 0);
  config.audit_path = audit_path;
  config.audit_rotate_bytes = static_cast<uint64_t>(audit_rotate);
  config.audit_queue_capacity = static_cast<size_t>(audit_queue);
  sentinel::AuthorizationService service(config);
  if (!service.init_status().ok()) {
    std::fprintf(stderr, "bad config: %s\n",
                 std::string(service.init_status().message()).c_str());
    return 1;
  }
  if (!service.LoadPolicy(scenario.policy).ok()) {
    std::fprintf(stderr, "policy load failed\n");
    return 1;
  }

  uint64_t allows = 0, denials = 0;
  for (const sentinel::Request& request : scenario.requests) {
    switch (request.kind) {
      case sentinel::RequestKind::kCreateSession:
        service.CreateSession(request.user, request.session).ok() ? ++allows
                                                                  : ++denials;
        break;
      case sentinel::RequestKind::kDeleteSession:
        service.DeleteSession(request.session).ok() ? ++allows : ++denials;
        break;
      case sentinel::RequestKind::kAddActiveRole:
        service.AddActiveRole(request.user, request.session, request.role)
                .ok()
            ? ++allows
            : ++denials;
        break;
      case sentinel::RequestKind::kDropActiveRole:
        service.DropActiveRole(request.user, request.session, request.role)
                .ok()
            ? ++allows
            : ++denials;
        break;
      case sentinel::RequestKind::kCheckAccess: {
        sentinel::AccessRequest access;
        access.session = request.session;
        access.operation = request.operation;
        access.object = request.object;
        access.purpose = request.purpose;
        service.CheckAccess(access).allowed ? ++allows : ++denials;
        break;
      }
      case sentinel::RequestKind::kAssignUser:
        service.AssignUser(request.user, request.role).ok() ? ++allows
                                                            : ++denials;
        break;
      case sentinel::RequestKind::kDeassignUser:
        service.DeassignUser(request.user, request.role).ok() ? ++allows
                                                              : ++denials;
        break;
      case sentinel::RequestKind::kEnableRole:
        service.EnableRole(request.role).ok() ? ++allows : ++denials;
        break;
      case sentinel::RequestKind::kDisableRole:
        service.DisableRole(request.role).ok() ? ++allows : ++denials;
        break;
      case sentinel::RequestKind::kAdvanceTime:
        (void)service.AdvanceBy(request.advance);
        break;
      case sentinel::RequestKind::kSetContext:
        service.SetContext(request.context_key, request.context_value);
        break;
    }
  }

  const sentinel::ServiceStats live = service.Stats();
  service.Shutdown();
  // Audit counters are final only after Shutdown flushed the exporter.
  uint64_t audit_records = 0, audit_drops = 0, audit_bytes = 0;
  if (auto* exporter = service.audit_exporter()) {
    const auto counters = exporter->counters();
    audit_records = counters.records;
    audit_drops = counters.drops;
    audit_bytes = counters.bytes;
  }

  std::printf(
      "soak: requests=%zu allows=%llu denials=%llu decisions=%llu "
      "overflow=%llu audit_records=%llu audit_drops=%llu audit_bytes=%llu "
      "ok\n",
      scenario.requests.size(), static_cast<unsigned long long>(allows),
      static_cast<unsigned long long>(denials),
      static_cast<unsigned long long>(live.decisions),
      static_cast<unsigned long long>(live.audit_overflow),
      static_cast<unsigned long long>(audit_records),
      static_cast<unsigned long long>(audit_drops),
      static_cast<unsigned long long>(audit_bytes));
  std::fflush(stdout);
  if (expect_no_drops && audit_drops != 0) {
    std::fprintf(stderr, "audit drops detected: %llu\n",
                 static_cast<unsigned long long>(audit_drops));
    return 1;
  }
  return 0;
}
