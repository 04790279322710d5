// sentinelpp-replay — policy-change shadow evaluation over a captured
// audit stream.
//
// Loads a JSONL decision capture (as written by the audit exporter) plus a
// candidate policy file, re-executes the decision sequence through fresh
// engines (one per originating shard, time-warped through the simulated
// clock so temporal rules fire as they did at capture time), and reports
// the verdict diff: what the candidate policy would have decided
// differently, with per-rule attribution.
//
//   sentinelpp-replay --capture=decisions.jsonl --policy=candidate.acp
//                     [--json] [--parse-only] [--expect-zero-diffs]
//   sentinelpp-replay --capture=after.jsonl --baseline=before.jsonl
//                     [--expect-zero-diffs]
//
// With --baseline no engine runs: the two captures are compared record by
// record on every field except wall_us and latency_us (engine records per
// shard in seq order, service records as a multiset), and the counts plus
// the first differences are printed. Recording the same workload on two
// builds and comparing the captures shows whether a change moved any
// decision.
//
// Exit status: 0 on success, 1 on load/replay failure, 3 when
// --expect-zero-diffs was given and the replay found verdict flips (or the
// captures differ) — scripts gate policy rollouts on that code.

#include <cstdio>
#include <cstring>
#include <string>

#include "audit/replay.h"
#include "core/policy_parser.h"

namespace {

bool StrFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string capture_path, policy_path, baseline_path;
  bool json = false, parse_only = false, expect_zero = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (StrFlag(arg, "--capture", &capture_path) ||
        StrFlag(arg, "--policy", &policy_path) ||
        StrFlag(arg, "--baseline", &baseline_path)) {
      continue;
    }
    if (std::strcmp(arg, "--json") == 0) {
      json = true;
    } else if (std::strcmp(arg, "--parse-only") == 0) {
      parse_only = true;
    } else if (std::strcmp(arg, "--expect-zero-diffs") == 0) {
      expect_zero = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return 2;
    }
  }
  if (capture_path.empty() ||
      (!parse_only && policy_path.empty() && baseline_path.empty())) {
    std::fprintf(stderr,
                 "usage: sentinelpp-replay --capture=FILE --policy=FILE.acp "
                 "[--json] [--parse-only] [--expect-zero-diffs]\n"
                 "       sentinelpp-replay --capture=FILE --baseline=FILE "
                 "[--expect-zero-diffs]\n");
    return 2;
  }

  uint64_t parse_errors = 0;
  auto records =
      sentinel::audit::LoadCaptureFile(capture_path, &parse_errors);
  if (!records.ok()) {
    std::fprintf(stderr, "capture load failed: %s\n",
                 std::string(records.status().message()).c_str());
    return 1;
  }
  if (!baseline_path.empty() && !parse_only) {
    uint64_t baseline_errors = 0;
    auto baseline =
        sentinel::audit::LoadCaptureFile(baseline_path, &baseline_errors);
    if (!baseline.ok()) {
      std::fprintf(stderr, "baseline load failed: %s\n",
                   std::string(baseline.status().message()).c_str());
      return 1;
    }
    if (parse_errors + baseline_errors > 0) {
      std::fprintf(stderr, "unparseable lines: capture %llu, baseline %llu\n",
                   static_cast<unsigned long long>(parse_errors),
                   static_cast<unsigned long long>(baseline_errors));
      return 1;
    }
    const sentinel::audit::CaptureDiffReport diff =
        sentinel::audit::CompareCaptures(*records, *baseline);
    std::printf("%s", sentinel::audit::CaptureDiffToText(diff).c_str());
    return expect_zero && diff.differences() > 0 ? 3 : 0;
  }
  if (parse_only) {
    std::printf("records: %zu\nparse_errors: %llu\n", records->size(),
                static_cast<unsigned long long>(parse_errors));
    return parse_errors == 0 ? 0 : 1;
  }
  if (parse_errors > 0) {
    std::fprintf(stderr, "warning: %llu unparseable lines skipped\n",
                 static_cast<unsigned long long>(parse_errors));
  }

  auto policy = sentinel::PolicyParser::ParseFile(policy_path);
  if (!policy.ok()) {
    std::fprintf(stderr, "policy load failed: %s\n",
                 std::string(policy.status().message()).c_str());
    return 1;
  }

  auto report = sentinel::audit::ReplayCapture(*records, *policy);
  if (!report.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 std::string(report.status().message()).c_str());
    return 1;
  }

  if (json) {
    std::printf("%s\n", sentinel::audit::ReportToJson(*report).c_str());
  } else {
    std::printf("%s", sentinel::audit::ReportToText(*report).c_str());
  }
  if (expect_zero && report->flips() > 0) return 3;
  return 0;
}
