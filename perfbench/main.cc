// perfbench — the two processes of the sentinelpp end-to-end benchmark.
// run.py starts both and relays between them; see README.md.
//
//   perfbench serve --workload=W --scenario-seed=N --key-seed=N
//                   [--seconds=10] [--warmup=1] [--trace=0|1]
//                   [--audit=PATH] [--spans=PATH]
//   perfbench load  --workload=W --scenario-seed=N --key-seed=N --port=P
//                   [--seconds=10] [--warmup=1] [--trace=0|1] [--spans=PATH]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "bench.h"

namespace {

bool Flag(std::string_view arg, std::string_view name, std::string* value) {
  if (arg.size() <= name.size() + 1 || arg.substr(0, name.size()) != name ||
      arg[name.size()] != '=') {
    return false;
  }
  *value = std::string(arg.substr(name.size() + 1));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench serve|load --flag=value...\n");
    return 2;
  }
  const std::string_view mode = argv[1];
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string v;
    if (Flag(arg, "--workload", &v)) {
      have_workload = perfbench::ParseWorkload(v, &options.workload);
    } else if (Flag(arg, "--scenario-seed", &v)) {
      options.scenario_seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(arg, "--key-seed", &v)) {
      options.key_seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(arg, "--seconds", &v)) {
      options.seconds = std::strtod(v.c_str(), nullptr);
    } else if (Flag(arg, "--warmup", &v)) {
      options.warmup_s = std::strtod(v.c_str(), nullptr);
    } else if (Flag(arg, "--trace", &v)) {
      options.trace = v == "1";
    } else if (Flag(arg, "--port", &v)) {
      options.port = static_cast<uint16_t>(std::atoi(v.c_str()));
    } else if (Flag(arg, "--audit", &v)) {
      options.audit_path = v;
    } else if (Flag(arg, "--spans", &v)) {
      options.spans_path = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (!have_workload || options.seconds <= 0 || options.warmup_s < 0) {
    std::fprintf(stderr, "perfbench: bad or missing flags\n");
    return 2;
  }
  if (mode == "serve") return perfbench::RunServe(options);
  if (mode == "load") return perfbench::RunLoad(options);
  std::fprintf(stderr, "perfbench: unknown mode\n");
  return 2;
}
