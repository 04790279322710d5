#!/usr/bin/env python3
"""End-to-end benchmark of sentinelpp: AuthorizationService behind a
WireServer, driven over loopback, every verdict checked against an oracle.

Run from the root of a checkout:

  python3 perfbench/run.py --workload pep-hot --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --smoke

It builds the library and perfbench/ with CMake (Release) under
$CARGO_TARGET_DIR (default .bench_build), starts the serving process, then
the load process, relays between them, and prints one JSON object as the
last line of stdout:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and the end-to-end ones of the traced run on the line before). The layer
table and the reasons behind each workload are in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("pep-hot", "bulk-cold", "churn-mixed")
BUILD_TYPE = "Release"

# Bounded in BENCHMARK.json: steady across runs on a shared 4-CPU VM.
END_TO_END = {
    "setup_s": "s",
    "checks_per_s": "1/s",
    "serve_cpu_us_per_check": "us",
    "swap_cpu_ms": "ms",
    "rss_mb": "MiB",
}

# Printed with every result but given no bound: latencies follow the host's
# stalls and wake-up delays (their measured spreads are in README.md), and
# failed_frac is 0 in a healthy run.
UNBOUNDED = {
    "check_p50_us": "us",
    "check_p99_us": "us",
    "login_p50_us": "us",
    "swap_p50_ms": "ms",
    "failed_frac": "ratio",
}

PER_LAYER = {
    "load.lag_p99_us": "us",
    "net.self_us": "us",
    "net.frames_per_sweep": "count",
    "net.bytes_per_check": "bytes",
    "api.encode_check_ns": "ns",
    "api.decode_check_ns": "ns",
    "api.encode_decision_ns": "ns",
    "api.decode_decision_ns": "ns",
    "service.fastpath_hit_frac": "ratio",
    "service.check_ns": "ns",
    "service.batch_check_ns": "ns",
    "service.queue_wait_p50_us": "us_pow2_bucket",
    "service.overloaded": "count",
    "service.swap_commit_p50_us": "us",
    "service.sessions_s": "s",
    "policer.admitted_frac": "ratio",
    "core.check_ns": "ns",
    "core.cache_hit_frac": "ratio",
    "core.cache_stale_frac": "ratio",
    "core.rule_firings_per_check": "count",
    "core.events_per_check": "count",
    "core.load_policy_s": "s",
    "core.rules": "count",
    "core.prepare_update_us": "us",
    "core.commit_update_us": "us",
    "core.login_us": "us",
    "core.cap_overshoot": "count",
    "rbac.check_ns": "ns",
    "audit.records_per_decision": "ratio",
    "audit.drops": "count",
    "audit.bytes_per_record": "bytes",
    "workload.generate_s": "s",
}


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures once, then builds incrementally; returns the binary."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    build_log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(build_log, "w") as sink:
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = build_log.read_text(errors="replace").splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return out / "perfbench"


def source_revision():
    """The git revision, or a hash of the sources where there is no git."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


class Child:
    """A benchmark process speaking one JSON line per event on stdout."""

    def __init__(self, args):
        self.args = args
        self.proc = subprocess.Popen(args, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     cwd=ROOT)
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def send(self, text):
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def event(self, name, timeout):
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError(f"timed out waiting for '{name}' from {self.args[1]}")
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise BenchError(f"{self.args[1]} exited ({self.proc.wait()}) "
                                 f"before '{name}'")
            try:
                message = json.loads(line)
            except json.JSONDecodeError:
                continue
            if message.get("event") == name:
                return message

    def finish(self, timeout):
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError(f"{self.args[1]} did not exit")

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.reader.join(timeout=5)


# A run that takes longer than this has hung; the benchmark must exit
# within 180 s of starting.
RUN_DEADLINE_S = 170


def run_once(binary, args):
    """One run: serve (timed set-ups), load (oracle, then traffic), stop."""
    deadline = time.monotonic() + RUN_DEADLINE_S

    def left():
        return deadline - time.monotonic()

    runs = build_dir() / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-{os.getpid()}"
    audit = runs / f"{tag}.audit.jsonl"
    serve_spans = runs / f"{args.workload}.serve.spans.jsonl"
    load_spans = runs / f"{args.workload}.load.spans.jsonl"
    for stale in (audit, serve_spans, load_spans):
        stale.unlink(missing_ok=True)
    common = [f"--workload={args.workload}",
              f"--scenario-seed={args.scenario_seed}",
              f"--key-seed={args.key_seed}",
              f"--seconds={args.seconds}", f"--warmup={args.warmup}",
              f"--trace={args.trace}"]
    serve_args = [str(binary), "serve", *common, f"--audit={audit}",
                  f"--spans={serve_spans}"]
    setups = []
    children = []
    try:
        # Every set-up runs in a fresh process, so each is a cold start and
        # the serving process's peak memory holds exactly one set-up.
        for _ in range(args.setups - 1):
            probe = Child(serve_args)
            children.append(probe)
            setups.append(probe.event("listening", timeout=left()))
            probe.send("quit")
            if probe.finish(timeout=left()) != 0:
                raise BenchError("set-up process exited with an error")
        serve = Child(serve_args)
        children.append(serve)
        listening = serve.event("listening", timeout=left())
        setups.append(listening)
        load = Child([str(binary), "load", *common,
                      f"--port={listening['port']}", f"--spans={load_spans}"])
        children.append(load)
        load.send(listening["shard_map"])
        ready = load.event("ready", timeout=left())
        serve.send("go")
        serve.event("started", timeout=left())
        load.send("go")
        result = load.event("result", timeout=left())
        serve.send(f"stop {result['cursor0']} {result['cursor1']}")
        report = serve.event("report", timeout=left())
        for child in (serve, load):
            child.proc.stdin.close()
            if child.finish(timeout=max(left(), 1)) != 0:
                raise BenchError(f"{child.args[1]} exited with an error")
    finally:
        for child in children:
            child.kill()
        audit.unlink(missing_ok=True)
    for name in ("setup_s", "generate_s", "load_policy_s", "sessions_s"):
        listening[name] = [setup[name] for setup in setups]
    listening["setup_verdicts"] = [setup["setup_verdicts"] for setup in setups]
    return listening, ready, result, report


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end_metrics(listening, result, report):
    return {
        "setup_s": statistics.median(listening["setup_s"]),
        "check_p50_us": result["check_p50_us"],
        "check_p99_us": result["check_p99_us"],
        "checks_per_s": result["checks_per_s"],
        "serve_cpu_us_per_check": 1e6 * ratio(report["traffic_cpu_s"],
                                              report["wire_requests"]),
        "login_p50_us": report["login_p50_us"],
        "swap_p50_ms": report["swap_p50_ms"],
        "swap_cpu_ms": report["swap_cpu_ms"],
        "rss_mb": report["rss_mb"],
        "failed_frac": ratio(result["failed"], result["attempted"]),
    }


def per_layer_metrics(listening, ready, result, report):
    requests = report["wire_requests"]
    lookups = report["cache_hits"] + report["cache_misses"] + report["cache_stale"]
    return {
        "load.lag_p99_us": result["lag_p99_us"],
        # Wire round trip of a check minus the service's time for one sweep
        # of the same size on the same keys.
        "net.self_us": result["wire_p50_us"] - report["service_sweep_ns"] / 1e3,
        "net.frames_per_sweep": ratio(requests, report["wire_batches"]),
        "net.bytes_per_check": ratio(report["wire_bytes_in"] + report["wire_bytes_out"],
                                     requests),
        "api.encode_check_ns": report["api_encode_check_ns"],
        "api.decode_check_ns": report["api_decode_check_ns"],
        "api.encode_decision_ns": report["api_encode_decision_ns"],
        "api.decode_decision_ns": report["api_decode_decision_ns"],
        "service.fastpath_hit_frac": ratio(report["fastpath_hits"], requests),
        "service.check_ns": report["service_check_ns"],
        "service.batch_check_ns": report["service_batch_check_ns"],
        "service.queue_wait_p50_us": report["queue_wait_p50_us"],
        "service.overloaded": report["overloaded"],
        "service.swap_commit_p50_us": report["service_swap_commit_us"],
        "service.sessions_s": statistics.median(listening["sessions_s"]),
        "policer.admitted_frac": ratio(report["policer_admitted"], requests),
        "core.check_ns": report["core_check_ns"],
        "core.cache_hit_frac": ratio(report["cache_hits"], lookups),
        "core.cache_stale_frac": ratio(report["cache_stale"], lookups),
        "core.rule_firings_per_check": report["core_rule_firings_per_check"],
        "core.events_per_check": report["core_events_per_check"],
        "core.load_policy_s": report["core_load_policy_s"],
        "core.rules": report["core_rules"],
        "core.prepare_update_us": report["core_prepare_update_us"],
        "core.commit_update_us": report["core_commit_update_us"],
        "core.login_us": report["core_login_us"],
        "core.cap_overshoot": ready["cap_overshoot"],
        "rbac.check_ns": report["rbac_check_ns"],
        "audit.records_per_decision": ratio(report["audit_records"],
                                            report["audited_decisions"]),
        "audit.drops": report["audit_drops"],
        "audit.bytes_per_record": ratio(report["audit_bytes"], report["audit_records"]),
        "workload.generate_s": statistics.median(listening["generate_s"]),
    }


def verify(workload, trace, listening, ready, result, report):
    """Oracle agreement and the non-vacuity guards; returns the failures."""
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(what)

    need(ready["oracle_ok"] == 1, "oracle could not replay set-up or logins")
    need(result["transport_ok"] == 1, "transport failure")
    need(result["attempted"] >= 1, "no check attempted")
    need(result["mismatches"] == 0,
         f"{result['mismatches']} check verdicts disagree with the oracle")
    need(all(v == ready["setup_verdicts"] for v in listening["setup_verdicts"]),
         "set-up activation verdicts disagree with the oracle")
    served, expected = report["login_verdicts"], ready["login_verdicts"]
    need(len(served) <= len(expected), "more logins than the oracle replayed")
    need(served == expected[:len(served)],
         "login verdicts disagree with the oracle")
    need(report["admin_errors"] == 0, "a login or swap failed")
    need(report["swap_failures"] == 0, "a policy swap was rejected")
    if trace:
        need(report["service_layer_undecided"] == 0, "undecided layer call")
        need(report["service_layer_swap_failures"] == 0, "layer swap failed")
        need(report["engine_layer_failures"] == 0, "engine layer call failed")
        need(report["codec_errors"] == 0, "codec layer call failed")

    requests = report["wire_requests"]
    lookups = report["cache_hits"] + report["cache_misses"] + report["cache_stale"]
    fastpath = ratio(report["fastpath_hits"], requests)
    if workload == "pep-hot":
        need(fastpath >= 0.95, f"guard: fast-path hit fraction {fastpath:.3f} < 0.95")
    elif workload == "bulk-cold":
        cache = ratio(report["cache_hits"], lookups)
        need(fastpath <= 0.05, f"guard: fast-path hit fraction {fastpath:.3f} > 0.05")
        need(cache <= 0.05, f"guard: cache hit fraction {cache:.3f} > 0.05")
    else:
        need(report["logins"] > 0, "guard: no logins")
        need(report["swaps"] > 0, "guard: no swaps")
        need(report["audit_drops"] == 0, f"guard: {report['audit_drops']} audit drops")
        need(report["audit_records"] == report["audited_decisions"],
             f"guard: {report['audit_records']} audit records for "
             f"{report['audited_decisions']} decisions")
    return problems


def host_cpu_times():
    """(steal, total) jiffies of the host's CPUs from /proc/stat."""
    with open("/proc/stat") as stat:
        fields = [int(v) for v in stat.readline().split()[1:]]
    return fields[7], sum(fields)


def measure(binary, args):
    steal0, total0 = host_cpu_times()
    listening, ready, result, report = run_once(binary, args)
    steal1, total1 = host_cpu_times()
    problems = verify(args.workload, args.trace, listening, ready, result, report)
    e2e = end_to_end_metrics(listening, result, report)
    layers = per_layer_metrics(listening, ready, result, report) if args.trace else {}
    record = {
        "revision": source_revision(),
        "build_type": BUILD_TYPE,
        "nproc": os.cpu_count(),
        "shards": listening["shards"],
        "workload": args.workload,
        "scenario_seed": args.scenario_seed,
        "key_seed": args.key_seed,
        "seconds": args.seconds,
        "warmup_s": args.warmup,
        "setups": args.setups,
        "trace": args.trace,
        "granted_frac": ready["granted_frac"],
        "samples": result["samples"],
        # CPU time the hypervisor took from this machine during the run.
        "host_steal_frac": ratio(steal1 - steal0, total1 - total0),
    }
    chosen = layers if args.trace else e2e
    units = PER_LAYER if args.trace else END_TO_END
    final = {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": chosen[name], "unit": units[name]}
                    for name in units},
    }
    return record, e2e, problems, final


def print_run(record, e2e, problems, final, trace):
    for problem in problems:
        log(problem)
    unbounded = {name: {"value": e2e[name], "unit": unit}
                 for name, unit in UNBOUNDED.items()}
    for name, metric in {**final["metrics"], **unbounded}.items():
        log(f"  {name:30s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"run_record": record}))
    print(json.dumps({"unbounded_end_to_end": unbounded}))
    if trace:
        print(json.dumps({"traced_end_to_end": {
            name: {"value": e2e[name], "unit": unit}
            for name, unit in END_TO_END.items()}}))
    print(json.dumps(final), flush=True)


def smoke(binary, args):
    """About a second per workload and mode: every metric prints with its
    unit (and matches BENCHMARK.json when present), the oracle agrees and
    every guard holds."""
    declared = {}
    manifest = ROOT / "BENCHMARK.json"
    if manifest.exists():
        spec = json.loads(manifest.read_text())
        for group in ("end_to_end", "per_layer"):
            declared[group] = {m["name"]: m["unit"] for m in spec[group]}
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            run_args = argparse.Namespace(**vars(args))
            run_args.workload, run_args.trace = workload, trace
            record, e2e, problems, final = measure(binary, run_args)
            print_run(record, e2e, problems, final, trace)
            units = PER_LAYER if trace else END_TO_END
            group = "per_layer" if trace else "end_to_end"
            for name, unit in units.items():
                metric = final["metrics"].get(name)
                if metric is None or metric.get("unit") != unit or not isinstance(
                        metric.get("value"), (int, float)):
                    problems.append(f"metric {name} missing or without unit")
            for name in UNBOUNDED:
                if not isinstance(e2e.get(name), (int, float)):
                    problems.append(f"metric {name} missing")
            if group in declared and declared[group] != units:
                problems.append(f"{group} differs from BENCHMARK.json")
            status = "ok" if not problems and final["correct"] else "FAIL"
            failures += status != "ok"
            log(f"smoke {workload} trace={trace}: {status} "
                f"({final['attempted']} checks, {final['failed']} failed)")
            for problem in problems:
                log(f"  {problem}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"),
                        help="'all' runs each workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scenario-seed", type=int)
    parser.add_argument("--key-seed", type=int)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short run of every workload, traced and not")
    args = parser.parse_args()
    if args.scenario_seed is None:
        args.scenario_seed = args.seed
    if args.key_seed is None:
        args.key_seed = args.seed
    # Seconds of traffic before the measured window, and set-ups per run
    # (each in a fresh process; setup_s is their median).
    args.warmup, args.setups = 1.0, 3
    if args.smoke:
        args.seconds, args.warmup, args.setups = 1.0, 0.3, 1
    elif args.workload is None:
        parser.error("--workload is required")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {ROOT / 'src'}; run from a full checkout")
        return 2
    try:
        binary = build()
        if args.smoke:
            return smoke(binary, args)
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            run_args = argparse.Namespace(**vars(args))
            run_args.workload = workload
            print_run(*measure(binary, run_args), args.trace)
    except BenchError as error:
        log(str(error))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
