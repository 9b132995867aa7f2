#!/usr/bin/env python3
"""Benchmark runner for the vpm simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds perfbench/ (and the simulator
libraries under src/) into .bench_build/, makes the workload's inputs from
the seed, then runs the workload in fresh processes, one simulated day
each, until --seconds have passed (at least MIN_RUNS days). Every process
reports its outcome digest; a run fails if it crashes, breaks an
invariant, or reports another digest or energy than expected.json records
for its workload and seed. For a seed expected.json does not list, a run
fails if it disagrees with the digest the other runs of the set agree on.

--trace 0 measures the headline: no spans, no profiler. The last line of
stdout is a JSON object with the end-to-end metrics of BENCHMARK.json.
Host times are scaled to a nominal machine speed: a fixed reference kernel
(harness/reference_kernel.cpp) is timed just before and just after every
workload process, and the median run_s and setup_s of the set (one
set-up per process) are multiplied by REF_NOMINAL_S / the median kernel
time of the set. That divides out the drift of a shared host; the kernel
calls no simulator code.
--trace 1 alternates untraced and traced runs (and, for consolidation, a
telemetry-off run) and reports the per-layer metrics instead; spans go to
.bench_build/spans/<workload>-seed<n>-run<k>.jsonl, k counting the runs of
the invocation.

Lines before the last one are a human-readable summary, including the
outcome digest, fail_frac and sla_viol_pct, which BENCHMARK.json does not
list because they are 0 on a healthy run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "vpm_perfbench")
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOADS = ("fleet_day", "replay_day", "consolidation")
MIN_RUNS = 3          # headline runs per set, whatever --seconds says
RUN_TIMEOUT_S = 150   # one workload process
BUDGET_S = 170        # no new run past this: one call must end in 180 s
JOBS = "4"
REF_NOMINAL_S = 0.30  # the reference kernel on a quiet 4-vCPU Xeon VM


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench: " + message)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under %s/src" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD_DIR, "-j", JOBS,
                   "--target", "vpm_perfbench"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        fail("cannot read %s: %s" % (path, error))


def expected_outcome(workload, seed):
    """The recorded {digest, energy_kwh} of the workload at seed, or None."""
    return load_json(EXPECTED).get(workload, {}).get(str(seed))


class RunSet:
    """The processes of one invocation and their correctness verdicts."""

    def __init__(self, workload, seed, work_dir):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.inputs = []
        self.records = []    # parsed JSON of processes that exited cleanly
        self.attempted = 0
        self.last_reference = None

    def prepare(self):
        if self.workload == "replay_day":
            trace = os.path.join(self.work_dir, "replay.vpmtrc")
            gen = [BINARY, "gen-trace", "--out", trace,
                   "--seed", str(self.seed)]
            if subprocess.run(gen, timeout=RUN_TIMEOUT_S).returncode != 0:
                fail("replay trace generation failed")
            self.inputs = ["--trace-file", trace]
        elif self.workload == "consolidation":
            self.inputs = [
                "--watchdog", os.path.join(HERE, "watchdog.json"),
                "--snapshot", os.path.join(self.work_dir, "snapshot.vpmts")]

    def reference(self):
        """Seconds of one reference-kernel run, in its own process."""
        proc = subprocess.run([BINARY, "reference"], stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True, check=True)
        return float(proc.stdout)

    def run(self, traced=False, telemetry=True):
        cmd = [BINARY, "run", "--workload", self.workload,
               "--seed", str(self.seed)] + self.inputs
        if not telemetry:
            cmd.append("--no-telemetry")
        if traced:
            spans_dir = os.path.join(BUILD_ROOT, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            cmd += ["--traced", "--run-id", str(self.attempted), "--spans",
                    os.path.join(spans_dir, "%s-seed%d-run%d.jsonl" % (
                        self.workload, self.seed, self.attempted))]
        self.attempted += 1
        started = time.monotonic()
        before = self.last_reference or self.reference()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  timeout=RUN_TIMEOUT_S, text=True)
        except subprocess.TimeoutExpired:
            log("run timed out: " + " ".join(cmd))
            return time.monotonic() - started
        lines = proc.stdout.strip().splitlines()
        try:
            record = json.loads(lines[-1]) if lines else None
        except ValueError:
            record = None
        self.last_reference = self.reference()
        if proc.returncode != 0 or record is None:
            log("run failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
        else:
            record["ref_s"] = (before + self.last_reference) / 2.0
            self.records.append(record)
        return time.monotonic() - started

    def verdicts(self):
        """(good records, failed count, agreed digest)."""
        expected = expected_outcome(self.workload, self.seed)
        if expected:
            agreed = expected["digest"]
        else:
            digests = [r["digest"] for r in self.records]
            agreed = max(set(digests), key=digests.count) if digests else None
        good = []
        for r in self.records:
            if r["violations"]:
                log("invariant violations: %s" % r["violations"])
            elif r["digest"] != agreed:
                log("digest %s differs from %s" % (r["digest"], agreed))
            elif expected and r["energy_kwh"] != expected["energy_kwh"]:
                log("energy %r kWh differs from the recorded %r" % (
                    r["energy_kwh"], expected["energy_kwh"]))
            else:
                good.append(r)
        return good, self.attempted - len(good), agreed


def median(values):
    return statistics.median(values) if values else 0.0


def scaled_median(records, key):
    """Median host time of the records, at the nominal machine speed."""
    ref_s = median([r["ref_s"] for r in records])
    return median([r[key] for r in records]) * REF_NOMINAL_S / ref_s \
        if ref_s > 0 else 0.0


def measure(seconds, round_fn, min_rounds, script_start):
    """Repeat round_fn until --seconds have passed (at least min_rounds),
    never starting a round that would overrun the process budget."""
    started = time.monotonic()
    rounds = 0
    last = 0.0
    while True:
        now = time.monotonic()
        if rounds >= min_rounds and now - started + last > seconds:
            break
        if rounds > 0 and now - script_start + last > BUDGET_S:
            break
        last = round_fn()
        rounds += 1


def summarize(run_set, good, failed, agreed, metrics):
    log_lines = ["workload %s, seed %d: %d attempted, %d failed "
                 "(fail_frac %.3f), digest %s" % (
                     run_set.workload, run_set.seed, run_set.attempted,
                     failed, failed / max(run_set.attempted, 1), agreed)]
    if good:
        log_lines.append("  %d good runs; measured run_s: %s" % (
            len(good), " ".join("%.3f" % r["run_s"] for r in good)))
        log_lines.append("  reference kernel s: %s (nominal %.2f)" % (
            " ".join("%.3f" % r["ref_s"] for r in good), REF_NOMINAL_S))
        log_lines.append("  sla_viol_pct %.6g %%" % good[0]["sla_viol_pct"])
        facts = good[0].get("facts", {})
        if facts:
            log_lines.append("  " + ", ".join(
                "%s %.6g" % kv for kv in sorted(facts.items())))
    for name, entry in metrics.items():
        log_lines.append("  %-34s %14.6g %s" % (name, entry["value"],
                                                entry["unit"]))
    print("\n".join(log_lines))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    script_start = time.monotonic()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    build()

    work_dir = os.path.join(BUILD_ROOT, "work-%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    os.makedirs(work_dir)
    try:
        run_set = RunSet(args.workload, args.seed, work_dir)
        run_set.prepare()
        if args.trace == 0:
            metrics = headline(run_set, args.seconds, bench, script_start)
        else:
            metrics = layers(run_set, args.seconds, bench, script_start)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    good, failed, agreed = run_set.verdicts()
    summarize(run_set, good, failed, agreed, metrics)
    print(json.dumps({
        "correct": failed == 0 and bool(good),
        "attempted": run_set.attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def headline(run_set, seconds, bench, script_start):
    measure(seconds, run_set.run, MIN_RUNS, script_start)
    good, _, _ = run_set.verdicts()
    values = {
        "run_s": scaled_median(good, "run_s"),
        "setup_s": scaled_median(good, "setup_s"),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in good]),
        "energy_kwh": median([r["energy_kwh"] for r in good]),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in bench["end_to_end"]}


def layers(run_set, seconds, bench, script_start):
    consolidation = run_set.workload == "consolidation"

    def one_round():
        elapsed = run_set.run()
        elapsed += run_set.run(traced=True)
        if consolidation:
            elapsed += run_set.run(telemetry=False)
        return elapsed

    measure(seconds, one_round, 1, script_start)
    good, _, _ = run_set.verdicts()
    plain = [r for r in good if not r["traced"] and r["telemetry"]]
    traced = [r for r in good if r["traced"]]
    quiet = [r for r in good if not r["traced"] and not r["telemetry"]]

    def overhead_pct(slow, fast):
        fast_s = scaled_median(fast, "run_s")
        slow_s = scaled_median(slow, "run_s")
        return 100.0 * (slow_s / fast_s - 1.0) if fast_s > 0 else 0.0

    values = {}
    for record in traced:
        for name, value in list(record["layers"].items()) + list(
                record["facts"].items()):
            values.setdefault(name, []).append(value)
    values = {name: median(v) for name, v in values.items()}
    values["trace_overhead_pct"] = overhead_pct(traced, plain)
    if consolidation:
        values["telemetry.overhead_pct"] = overhead_pct(plain, quiet)
    # A layer the workload bypasses did no work: its metric reads 0.
    return {m["name"]: {"value": values.get(m["name"], 0.0),
                        "unit": m["unit"]}
            for m in bench["per_layer"]}


if __name__ == "__main__":
    main()
