#!/usr/bin/env python3
"""Occamy simulator benchmark: three paper workloads, end to end and per layer.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace 0|1
  python3 perfbench/run.py --smoke        # each workload once at --scale=smoke
  python3 perfbench/run.py --self-test    # report-step rejection tests
  python3 perfbench/run.py --record       # rewrite perfbench/expected.json

--trace 0 times untraced `occamy_sim run` processes (wall_s, cpu_s,
peak_rss_mb) and set-up-only driver processes (setup_s). --trace 1 runs the
benchmark's traced driver next to the untraced runner, checks that their
simulated outcomes are identical, and adds the layer replays. Every run's
outcome is also checked against perfbench/expected.json. The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for the metric -> layer -> end-to-end table.
"""

import argparse
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
EXPECTED = HERE / "expected.json"
SPEC = ROOT / "BENCHMARK.json"

# Per workload: occamy_sim arguments (the driver knows the same table).
WORKLOADS = {
    "star_burst_absorption": ["--scenario=burst_absorption", "--shards=1"],
    "star_choking": ["--scenario=choking", "--shards=1"],
    "fabric_websearch": ["--scenario=websearch", "--shards=2"],
}

# Simulated-outcome keys compared against expected.json and between the
# traced and untraced runs. Engine-work counters (sim_events, mailbox_*,
# windows_*) are layer metrics, not outcomes: an optimisation that removes
# internal events is not a failure.
OUTCOME_KEY = re.compile(
    r"^(delivered_bytes|queries_completed|qct_.*|fct_.*|drops|expelled|rtos|"
    r"peak_occupancy_bytes|queue_delay_.*)$")


class ReportError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit("run.py: the simulator sources are not in this checkout; "
                         "run from the repository root")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j4", "--target",
                    "occamy_sim", "perf_driver"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / "occamy" / "occamy_sim", BUILD / "perf_driver"


def run_process(argv):
    """Runs argv; returns (exit code, stdout, wall s, user+sys cpu s, max RSS MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([str(a) for a in argv], stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, out, wall, cpu, usage.ru_maxrss / 1024.0


def machine_stamp(driver):
    cache = {}
    cache_file = BUILD / "CMakeCache.txt"
    if cache_file.is_file():
        for line in cache_file.read_text().splitlines():
            m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line)
            if m:
                cache[m.group(1)] = m.group(2)
    try:
        describe = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
        git = describe.stdout.strip() if describe.returncode == 0 else "none"
    except OSError:
        git = "none"
    rc, out, *_ = run_process([driver, "spin"])
    spin = json.loads(out) if rc == 0 else {}
    compiler = subprocess.run([cache.get("CMAKE_CXX_COMPILER", "c++"), "--version"],
                              capture_output=True, text=True).stdout.splitlines()
    return {
        "nproc": os.cpu_count(),
        "spin_1t_s": spin.get("spin_1t_s"),
        "spin_4t_speedup": spin.get("spin_4t_speedup"),
        "compiler": compiler[0] if compiler else "unknown",
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "occamy_trace": cache.get("OCCAMY_TRACE", "unknown"),
        "git_describe": git,
    }


# ---------------------------------------------------------------- checks

def outcome_of(doc):
    return {k: v for k, v in doc.items() if OUTCOME_KEY.match(k)}


def check_expected(workload, sim_seed, outcome, expected):
    """Mismatched recorded keys (a later schema that adds fields never fails)."""
    want = expected.get(workload, {}).get(str(sim_seed))
    if want is None:
        return [f"no recorded outcome for {workload} seed {sim_seed}"]
    return [f"{k}: got {outcome.get(k)!r}, recorded {v!r}"
            for k, v in want.items() if outcome.get(k) != v]


def check_equal(a, b):
    return [f"{k}: runner {a[k]!r} vs driver {b[k]!r}"
            for k in sorted(a.keys() & b.keys()) if a[k] != b[k]]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            log(f"FAILED {what}: " + "; ".join(problems[:5]))
        return not problems


def sim_run(sim, workload, sim_seed, scale):
    """One untraced occamy_sim run; returns (doc or None, wall, cpu, rss)."""
    rc, out, wall, cpu, rss = run_process(
        [sim, "run", *WORKLOADS[workload], "--bm=occamy", f"--seed={sim_seed}",
         f"--scale={scale}"])
    doc = json.loads(out) if rc == 0 else None
    return doc, wall, cpu, rss, rc


def driver_run(driver, workload, sim_seed, scale, extra):
    rc, out, wall, cpu, rss = run_process(
        [driver, "run", f"--workload={workload}", f"--seed={sim_seed}",
         f"--scale={scale}", *extra])
    return (json.loads(out) if rc == 0 else None), wall, rc


# ---------------------------------------------------------------- statistics

def pooled(per_seed):
    """Mean over input seeds of each seed's median (every seed weighs the same)."""
    return statistics.fmean(statistics.median(v) for v in per_seed.values() if v)


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


# ---------------------------------------------------------------- modes

def measure_untraced(sim, driver, workload, seed, seconds, expected, tally):
    """End-to-end metrics: whole cycles over the workload's input seeds (order
    drawn from --seed) until `seconds` have passed, at least one cycle. Each
    step is one runner process and one set-up-only driver process."""
    pool = sorted(int(s) for s in expected[workload])
    order = random.Random(seed).sample(pool, len(pool))
    samples = {k: {s: [] for s in pool} for k in ("wall_s", "cpu_s", "peak_rss_mb",
                                                   "setup_s")}
    deadline = time.perf_counter() + seconds
    while True:
        for sim_seed in order:
            doc, wall, cpu, rss, rc = sim_run(sim, workload, sim_seed, "default")
            problems = [f"occamy_sim exited {rc}"] if doc is None else check_expected(
                workload, sim_seed, outcome_of(doc), expected)
            if tally.record(f"{workload} seed {sim_seed}", problems):
                samples["wall_s"][sim_seed].append(wall)
                samples["cpu_s"][sim_seed].append(cpu)
                samples["peak_rss_mb"][sim_seed].append(rss)
            out, _, rc = driver_run(driver, workload, sim_seed, "default", ["--setup-only"])
            if tally.record(f"{workload} seed {sim_seed} setup",
                            [] if out else [f"perf_driver exited {rc}"]):
                samples["setup_s"][sim_seed].append(out["host"]["setup_s"])
        if time.perf_counter() >= deadline:
            break
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    metrics, notes = {}, []
    for name, per_seed in samples.items():
        if any(not v for v in per_seed.values()):
            continue  # a seed with no good sample: leave the metric out
        metrics[name] = {"value": pooled(per_seed), "unit": units[name]}
        n = sum(len(v) for v in per_seed.values())
        iqr = statistics.fmean(spread(v) for v in per_seed.values())
        notes.append(f"{name:>12} = {metrics[name]['value']:.6g} {units[name]}"
                     f"  (mean of per-seed medians over seeds {pool}; mean per-seed "
                     f"IQR {iqr:.3g}; n={n})")
    return metrics, notes


def measure_traced(sim, driver, workload, seed, seconds, scale, expected, tally,
                   check_recorded=True):
    """Per-layer metrics for one input seed: untraced runner + traced driver
    pairs until `seconds` pass (at least one), then the layer replays."""
    pool = sorted(int(s) for s in expected.get(workload, {"1": {}}))
    sim_seed = pool[seed % len(pool)]
    runs, traced = [], []
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        doc, wall, cpu, rss, rc = sim_run(sim, workload, sim_seed, scale)
        problems = [f"occamy_sim exited {rc}"] if doc is None else []
        if doc is not None and check_recorded:
            problems += check_expected(workload, sim_seed, outcome_of(doc), expected)
        out, twall, trc = driver_run(driver, workload, sim_seed, scale, ["--trace-bm"])
        if out is None:
            problems.append(f"perf_driver exited {trc}")
        elif doc is not None:
            # The traced driver must reproduce the runner exactly: same
            # outcomes and the same engine work.
            mine = out["outcome"]
            problems += check_equal(outcome_of(doc), outcome_of(mine))
            problems += check_equal(
                {k: doc[k] for k in ("sim_events", "windows_run", "windows_executed",
                                     "mailbox_staged_events")},
                mine)
        if tally.record(f"{workload} seed {sim_seed} traced", problems):
            runs.append((doc, wall, cpu))
            traced.append((out, twall))
    if not runs:
        return {}, []
    rc, rout, *_ = run_process([driver, "replay", f"--workload={workload}"])
    replay = json.loads(rout) if tally.record(f"{workload} replay",
                                              [] if rc == 0 else [f"exit {rc}"]) else {}

    doc = runs[0][0]
    o = traced[0][0]["outcome"]
    med = statistics.median
    host = {k: med([t[0]["host"][k] for t in traced]) for k in traced[0][0]["host"]}
    wall = med([r[1] for r in runs])
    events = doc["sim_events"]
    shards = o["shards"]
    dequeues = doc["queue_delay_samples"]
    admit_calls = host["bm_admit_calls"]
    m = {
        "sim.run_s": (host["run_s"], "s"),
        "sim.events": (events, "count"),
        "sim.ns_per_event": (host["run_s"] / events * 1e9, "ns"),
        "sim.windows": (doc["windows_executed"], "count"),
        "sim.plan_rounds": (doc["windows_run"], "count"),
        "sim.events_per_window": (events / doc["windows_executed"], "count"),
        "sim.parallel_efficiency": (med([r[0]["parallel_efficiency"] for r in runs]),
                                    "ratio"),
        "sim.cpu_per_wall": (med([r[2] / r[1] for r in runs]), "ratio"),
        "net.mailbox_events": (doc["mailbox_staged_events"], "count"),
        "tm.dequeues": (dequeues, "count"),
        "tm.drops": (doc["drops"], "count"),
        "tm.drop_ratio": (doc["drops"] / (dequeues + doc["drops"]), "ratio"),
        "bm.admit_calls": (admit_calls, "count"),
        "bm.admit_accept_ratio": (host["bm_admit_accepts"] / admit_calls, "ratio"),
        "bm.admit_ns": (host["bm_admit_ns"] / admit_calls, "ns"),
        "bm.hook_ns": (host["bm_hook_ns"] / max(host["bm_hook_calls"], 1), "ns"),
        "bm.evict_calls": (host["bm_evict_calls"] + host["bm_threshold_calls"], "count"),
        "bm.share_of_run": (host["bm_total_ns"] / (host["run_s"] * 1e9 * shards),
                            "ratio"),
        "core.expelled": (doc["expelled"], "count"),
        "core.expelled_per_kevent": (doc["expelled"] / events * 1000, "1/kevent"),
        "transport.flows_completed": (o["flows_completed"], "count"),
        "transport.rtos": (o["rtos"], "count"),
        "workload.pregen_s": (host["pregen_s"] + host["start_s"], "s"),
        "workload.flows": (o["flows"], "count"),
        "exp.build_s": (host["build_s"], "s"),
        "exp.collect_s": (host["collect_s"], "s"),
        "trace.overhead_frac": (med([t[1] for t in traced]) / wall - 1, "ratio"),
    }
    for name, value in replay.items():
        m[name] = (value, "ns")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
    notes = [f"traced seed {sim_seed}: {len(runs)} runner/driver pairs, outcomes identical"]
    return metrics, notes


# ---------------------------------------------------------------- report

def load_spec():
    return json.loads(SPEC.read_text())


def report(spec, workload, trace, metrics):
    """Validates one result against BENCHMARK.json; raises ReportError."""
    names = [w["name"] for w in spec.get("workloads", [])]
    if workload not in names:
        raise ReportError(f"workload {workload!r} is not in BENCHMARK.json {names}")
    missing_here = [w for w in names if w not in WORKLOADS]
    if missing_here:
        raise ReportError(f"BENCHMARK.json workloads {missing_here} have no runner")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m.get("unit") for m in declared}
    for name, unit in want.items():
        if not unit:
            raise ReportError(f"metric {name!r} has no unit in BENCHMARK.json")
        got = metrics.get(name)
        if got is None:
            raise ReportError(f"metric {name!r} missing from the result")
        if got.get("unit") != unit:
            raise ReportError(f"metric {name!r} unit {got.get('unit')!r}, want {unit!r}")
        v = got.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            raise ReportError(f"metric {name!r} value {v!r} is not a finite number")
    extra = sorted(set(metrics) - set(want))
    if extra:
        raise ReportError(f"metrics {extra} are not declared in BENCHMARK.json")
    return {k: metrics[k] for k in want}


def self_test():
    spec = {
        "workloads": [{"name": w, "why": "-"} for w in WORKLOADS],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}],
        "per_layer": [{"name": "sim.events", "unit": "count", "better": "lower"}],
    }
    good = {"wall_s": {"value": 1.5, "unit": "s"}}
    report(spec, "star_choking", 0, good)
    bad_cases = {
        "unknown workload": (spec, "star_incast", 0, good),
        "workload missing from spec": (
            dict(spec, workloads=spec["workloads"][1:]), "star_burst_absorption", 0, good),
        "spec workload without runner": (
            dict(spec, workloads=spec["workloads"] + [{"name": "x", "why": "-"}]),
            "star_choking", 0, good),
        "missing metric": (spec, "star_choking", 0, {}),
        "missing unit in result": (spec, "star_choking", 0, {"wall_s": {"value": 1.5}}),
        "wrong unit": (spec, "star_choking", 0, {"wall_s": {"value": 1.5, "unit": "ms"}}),
        "missing unit in spec": (
            dict(spec, end_to_end=[{"name": "wall_s", "better": "lower", "bound": 0.1}]),
            "star_choking", 0, good),
        "non-finite value": (
            spec, "star_choking", 0, {"wall_s": {"value": float("nan"), "unit": "s"}}),
        "undeclared metric": (
            spec, "star_choking", 0, dict(good, extra={"value": 1, "unit": "s"})),
        "per-layer metric missing": (spec, "star_choking", 1, good),
    }
    failures = []
    for what, args in bad_cases.items():
        try:
            report(*args)
            failures.append(what)
        except ReportError:
            pass
    # The real spec must name exactly the runner's workloads.
    real = load_spec()
    if sorted(w["name"] for w in real["workloads"]) != sorted(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from the runner's")
    if failures:
        print("self-test FAILED: accepted " + ", ".join(failures))
        return 1
    print(f"self-test ok: {len(bad_cases)} malformed results rejected")
    return 0


def smoke():
    """Each workload once at --scale=smoke, both modes; every declared metric
    must appear with its unit, and traced == untraced outcomes."""
    sim, driver = build()
    spec = load_spec()
    ok = True
    for workload in WORKLOADS:
        tally = Tally()
        # Smoke outcomes are not recorded; only traced == untraced is checked.
        fake = {workload: {"1": {}}}
        metrics, _ = measure_traced(sim, driver, workload, 0, 0, "smoke", fake, tally,
                                    check_recorded=False)
        _, wall, cpu, rss, rc = sim_run(sim, workload, 1, "smoke")
        out, _, _ = driver_run(driver, workload, 1, "smoke", ["--setup-only"])
        e2e = {"wall_s": {"value": wall, "unit": "s"}, "cpu_s": {"value": cpu, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"},
               "setup_s": {"value": out["host"]["setup_s"] if out else None, "unit": "s"}}
        for trace, ms in ((0, e2e), (1, metrics)):
            try:
                report(spec, workload, trace, ms)
            except ReportError as e:
                ok = False
                print(f"smoke {workload} trace={trace}: {e}")
        if tally.failed or rc != 0:
            ok = False
        print(f"smoke {workload}: {len(metrics)} per-layer metrics, "
              f"{tally.failed} of {tally.attempted} runs failed")
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def record():
    """Records each workload's outcomes for its input seeds (default scale)."""
    sim, _ = build()
    expected = {}
    for workload in WORKLOADS:
        expected[workload] = {}
        for sim_seed in (1, 2, 3, 4):
            doc, *_ = sim_run(sim, workload, sim_seed, "default")
            if doc is None:
                raise SystemExit(f"occamy_sim failed on {workload} seed {sim_seed}")
            expected[workload][str(sim_seed)] = outcome_of(doc)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {EXPECTED}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        return self_test()
    if a.smoke:
        return smoke()
    if a.record:
        return record()
    if a.workload is None:
        ap.error("--workload is required")

    spec = load_spec()
    sim, driver = build()
    expected = json.loads(EXPECTED.read_text())
    stamp = machine_stamp(driver)
    print("machine: " + json.dumps(stamp, sort_keys=True))
    tally = Tally()
    if a.trace:
        metrics, notes = measure_traced(sim, driver, a.workload, a.seed, a.seconds,
                                        "default", expected, tally)
    else:
        metrics, notes = measure_untraced(sim, driver, a.workload, a.seed, a.seconds,
                                          expected, tally)
    for n in notes:
        print(n)
    try:
        metrics = report(spec, a.workload, a.trace, metrics)
        reported = True
    except ReportError as e:
        log(f"report: {e}")
        reported = False
    for name, m in sorted(metrics.items()):
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    result = {"correct": reported and tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
