#!/usr/bin/env python3
"""Repository benchmark: builds perfbench_run from source and runs one workload.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload lan-canopus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload geo-epaxos-crash --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --selftest

The build goes to .bench_build/perfbench. Each invocation runs the
generator self-test, then repeats the workload in fresh processes until
--seconds have passed (at least three timing repetitions), and prints as
its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports every end-to-end metric of BENCHMARK.json, --trace 1 every
per-layer metric (from an untraced and a traced run of the operating point;
see perfbench/README.md). Per-layer metrics that do not apply to a workload
read 0. The exit status is nonzero when the build, the self-test or any
correctness gate fails.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_EXE = os.path.join(BUILD, "perfbench_run")
SELFTEST_EXE = os.path.join(BUILD, "perfbench_selftest")

# Simulated workloads repeat bit-for-bit; their timing repetitions must
# reproduce the first repetition's digest exactly.
SIM_WORKLOADS = {"lan-canopus", "geo-epaxos-crash"}
# Workloads with an audited first repetition (the audit records every
# commit and reply, so the timing repetitions run without it).
AUDITED = {"geo-epaxos-crash"}
# End-to-end metrics measured in wall-clock time or memory (see
# host_calibrated). Everything else on a simulated workload is simulated
# time and must be identical across repetitions.
WALL_E2E = {"setup_s", "wall_s", "peak_rss_mb"}
# Nominal wall seconds of one unit of the reference work (calibrate.h):
# simulated workloads report setup_s and wall_s as they would read on a host
# where the unit takes this long.
REF_UNIT_S = 0.0015
# Threaded latency metrics: this quantile, over the run's sub-windows, of
# each sub-window's percentile (see end_to_end).
WINDOW_QUANTILE = 0.05

MIN_REPS = 3
TRACE_ROUNDS = 3
MAX_REPS = 40
REP_TIMEOUT_S = 120
WALL_BUDGET_S = 150  # stop starting repetitions past this, whatever --seconds

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_spec(spec):
    """Validates the metric declarations; returns a list of problems."""
    problems = []
    names = set()
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            if not NAME_RE.match(m["name"]):
                problems.append("bad metric name %r" % m["name"])
            if m["name"] in names:
                problems.append("duplicate metric name %r" % m["name"])
            names.add(m["name"])
            if not UNIT_RE.match(m["unit"]):
                problems.append("bad unit %r for %s" % (m["unit"], m["name"]))
            if m["better"] not in ("lower", "higher"):
                problems.append("bad 'better' for %s" % m["name"])
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            problems.append("bound of %s outside (0, 0.25]" % m["name"])
    for w in spec["workloads"]:
        if not NAME_RE.match(w["name"]):
            problems.append("bad workload name %r" % w["name"])
    return problems


def build():
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--parallel", "4"],
                   stdout=sys.stderr, check=True)


def selftest_binary():
    r = subprocess.run([SELFTEST_EXE], capture_output=True, text=True,
                       timeout=REP_TIMEOUT_S)
    sys.stderr.write(r.stdout)
    if r.returncode != 0:
        raise BenchError("generator self-test failed")


def run_rep(workload, seed, mode="full", serial=False, audit=True,
            trace_out=None):
    cmd = [RUN_EXE, "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--audit", "1" if audit else "0", "--serial", "1" if serial else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    r = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=REP_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        raise BenchError("%s exited with %d" % (" ".join(cmd), r.returncode))
    rep = json.loads(lines[-1])
    rep["notes"] = [l for l in lines[:-1] if l.startswith("#")]
    rep["mode"] = "%s/%s/audit=%d" % (mode, "serial" if serial else "default",
                                      audit)
    return rep


def digest_key(rep, drop_events_by=0):
    d = dict(rep["digest"])
    if "events" in d:
        d["events"] = str(int(d["events"]) - drop_events_by)
    return d


def low_quantile(values):
    """Nearest-rank WINDOW_QUANTILE quantile."""
    return sorted(values)[int(len(values) * WINDOW_QUANTILE)]


def host_calibrated(timing, sim, errors):
    """(setup_s, wall_s, note): medians over the timing repetitions.

    The speed of a shared host drifts by tens of percent within minutes,
    and a whole run can fall into a slow stretch. On the simulated
    workloads every segment of a repetition is followed by one unit of
    fixed reference work, so a repetition's times are rescaled by
    REF_UNIT_S / (its mean reference unit): the host's speed cancels, the
    program's own cost does not (the reference calls no program code). On
    threads the phases are fixed lengths of wall time and are taken as
    measured.
    """
    setups, walls, units, raw = [], [], [], []
    for r in timing:
        setup = sum(r["setup_parts"])
        wall = setup + sum(r["run_parts"])
        raw.append(wall)
        if sim:
            refs = r["setup_ref"] + r["run_ref"]
            if not refs or len(refs) != len(r["setup_parts"]) + len(r["run_parts"]):
                errors.append("reference timings missing from a repetition")
                return 0.0, 0.0, ""
            unit = sum(refs) / len(refs)
            units.append(unit)
            setup *= REF_UNIT_S / unit
            wall *= REF_UNIT_S / unit
        setups.append(setup)
        walls.append(wall)
    note = "# raw wall per repetition (s): %s" % " ".join(
        "%.3f" % w for w in raw)
    if units:
        note += "; reference unit (ms): %s" % " ".join(
            "%.3f" % (u * 1e3) for u in units)
    return statistics.median(setups), statistics.median(walls), note


def end_to_end(args, errors):
    """Repeats the workload; returns (attempted, failed, metric values)."""
    sim = args.workload in SIM_WORKLOADS
    reps = []
    start = time.monotonic()
    if args.workload in AUDITED:
        reps.append(run_rep(args.workload, args.seed, audit=True))
    timing = []
    last = 0.0
    while len(timing) < MAX_REPS:
        elapsed = time.monotonic() - start
        # Stop before a repetition that would end past --seconds.
        if len(timing) >= MIN_REPS and (elapsed + last > args.seconds or
                                        elapsed + 2 * last > WALL_BUDGET_S):
            break
        rep_start = time.monotonic()
        rep = run_rep(args.workload, args.seed, audit=False)
        last = time.monotonic() - rep_start
        timing.append(rep)
        reps.append(rep)
    for line in reps[0]["notes"]:
        print(line)
    for rep in reps:
        for e in rep["errors"]:
            errors.append("%s: %s" % (rep["mode"], e))
        if not rep["ok"] and not rep["errors"]:
            errors.append("%s: gate failed" % rep["mode"])
    values = {}
    if sim:
        ref = digest_key(reps[0])
        for rep in reps[1:]:
            if digest_key(rep) != ref:
                errors.append("simulated outputs differ between repetitions "
                              "of one seed")
                break
            for k, v in rep["e2e"].items():
                if k not in WALL_E2E and v != reps[0]["e2e"][k]:
                    errors.append("simulated metric %s differs between "
                                  "repetitions" % k)
        for k, v in reps[0]["e2e"].items():
            values[k] = v
        attempted, failed = reps[0]["attempted"], reps[0]["failed"]
    else:
        # Wall-clock latencies on a shared host: stretches of host noise
        # (late thread wake-ups) only ever raise them. Each percentile is
        # the WINDOW_QUANTILE quantile, over every 250-ms sub-window of
        # every repetition, of that sub-window's percentile, so noise that
        # spoils most of a run does not move it.
        for k in reps[0]["e2e"]:
            values[k] = reps[0]["e2e"][k]
        for k in ("p50", "p99", "p999"):
            windows = [v for r in timing for v in r["win_" + k]]
            if not windows:
                errors.append("no latency sub-windows on threads")
                continue
            values[k + "_ms"] = low_quantile(windows)
        print("# whole-window p50/p99/p999 per repetition (ms): %s" % " ".join(
            "%.3f/%.3f/%.3f" % (r["e2e"]["p50_ms"], r["e2e"]["p99_ms"],
                                r["e2e"]["p999_ms"]) for r in timing))
        attempted = sum(r["attempted"] for r in timing)
        failed = sum(r["failed"] for r in timing)
        values["completed_frac"] = (attempted - failed) / attempted
    values["peak_rss_mb"] = statistics.median(
        [r["e2e"]["peak_rss_mb"] for r in timing])
    values["setup_s"], values["wall_s"], note = host_calibrated(
        timing, sim, errors)
    print(note)
    print("# %d repetitions (%d timing) in %.1f s" %
          (len(reps), len(timing), time.monotonic() - start))
    return attempted, failed, values


def per_layer(args, errors):
    """Untraced and traced runs of the operating point; per-layer values."""
    trace_dir = os.path.join(ROOT, ".bench_build", "trace")
    os.makedirs(trace_dir, exist_ok=True)
    stem = os.path.join(trace_dir, "%s-seed%d" % (args.workload, args.seed))
    w = args.workload
    if w not in SIM_WORKLOADS:
        plain = run_rep(w, args.seed, mode="plain", trace_out=stem + ".json")
        reps = [plain]
        values = dict(plain["layer"])
    else:
        # The audited run is the gate; timing comes from TRACE_ROUNDS rounds
        # of untraced (2-worker and serial on geo) and traced runs, and the
        # overhead and speed-up are medians of per-round ratios.
        gated = run_rep(w, args.seed, mode="plain", audit=True)
        reps = [gated]
        rounds = []
        for i in range(TRACE_ROUNDS):
            serial = run_rep(w, args.seed, mode="plain", serial=True,
                             audit=False)
            plain = serial
            if w == "geo-epaxos-crash":
                plain = run_rep(w, args.seed, mode="plain", audit=False)
            traced = run_rep(w, args.seed, mode="traced", audit=False,
                             trace_out=stem + "-traced.json" if i == 0 else None)
            rounds.append((plain, serial, traced))
            reps += [plain, serial, traced]
        ref = digest_key(gated)
        for plain, serial, traced in rounds:
            if digest_key(plain) != ref or digest_key(serial) != ref:
                errors.append("untraced runs differ (audited, 2-worker, serial)")
            if digest_key(traced, traced["proxies"]) != ref:
                errors.append("traced run's simulated outputs differ from the "
                              "untraced run's")
            for k in ("p50_ms", "p99_ms", "p999_ms", "completed_frac"):
                if traced["e2e"][k] != gated["e2e"][k]:
                    errors.append("traced run's %s differs" % k)
        # Counts and the handler/kernel split come from the traced run;
        # timings and allocation counts from the untraced serial runs.
        plain, serial, traced = rounds[0]
        values = dict(traced["layer"])
        for k in ("kernel.ns_per_event", "payload.allocs_per_event",
                  "payload.allocs_per_op", "setup.cluster_ms",
                  "setup.service_ms", "setup.warmup_s"):
            values[k] = statistics.median([r[1]["layer"][k] for r in rounds])
        values["trace.overhead"] = statistics.median(
            [t["run_wall_s"] / s["run_wall_s"] for _, s, t in rounds])
        if w == "geo-epaxos-crash":
            values["kernel.pdes_speedup"] = statistics.median(
                [s["run_wall_s"] / p["run_wall_s"] for p, s, _ in rounds])
        for line in traced["notes"]:
            print(line)
        print("# tracing overhead: traced wall / untraced wall = %.3f "
              "(median of %d rounds)" % (values["trace.overhead"], TRACE_ROUNDS))
    for rep in reps:
        for e in rep["errors"]:
            errors.append("%s: %s" % (rep["mode"], e))
        if not rep["ok"] and not rep["errors"]:
            errors.append("%s: gate failed" % rep["mode"])
    print("# trace artifacts: %s*.json" % os.path.relpath(stem, ROOT))
    return reps[0]["attempted"], reps[0]["failed"], values


def assemble(declared, values):
    metrics = {}
    absent = []
    for m in declared:
        v = values.get(m["name"])
        if v is None:
            absent.append(m["name"])
            v = 0.0
        metrics[m["name"]] = {"value": float(v), "unit": m["unit"]}
    return metrics, absent


def check_output(declared, metrics):
    """Every declared metric, and nothing else, with its unit and a valid name."""
    problems = []
    if set(metrics) != {m["name"] for m in declared}:
        problems.append("output metrics differ from the declared ones")
    for m in declared:
        got = metrics.get(m["name"])
        if not NAME_RE.match(m["name"]) or got is None or got["unit"] != m["unit"] \
                or not UNIT_RE.match(got["unit"]):
            problems.append("metric %s missing or malformed in the output" %
                            m["name"])
    return problems


def selftest_spec(spec):
    problems = check_spec(spec)
    for group in ("end_to_end", "per_layer"):
        metrics, _ = assemble(spec[group], {})
        problems += check_output(spec[group], metrics)
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and
               m["better"] == "lower" for m in spec["end_to_end"]):
        problems.append("setup_s (s, lower) is not declared")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="check BENCHMARK.json and the generator, then exit")
    args = ap.parse_args()

    try:
        spec = load_spec()
        build()
        selftest_binary()
        problems = selftest_spec(spec)
        for p in problems:
            log("BENCHMARK.json: " + p)
        if problems:
            return 1
        if args.selftest:
            print("selftest passed")
            return 0
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            log("unknown workload %r" % args.workload)
            return 2
        errors = []
        if args.trace:
            declared = spec["per_layer"]
            attempted, failed, values = per_layer(args, errors)
        else:
            declared = spec["end_to_end"]
            attempted, failed, values = end_to_end(args, errors)
        metrics, absent = assemble(declared, values)
        errors += check_output(declared, metrics)
        if absent:
            print("# not applicable to %s (reported as 0): %s" %
                  (args.workload, " ".join(absent)))
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        log("perfbench: %s" % e)
        return 1
    for e in errors:
        print("# GATE FAILED: " + e)
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
