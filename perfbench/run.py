#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <regen_mix|compile_levels|js_handwritten>
                             [--seed N] [--seconds S] [--trace 0|1]

Builds `perfbench` (release), then runs rounds of the workload for
`--seconds` (at least one round), one process per round, so that every round starts with an
empty artifact cache and its own peak-RSS counter. Round `r` of seed `n`
always runs the same cells.

--trace 0 reports the end-to-end metrics: the median over rounds of
each round's set-up time, grid wall time, process CPU and peak RSS, and
per-cell latency percentiles over every cell run.

Every time is host-speed normalised. A few vCPUs of a shared VM drift
in speed by up to about 1.6x within minutes, so the workers run a fixed probe loop that uses none of the program's code
between cells (about 5% of a round, left out of every time; see
src/probe.rs). Each time is scaled by REFERENCE_PROBE_MS over the
median time of the slices run around it: within WINDOW_S of a cell for
its latency, and second by second over the round for its wall and CPU
time. Wall times are scaled by the slices' wall times, CPU time by their
CPU times (which, like the process's, leave out time the hypervisor
gave the vCPU to someone else). A scaled time is the seconds the work
would take on a host that runs a slice in REFERENCE_PROBE_MS. Set-up
times are scaled by slices run just before them. The raw times are
printed beside them.

--trace 1 runs each round twice, untraced and traced (alternating which
goes first), checks that both give bit-identical virtual measurements,
and reports the per-layer split of the traced runs (raw times, beside
the host's probe slice time) plus the tracing overhead.

Every round's outputs go through the correctness gate (goldens, output
agreement across backends); any failure makes the run exit 1. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import bisect
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("regen_mix", "compile_levels", "js_handwritten")
# The default seed, and a second seed held out for re-checking claims
# made while looking only at the first.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
# Probe slice time, ms, of the reference host speed every time is scaled
# to: about what a 2.1 GHz Xeon vCPU takes with its core to itself.
REFERENCE_PROBE_MS = 5.0
# Slices within this many seconds of a cell sample the host speed it ran
# at (the window doubles until it holds three slices); wall and CPU time
# are scaled by the mean over the round of one-second bins.
WINDOW_S = 0.5
BIN_S = 1.0
# Values either side of a percentile's rank that its estimate averages.
PERCENTILE_SPAN = 5
# Candidate per-cell tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.5, 99, 98, 95, 90, 75, 50)
EXCLUSIONS = {
    "regen_mix": "size XL: one MIPS-XL cell alone takes about 20 s and would set the run length",
    "compile_levels": "AES, MIPS, BLOWFISH: their XS execution outweighs their compile",
    "js_handwritten": "none",
}
ROUND_TIMEOUT_S = 150
# Extra set-up-only processes per run: set-up takes about a millisecond
# and varies from process to process, so its median is taken over the
# rounds and these.
SETUP_PROCESSES = 9


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return Path(env["CARGO_TARGET_DIR"]).resolve() / "release" / "perfbench"


def source_id():
    """The commit, or a digest of the sources when not in a git checkout."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for path in sorted(ROOT.glob("crates/**/*")) + sorted(HERE.glob("src/*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "sources:" + h.hexdigest()[:16]


def run_round(binary, args, jobs, rnd, extra):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--round", str(rnd), "--jobs", str(jobs), "--root", str(ROOT)] + extra
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"round {rnd} timed out after {ROUND_TIMEOUT_S} s"
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None, f"round {rnd} exited {proc.returncode} without a result"
    result = json.loads(lines[-1])
    if proc.returncode != 0:
        return result, f"round {rnd} exited {proc.returncode}"
    return result, None


def percentile(values, p):
    """The p-th percentile, as the mean of the values ranked within
    PERCENTILE_SPAN of its nearest rank. The tail percentile leaves only
    ten or so values beyond it, where one value can sit far from the
    next; the mean over the span halved the run-to-run spread of
    regen_mix's p99 against the nearest-rank value alone."""
    ordered = sorted(values)
    k = min(len(ordered) - 1, max(0, round(p / 100 * len(ordered) + 0.5) - 1))
    return statistics.fmean(ordered[max(0, k - PERCENTILE_SPAN):k + PERCENTILE_SPAN + 1])


def tail_percentile(cells_per_round):
    """The highest percentile with at least ten cells beyond it in one
    round, so the percentile stays fixed however many rounds a run gets."""
    return next((p for p in TAIL_LADDER if cells_per_round * (100 - p) / 100 >= 10), 50)


class Speed:
    """A round's host speed over time, from its probe slices' wall times
    (column 1) or CPU times (column 2)."""

    def __init__(self, probe, column):
        self.times = [p[0] for p in probe]
        self.ms = [p[column] * 1e3 for p in probe]

    def factor(self, a, b):
        """REFERENCE_PROBE_MS over the median slice time around [a, b] s."""
        w = WINDOW_S
        while True:
            lo = bisect.bisect_left(self.times, a - w)
            hi = bisect.bisect_right(self.times, b + w)
            if hi - lo >= 3 or hi - lo == len(self.times):
                break
            w *= 2
        return REFERENCE_PROBE_MS / statistics.median(self.ms[lo:hi])

    def over(self, wall):
        """The factor averaged over [0, wall] s in BIN_S bins."""
        bins = max(1, round(wall / BIN_S))
        step = wall / bins
        return statistics.fmean(self.factor(i * step, (i + 1) * step) for i in range(bins))


def scaled(r):
    """A round's wall and CPU time and cell latencies on the reference host."""
    if "scaled" not in r:
        wall, cpu = Speed(r["probe"], 1), Speed(r["probe"], 2)
        r["scaled"] = {
            "wall_s": r["wall_s"] * wall.over(r["raw_wall_s"]),
            "cpu_s": r["cpu_s"] * cpu.over(r["raw_wall_s"]),
            "cell_ms": [ms * wall.factor(t, t + ms / 1e3)
                        for t, ms in zip(r["cell_start_s"], r["cell_ms"])],
        }
    return r["scaled"]


def setup_time(r):
    """A process's set-up time, scaled by the slices run just before it."""
    return r["setup_s"] * REFERENCE_PROBE_MS / r["setup_probe_ms"]


def end_to_end(rounds, setups, attempted, failed):
    cell_ms = [ms for r in rounds for ms in scaled(r)["cell_ms"]]
    p = tail_percentile(min(r["cells"] for r in rounds))
    med = lambda key: statistics.median(scaled(r)[key] for r in rounds)
    metrics = {
        "wall_s": (med("wall_s"), "s"),
        "setup_s": (statistics.median([setup_time(r) for r in rounds + setups]), "s"),
        "cpu_s": (med("cpu_s"), "s"),
        "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in rounds), "MiB"),
        "cell_ms_p50": (statistics.median(cell_ms), "ms"),
        "cell_ms_tail": (percentile(cell_ms, p), "ms"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    note = {"cell_ms_tail": f"p{p} of {len(cell_ms)} cells"}
    return metrics, note


def per_layer(spec, pairs):
    traced = [t for _, t in pairs]
    names = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = {}
    for name in names:
        if name.startswith("trace.overhead") or name == "host.probe_ms":
            continue
        metrics[name] = (statistics.median(t["layers"].get(name, 0.0) for t in traced),
                         units[name])
    metrics["host.probe_ms"] = (statistics.median(t["probe_ms"] for t in traced), "ms")
    overhead = [scaled(t)["wall_s"] - scaled(u)["wall_s"] for u, t in pairs]
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(o / scaled(u)["wall_s"] for o, (u, _) in zip(overhead, pairs)),
        "ratio")
    return {n: metrics[n] for n in names}


def report(args, jobs, rounds, metrics, note, layers_doc):
    log(f"== perfbench {args.workload} seed={args.seed} trace={args.trace}")
    log(f"protocol: nproc={os.cpu_count()} jobs={jobs} profile=release commit={source_id()} "
        f"seed={args.seed} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}) "
        f"rounds={len(rounds)} seconds={args.seconds}")
    log(f"exclusions: {EXCLUSIONS[args.workload]}")
    raw = lambda key: statistics.median(r[key] for r in rounds)
    log(f"host: median probe slice {raw('probe_ms'):.3f} ms (reference {REFERENCE_PROBE_MS} ms), "
        f"{raw('probe_slices'):.0f} slices a round; raw grid wall {raw('raw_wall_s'):.4g} s, "
        f"raw CPU {raw('raw_cpu_s'):.4g} s, set-up {raw('setup_s') * 1e3:.4g} ms "
        f"(medians over rounds; metrics below are normalised)")
    first = rounds[0]["properties"]
    n0 = rounds[0]["cells"]
    log(f"workload properties (seed {args.seed}, round 0, {n0} cells): "
        f"per backend {first['cells_per_backend']}, size mix {first['size_mix']}, "
        f"repeat share {first['repeats']}/{n0}, artifact-reuse share {first['artifact_reuse']}/{n0}")
    total = sum(r["cells"] for r in rounds)
    log(f"all {len(rounds)} rounds: {total} cells, "
        f"repeats {sum(r['properties']['repeats'] for r in rounds)}/{total}, "
        f"artifact reuse {sum(r['properties']['artifact_reuse'] for r in rounds)}/{total}, "
        f"checks {sum(r['checks'] for r in rounds)}")
    for name, (value, unit) in metrics.items():
        extra = f"  ({note[name]})" if name in note else ""
        prediction = layers_doc.get(name, "")
        log(f"  {name:<28} {value:>16.6g} {unit:<6}{extra}  {prediction}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers_doc = {k: f"[{v['layer']}] moves {v['moves']}; no change on {v['no_change']}"
                  for k, v in json.loads((HERE / "layers.json").read_text()).items()}
    binary = build()
    if binary is None:
        log("error: build failed")
        return 1
    jobs = len(os.sched_getaffinity(0))
    trace_dir = ROOT / ".perfbench"
    trace_dir.mkdir(exist_ok=True)
    trace_out = trace_dir / f"trace_{args.workload}_{args.seed}.jsonl"

    errors, rounds, pairs, setups = [], [], [], []
    for _ in range(0 if args.trace else SETUP_PROCESSES):
        result, err = run_round(binary, args, jobs, 0, ["--setup-only"])
        if err:
            errors.append(err)
        if result is not None:
            setups.append(result)
    start = time.monotonic()
    rnd = 0
    # Start another round only while it is expected to end in time.
    while rnd == 0 or (time.monotonic() - start) * (rnd + 1) / rnd <= args.seconds:
        order = [False, True] if rnd % 2 == 0 else [True, False]
        results = {}
        for traced in (order if args.trace else [False]):
            extra = ["--trace", "--trace-out", str(trace_out)] if traced else []
            result, err = run_round(binary, args, jobs, rnd, extra)
            if err:
                errors.append(err)
            if result is None:
                break
            errors += result["check_failures"]
            results[traced] = result
        if False in results:
            rounds.append(results[False])
        if True in results and False in results:
            u, t = results[False], results[True]
            if u["digest"] != t["digest"]:
                errors.append(f"round {rnd}: traced virtual measurements differ from untraced")
            pairs.append((u, t))
        if not results:
            break
        rnd += 1

    if not rounds or (args.trace and not pairs):
        for e in errors:
            log("error:", e)
        return 1
    runs = [r for pair in pairs for r in pair] if args.trace else rounds
    attempted = sum(r["cells"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if args.trace:
        metrics, note = per_layer(spec, pairs), {}
    else:
        metrics, note = end_to_end(rounds, setups, attempted, failed)
    report(args, jobs, rounds, metrics, note, layers_doc)
    for e in errors:
        log("error:", e)
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
