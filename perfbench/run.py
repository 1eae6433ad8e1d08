"""Benchmark of abtorus: seeded workloads through the public surface, every output checked.

    python3 perfbench/run.py --workload orbit-stats --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
A run repeats the workload's job list (one pass) until ``--seconds`` would
be exceeded, with at least one pass. Jobs are in-process calls of
``abtorus.cli.run(argv)`` plus two ``measures`` functions that have no CLI
command, each called once per pass. Every call is one attempt. The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics. Their times are given at a
fixed reference speed of the host: on a shared host the same call runs up
to 1.8x slower for stretches from a fraction of a second to minutes, so
around each timed call shorter than ``LONG_CALL_S`` the run times
calibration blocks of fixed work (``calibration_unit``), the one after the
call for at least ``CAL_SHARE`` of the call's time, and scales the call's
time by ``CAL_UNIT_REF_S`` over the mean unit time of the blocks just
before and just after it. A library change does not touch the calibration
work, so the scaled times move with the code and not with the host. A
job's latency is the median of its scaled calls in the run. ``wall_s`` is
the sum of the job latencies (the job list's time), ``job_p50_s`` and
``job_p90_s`` are nearest-rank percentiles over the jobs, ``setup_s`` is
the median of fifteen fresh processes (one before each pass, the rest
after the last) from spawn through import, parser build and one warm-up
call, each scaled by the block after it, and ``peak_rss_mb`` is the peak
resident memory of this process, which runs only the workload, after its
first pass. The unscaled figures are written to stderr.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.py``: calls, total and self time per span
(medians over traced passes), exact counts, and the tracing overhead.
Spans are written to ``.bench_build/perfbench/spans-<workload>-<seed>.jsonl``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 15
CAL_SHARE = 0.1  # the calibration after a timed call lasts at least this share of it
CAL_UNIT_REF_S = 0.005  # seconds of one calibration unit at the reference host speed
# A call this long averages over the host's speed stretches by itself, and a
# calibration block after it would sample only its end: it is not scaled.
LONG_CALL_S = 10.0
WARMUP_ARGV = ["orbit", "-a", "2", "-b", "3", "-x", "1/5", "-N", "4"]
MODULES = ("torus", "measures", "moran", "irregular", "typecount", "cli")

sys.path.insert(0, str(HERE))
from oracle import CheckError, Oracle  # noqa: E402
from tracing import COUNTS, SPANS, Tracer  # noqa: E402
from workloads import SIZES, WORKLOADS, build_jobs  # noqa: E402


def load_library() -> dict:
    """Import abtorus from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "abtorus" / "__init__.py").is_file():
        sys.stderr.write(f"error: no abtorus sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import abtorus

    if Path(abtorus.__file__).resolve().parent != (SRC / "abtorus").resolve():
        sys.stderr.write(f"error: imported abtorus from {abtorus.__file__}, not {SRC}\n")
        raise SystemExit(2)
    return {name: sys.modules[f"abtorus.{name}"] for name in MODULES}


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


def setup_probe() -> None:
    """Child process of probe_setup: set up, say "ready", exit."""
    mods = load_library()
    mods["cli"].build_parser()
    run_cli(mods["cli"], WARMUP_ARGV)
    print("ready", flush=True)


def probe_setup() -> float:
    """Seconds from spawning a fresh process to its "ready" line."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "run.py"), "--setup-probe"],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            seconds = perf_counter() - start
        finally:
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                sys.stderr.write("error: set-up probe failed\n")
                raise SystemExit(2)
    return seconds


def calibration_unit() -> None:
    """Fixed work of the kinds the library does: a Python integer loop,
    a Fraction sum and a numpy complex exponential (about 5 ms on a 2 GHz Xeon)."""
    s = 0
    for i in range(20000):
        s += i * 2654435761 % 1000003
    sum(Fraction(1, k) for k in range(1, 80))
    np.exp(1j * np.arange(20000) * 0.001).sum()


def host_speed(seconds: float) -> float:
    """Mean time of calibration units run for at least CAL_SHARE * `seconds`
    (one unit at least), over CAL_UNIT_REF_S: above 1 on a slow host.

    One untimed unit runs first, so that the timed ones do not pay for the
    caches the preceding call left cold.
    """
    calibration_unit()
    units, spent = 0, 0.0
    while not units or spent < CAL_SHARE * seconds:
        t0 = perf_counter()
        calibration_unit()
        spent += perf_counter() - t0
        units += 1
    return spent / units / CAL_UNIT_REF_S


def scaled_probe() -> tuple[float, float]:
    """(seconds of one set-up probe, host_speed() right after it)."""
    seconds = probe_setup()
    return seconds, host_speed(seconds)


def bind(job, mods):
    """A no-argument callable that runs `job` and returns (exit code, stdout)."""
    if job.argv is not None:
        return lambda: run_cli(mods["cli"], job.argv)
    owner = mods[job.module]
    x = mods["torus"].TorusPoint(*job.point)
    # look the function up per call, so an installed tracer sees it
    return lambda: (0, json.dumps(getattr(owner, job.func)(x, *job.args)))


def nearest_rank(values, q: float) -> float:
    """The q-quantile of `values` by the nearest-rank rule (a sample value)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class JobResult(NamedTuple):
    job: int  # index in the job list
    code: int | None  # exit code; None if the job raised
    digest: str  # sha256 of stdout
    seconds: float
    host: float  # host speed around the call (run_pass); 1.0 where not calibrated
    out: str | None  # stdout, kept for the first pass only
    size: int  # stdout bytes


def run_pass(calls, tracer: Tracer | None = None, keep: bool = False,
             calibrate: bool = False) -> tuple[float, list[JobResult]]:
    """Call every job once; (pass seconds, one JobResult per job).

    With `calibrate`, a host_speed() block runs before the first call and
    after each call shorter than LONG_CALL_S, and such a call's host speed
    is the mean of the blocks just before and just after it.

    `calls` holds one callable per job. Only a kept pass holds on to its
    stdout, so the memory the benchmark itself holds does not grow with the
    number of passes.
    """
    results = []
    start = perf_counter()
    before = host_speed(0.0) if calibrate else None
    for job, call in enumerate(calls):
        if tracer is not None:
            tracer.job = job
        t0 = perf_counter()
        try:
            code, out = call()
        except Exception as exc:  # a job that raises is a failed job; keep running the rest
            code, out = None, f"raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        after = host_speed(seconds) if calibrate and seconds < LONG_CALL_S else None
        host = 1.0 if after is None else statistics.fmean(h for h in (before, after) if h is not None)
        before = after
        digest = hashlib.sha256(out.encode()).hexdigest()
        results.append(JobResult(job, code, digest, seconds, host, out if keep else None, len(out.encode())))
    return perf_counter() - start, results


def check_passes(jobs, passes, oracle: Oracle) -> tuple[list[list[bool]], list[str]]:
    """Per pass and job: output correct. Each job's first call is checked
    against the oracle; every later call must repeat it byte for byte."""
    first = passes[0][1]
    ok_job, errors = {}, []
    for i, job in enumerate(jobs):
        try:
            oracle.check(job, first[i].code, first[i].out)
            ok_job[i] = True
        except (CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
            ok_job[i] = False
            errors.append(f"{job.name}: {exc}")
    ok = []
    for p, (_, results) in enumerate(passes):
        row = []
        for r in results:
            same = (r.code, r.digest) == (first[r.job].code, first[r.job].digest)
            if not same:
                errors.append(f"{jobs[r.job].name}: pass {p} output differs from its first call")
            row.append(ok_job[r.job] and same)
        ok.append(row)
    return ok, errors


def end_to_end(args, calls) -> tuple[dict, list, dict]:
    """Passes until --seconds, with set-up probes spread over the run.

    Returns the metrics (times at the reference host speed), the passes,
    and the unscaled times for the record.
    """
    passes, setups = [], []
    start = perf_counter()
    while True:
        setups.append(scaled_probe())
        passes.append(run_pass(calls, keep=not passes, calibrate=True))
        if len(passes) == 1:
            # Peak after one pass: later passes reuse freed heap in an order that
            # depends on how many ran, which would tie the peak to machine speed.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if perf_counter() - start + passes[-1][0] > args.seconds:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(scaled_probe())

    def latencies(scaled: bool) -> list[float]:
        return [statistics.median(r.seconds / r.host if scaled else r.seconds for r in job_calls)
                for job_calls in zip(*(results for _, results in passes))]

    latency, raw = latencies(True), latencies(False)
    metrics = {
        "setup_s": (statistics.median(s / host for s, host in setups), "s"),
        "wall_s": (sum(latency), "s"),
        "job_p50_s": (nearest_rank(latency, 0.5), "s"),
        "job_p90_s": (nearest_rank(latency, 0.9), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    unscaled = {
        "setup_s": statistics.median(s for s, _ in setups),
        "wall_s": sum(raw),
        "job_p50_s": nearest_rank(raw, 0.5),
        "job_p90_s": nearest_rank(raw, 0.9),
        "host_speed": statistics.median(r.host for _, results in passes for r in results),
    }
    return metrics, passes, unscaled


def traced(args, jobs, calls, mods) -> tuple[dict, list, list, list, list]:
    """Alternate untraced and traced passes; per-layer metrics from the traced ones.

    Returns the metrics, the passes in run order, per pass the set of jobs
    that failed a spot check or a count repeat, the error lines, and per
    traced pass its count totals (with ``irregular.membership_X.calls``).
    """
    tracer = Tracer(mods, args.seed)
    plain, layered, per_pass, spans, errors = [], [], [], [], []
    start = perf_counter()
    while True:
        plain.append(run_pass(calls, keep=not plain))
        tracer.reset()
        tracer.install()
        try:
            layered.append(run_pass(calls, tracer))
        finally:
            tracer.uninstall()
        bad_calls = tracer.spot_check()
        errors += [f"{jobs[i].name}: orbit_fracs cell off by more than 2^-52" for i in sorted(bad_calls)]
        per_pass.append((tracer.span_totals(), {i: dict(c) for i, c in tracer.counts.items()}, bad_calls))
        spans += [(len(layered) - 1,) + s for s in tracer.spans]
        if perf_counter() - start + plain[-1][0] + layered[-1][0] > args.seconds:
            break
    write_spans(args, [job.name for job in jobs], spans)

    metrics = {}
    for name in SPANS:
        rows = [totals[name] for totals, _, _ in per_pass]
        metrics[f"{name}.calls"] = (rows[0][0], "count")
        metrics[f"{name}.total_s"] = (statistics.median(r[1] for r in rows), "s")
        metrics[f"{name}.self_s"] = (statistics.median(r[2] for r in rows), "s")
    job_counts = [counts for _, counts, _ in per_pass]
    for p, counts in enumerate(job_counts[1:], start=1):
        for i, job in enumerate(jobs):
            if counts.get(i, {}) != job_counts[0].get(i, {}):
                errors.append(f"{job.name}: traced pass {p} counts differ from pass 0")
                per_pass[p][2].add(i)
    pass_totals = []
    for (span_rows, _, _), counts in zip(per_pass, job_counts):
        totals = {name: sum(c.get(name, 0) for c in counts.values()) for name, _ in COUNTS}
        totals["irregular.membership_X.calls"] = span_rows["irregular.membership_X"][0]
        pass_totals.append(totals)
    for name, unit in COUNTS:
        metrics[name] = (pass_totals[0][name], unit)
    tests = metrics["irregular.membership_X.calls"][0]
    metrics["irregular.membership_X.hit_ratio"] = (
        pass_totals[0]["irregular.membership_X.hits"] / tests if tests else 0.0, "ratio")
    metrics["trace.overhead_s"] = (
        statistics.median(w for w, _ in layered) - statistics.median(w for w, _ in plain), "s")
    passes = [pp for pair in zip(plain, layered) for pp in pair]
    bad = [bad_pass for _, _, bad_calls in per_pass for bad_pass in (set(), bad_calls)]
    return metrics, passes, bad, errors, pass_totals


def write_spans(args, call_names: list[str], spans) -> None:
    """One JSON line per span; the spans of one call share its "job" identifier."""
    SPAN_DIR.mkdir(parents=True, exist_ok=True)
    path = SPAN_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    t0 = min((s[5] for s in spans), default=0.0)
    with open(path, "w") as fh:
        for p, call, span_id, parent, name, start, end in spans:
            fh.write(json.dumps({"pass": p, "job": f"{p}:{call}:{call_names[call]}", "id": span_id,
                                 "parent": parent, "name": name,
                                 "start": start - t0, "end": end - t0}) + "\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description="abtorus benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full",
                   help="'tiny' runs the same job lists at smoke-test size")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    if argv == ["--setup-probe"]:
        setup_probe()
        return 0
    args = parse_args(argv)
    mods = load_library()
    oracle = Oracle()
    jobs = build_jobs(args.workload, args.seed, args.size, oracle.entropies)
    calls = [bind(job, mods) for job in jobs]
    run_cli(mods["cli"], WARMUP_ARGV)

    if args.trace:
        metrics, passes, bad, errors, pass_totals = traced(args, jobs, calls, mods)
    else:
        metrics, passes, unscaled = end_to_end(args, calls)
        bad, errors = [set() for _ in passes], []
        sys.stderr.write("unscaled: " + json.dumps(unscaled) + "\n")
    ok, check_errors = check_passes(jobs, passes, oracle)
    ok = [[good and i not in bad[p] for i, good in enumerate(row)] for p, row in enumerate(ok)]
    errors = check_errors + errors
    if args.trace:
        if args.workload == "irregular-d2" and oracle.irregular_tries is not None:
            # every traced pass must do exactly the work the oracle's replay implies
            want = oracle.irregular_counts(jobs[0].expect["depth"])
            for p, totals in enumerate(pass_totals):
                for name, value in want.items():
                    if totals[name] != value:
                        errors.append(f"traced pass {p}: {name} = {totals[name]}, expected {value}")
                        ok[2 * p + 1] = [False] * len(calls)
        first_traced = zip(ok[1], passes[1][1])
        cli_jobs = [(good, r.size) for good, r in first_traced if jobs[r.job].argv is not None]
        metrics["cli.run.failed"] = (sum(not good for good, _ in cli_jobs), "count")
        metrics["cli.stdout_bytes"] = (sum(size for _, size in cli_jobs), "B")
    failed = sum(not good for row in ok for good in row)
    attempted = sum(len(results) for _, results in passes)
    for line in errors:
        sys.stderr.write(f"check failed: {line}\n")
    sys.stderr.write(f"{args.workload} seed {args.seed}: {len(passes)} passes x {len(calls)} calls, "
                     f"{failed} failed\n")
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
