"""Benchmark of `bisphere`: one workload per run, timed from outside.

    python3 bench/run.py --workload spectra_ladder --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 12 --trace 0

A run builds the workload's inputs from --seed, repeats whole rounds of its
operations until --seconds have passed, checks the outputs of every round
against the independent references in `refs.py`, and prints one JSON object
as its last line. With --trace 0 it reports the end-to-end metrics; with
--trace 1 it alternates untraced rounds with rounds under `spans.Tracer`
and reports the per-layer metrics and the tracing overhead. --smoke shrinks
every input for a quick self-test. See README.md for the workloads.
"""

from __future__ import annotations

import os

# one process, no threads: pin the numeric libraries before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import ROOT, SRC, WORKLOADS, cli_env  # noqa: E402

RESULTS = Path(__file__).resolve().parent / "results"

END_TO_END = (
    ("wall_s", "s"),
    ("op_median_ms", "ms"),
    ("deep_gap_op_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# fresh-interpreter set-ups per run: at least this many, more while cheap
_SETUP_MIN, _SETUP_MAX, _SETUP_BUDGET_S = 3, 15, 2.0


def upper_quartile(values) -> float:
    """Nearest-rank 75th percentile."""
    v = sorted(values)
    return v[max(0, -(-3 * len(v) // 4) - 1)]


def usual_latencies(rounds) -> list[tuple[float, bool]]:
    """(seconds, deep) per operation of a round: its upper quartile over the rounds.

    Every round runs the same operations in the same order. The shared host
    this was tuned on alternates between its usual speed, bursts up to ~1.6x
    faster and, less often, slow spikes, each lasting seconds to minutes. A
    latency pooled over a run follows the share of burst time and moved by
    20-40 % between runs; the upper quartile of each operation stays on the
    usual speed while a quarter of the rounds run at it, and ignores spikes
    in up to a quarter of them.
    """
    per_op = zip(*(ops for _, ops, _ in rounds))
    out = []
    for samples in per_op:
        ok = [op.seconds for op in samples if op.ok]
        if ok:
            out.append((upper_quartile(ok), samples[0].deep))
    return out


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _require_source() -> None:
    if not (SRC / "bisphere" / "__init__.py").is_file():
        sys.exit(f"error: no bisphere source under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))


def _measure_setup(args) -> float:
    """Median time from a fresh interpreter to the end of the workload's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")

    def once() -> float:
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "READY":
                sys.exit("error: set-up run failed")
        return dt

    once()  # untimed: fills the bytecode and file caches
    samples = []
    started = time.perf_counter()
    while len(samples) < _SETUP_MIN or (
        len(samples) < _SETUP_MAX and time.perf_counter() - started < _SETUP_BUDGET_S
    ):
        samples.append(once())
    return statistics.median(samples)


def _import_times() -> dict[str, float]:
    """Cumulative import times (ms) of bisphere.cli and scipy.special, cold interpreter."""
    want = {"bisphere.cli": "import.bisphere_cli.ms", "scipy.special": "import.scipy_special.ms"}
    samples = {m: [] for m in want.values()}
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bisphere.cli"],
                              cwd=ROOT, env=cli_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        for line in proc.stderr.splitlines():
            parts = [s.strip() for s in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2] in want:
                samples[want[parts[2]]].append(int(parts[1]) / 1e3)
    return {m: statistics.median(v) for m, v in samples.items()}


def _round(wl, bs, inputs, traced: bool):
    """One round; returns (seconds, ops, span totals or None)."""
    from spans import Tracer

    t0 = time.perf_counter()
    if not traced:
        ops = wl.run_round(bs, inputs)
        return time.perf_counter() - t0, ops, None
    if wl.name == "cli_session":
        RESULTS.mkdir(exist_ok=True)
        ops = wl.run_round(bs, inputs, traced_dir=RESULTS)
        dt = time.perf_counter() - t0
        totals: dict[str, float] = {}
        for op in ops:
            totals[f"cli.{op.label}.ms"] = op.seconds * 1e3
            for k, v in (op.output or {}).get("spans", {}).items():
                totals[k] = totals.get(k, 0.0) + v
        return dt, ops, totals
    with Tracer() as tracer:
        ops = wl.run_round(bs, inputs)
    return time.perf_counter() - t0, ops, dict(tracer.totals)


def _same_as_first(wl, first, ops) -> bool:
    """Compare a round's results with the first round's, then drop its outputs.

    Only the first round's outputs are kept, so memory does not grow with
    the number of rounds; a traced CLI round's spans are already summed.
    """
    def result(op):
        return op.ok, op.output["stdout"] if wl.name == "cli_session" else op.output

    same = all(result(a) == result(b) for a, b in zip(first, ops))
    for op in ops:
        op.output = None
    return same


def _check(wl, inputs, first) -> list[str]:
    import checks

    if wl.name == "spectra_ladder":
        rep = checks.check_spectra_ladder(inputs, first)
    elif wl.name == "gap_blowup":
        rep = checks.check_gap_blowup(inputs, first, wl.tol)
    elif wl.name == "field_points":
        rep = checks.check_field_points(inputs, first, wl.pair)
    else:
        rep = checks.check_cli(inputs, first)
    return rep.failures if rep.count else ["no check ran"]


def run_workload(args) -> dict:
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        wl.setup(args.seed, args.smoke)
        wl.prepare()
        print("READY", flush=True)
        return {}

    setup_s = _measure_setup(args)
    inputs = wl.setup(args.seed, args.smoke)
    bs = wl.prepare()

    # whole rounds; another starts only if a round of the mean length still
    # ends within --seconds (a traced run needs one round of each kind)
    rounds = []  # (seconds, ops, span totals or None)
    differing = 0  # rounds whose outputs differ from the first round's
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(_round(wl, bs, inputs, traced))
        if len(rounds) > 1:
            differing += not _same_as_first(wl, rounds[0][1], rounds[-1][1])
        mean = statistics.fmean(dt for dt, _, _ in rounds)
        if time.perf_counter() - start + mean > args.seconds:
            if not args.trace or len(rounds) >= 2:
                break
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    t0 = time.perf_counter()
    failures = _check(wl, inputs, rounds[0][1])
    if differing:
        failures.append(f"{differing} rounds gave other outputs than the first")
    check_s = time.perf_counter() - t0
    for msg in failures[:20]:
        print(f"check failed: {msg}", file=sys.stderr)

    all_ops = [op for _, ops, _ in rounds for op in ops]
    result = {
        "correct": not failures,
        "attempted": len(all_ops),
        "failed": sum(not op.ok for op in all_ops),
    }
    if args.trace:
        from spans import PER_LAYER, layer_metrics

        per_round = [layer_metrics(tot) for _, _, tot in rounds if tot is not None]
        values = {name: statistics.median(r[name] for r in per_round) for name, _ in PER_LAYER}
        values.update(_import_times())
        values["oracle.check_s"] = check_s
        plain = statistics.median(dt for dt, _, tot in rounds if tot is None)
        traced_s = statistics.median(dt for dt, _, tot in rounds if tot is not None)
        values["trace.overhead_pct"] = 100.0 * (traced_s - plain) / plain
        units = dict(PER_LAYER)
    else:
        usual = usual_latencies(rounds)
        values = {
            "wall_s": sum(t for t, _ in usual),
            "op_median_ms": 1e3 * statistics.median(t for t, _ in usual),
            "deep_gap_op_ms": 1e3 * statistics.median(t for t, deep in usual if deep),
            "setup_s": setup_s,
            "peak_rss_mb": (rss_children if wl.name == "cli_session" else rss_self) / 1024.0,
        }
        units = dict(END_TO_END)
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return result


def _print(name: str, result: dict) -> None:
    print(f"[{name}] attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for metric, m in result["metrics"].items():
        print(f"[{name}]   {metric:<48} {m['value']:>14.6g} {m['unit']}")


def _run_all(args) -> dict:
    """Every workload in its own process, one after the other."""
    out = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        out[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        _print(name, out[name])
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    _require_source()
    if args.workload == "all":
        result = _run_all(args)
    else:
        result = run_workload(args)
        if args.setup_only:
            return 0
        _print(args.workload, result)
        RESULTS.mkdir(exist_ok=True)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (RESULTS / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
