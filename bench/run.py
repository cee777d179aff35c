"""Benchmark of horomink: solves and CLI queries, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload solve-n1-maxvol --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of traced rounds. --smoke runs one
short round of a cut-down workload. See bench/README.md.
"""

from __future__ import annotations

import os
import time

PROCESS_START = time.perf_counter()

# One BLAS thread, fixed before NumPy loads: the timings then do not depend on
# how many cores the machine has free. threadpoolctl would do the same after
# the import, but it is not installed everywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3

END_TO_END = {"run_s": "s", "op_geomean_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

CLI_KINDS = ("volume", "facets", "support", "hausdorff", "separate", "roundtrip")

# Mean seconds of one calibration sample at the faster of the two speeds this
# host (2 vCPUs, Intel Xeon at 2 GHz) runs at. Every reported time is scaled
# to that speed; see SpeedMeter.
CALIBRATION_REF_S = 0.0002
SAMPLE_PERIOD_S = 0.05

_CAL_MATRIX = np.linspace(0.0, 1.0, 32 * 32).reshape(32, 32)
_CAL_CENTERS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
_CAL_SCALES = np.array([0.5, 0.7, 0.6, 0.8])
_CAL_ROW = np.array([[0.6, 0.8]])


def calibration_seconds() -> float:
    """Wall time of a fixed mix of the work horomink's hot paths do:
    interpreted float arithmetic, NumPy calls on arrays of a few entries
    (here one direction against four horoballs, the shape of the planar
    inner loops) and small matrix products. The least of two tries, which
    drops a timer interrupt. It calls no horomink code, so a change to the
    package cannot move it.

    The small-array part matters: the host's slower speed slows NumPy's
    per-call overhead more than plain arithmetic, and a kernel without it
    left fixed-volume solves 9% apart between the two speeds instead of 4%.
    """
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        acc = 0.0
        for i in range(100):
            acc += math.cosh(i * 1e-4) * math.log1p(i)
        for _ in range(12):
            cos = np.clip(_CAL_ROW @ _CAL_CENTERS.T, -1.0, 1.0)
            e = np.exp(_CAL_SCALES)[None, :]
            reach = np.log((e + np.sqrt(e * e - 1.0 + cos * cos)) / (1.0 - cos))
            reach[cos >= 1.0 - 1e-9] = np.inf
            acc += int(np.argmin(reach[0]))
        for _ in range(3):
            acc += float(np.min(_CAL_MATRIX @ _CAL_MATRIX[:, :4]))
        best = min(best, time.perf_counter() - start)
    return best


class SpeedMeter:
    """Samples the calibration kernel while operations run.

    The host switches between two speeds about 1.5x apart every few seconds,
    whatever the benchmark does. A SIGALRM handler times the kernel every
    SAMPLE_PERIOD_S, and mark() adds samples at an operation's ends. An
    operation's wall time times CALIBRATION_REF_S over the mean sample taken
    from its start to its end no longer depends on the speeds it met.
    """

    def __init__(self):
        self.samples: list[float] = []

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        self.samples.append(calibration_seconds())

    def mark(self) -> int:
        for _ in range(3):
            self.samples.append(calibration_seconds())
        return len(self.samples)

    def scaled(self, seconds: float, first: int) -> float:
        return seconds * CALIBRATION_REF_S / statistics.fmean(self.samples[first:])


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one short round of a cut-down workload")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def prepare(args, folder):
    """Import horomink from the checkout and build the workload's operations."""
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "horomink", "__init__.py")):
        raise SystemExit(f"no horomink sources under {source}; run from a checkout of the repository")
    sys.path.insert(0, source)
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    os.makedirs(folder, exist_ok=True)
    return workloads.build(args.workload, args.seed, args.smoke, folder)


def measure_setup(args) -> float:
    """Median set-up time of fresh processes that import horomink and build
    the workload's inputs, up to the first timed operation.

    Each process times itself from the start of this script, with its own
    speed samples: it may run on the other vCPU, at the other speed.
    """
    repeats = 1 if args.smoke else SETUP_REPEATS
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(repeats):
        done = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True, timeout=120)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run_round(ops):
    """Run every operation once.

    Returns per-op wall seconds, per-op scaled seconds, ok flags and outputs.
    """
    wall, times, oks, outputs = [], [], [], []
    with SpeedMeter() as meter:
        for op in ops:
            first = len(meter.samples)
            meter.mark()
            start = time.perf_counter()
            try:
                ok, output = op.run()
            except Exception:  # a program fault: count it, keep measuring
                traceback.print_exc(file=sys.stderr)
                ok, output = False, None
            seconds = time.perf_counter() - start
            meter.mark()
            wall.append(seconds)
            times.append(meter.scaled(seconds, first))
            oks.append(ok)
            outputs.append(output)
    return wall, times, oks, outputs


def check_round(ops, oks, outputs, workloads) -> bool:
    correct = True
    for op, ok, output in zip(ops, oks, outputs):
        if not ok:
            reason = output[2].strip() if isinstance(output, tuple) and len(output) == 3 else ""
            print(f"failed: {op.label} {reason}", file=sys.stderr)
            continue
        try:
            op.check(output)
        except workloads.CheckFailed as exc:
            print(f"wrong output: {exc}", file=sys.stderr)
            correct = False
    return correct


def main(argv=None) -> int:
    args = parse_args(argv)
    folder = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.setup_only:
            with SpeedMeter() as meter:
                meter.mark()
                prepare(args, folder)
                seconds = time.perf_counter() - PROCESS_START
                meter.mark()
            print(meter.scaled(seconds, 0))
            return 0
        setup_s = measure_setup(args)
        ops = prepare(args, folder)
        return measure(args, ops, setup_s)
    finally:
        shutil.rmtree(folder, ignore_errors=True)


def measure(args, ops, setup_s) -> int:
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    # the traced run alternates untraced and traced rounds
    min_rounds = 2 if tracer is not None or not args.smoke else 1
    rounds = []  # (traced, scaled per-op seconds)
    layer_rounds = []  # (counts, per-layer figures) of each traced round
    first_digests = None
    correct = True
    attempted = failed = 0
    peak_rss_mb = None
    timed = 0.0
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.reset_round()
            tracing.install(tracer)
        try:
            wall, times, oks, outputs = run_round(ops)
        finally:
            if traced:
                tracer.unpatch()
        if traced:
            # the round's spans are scaled by the round's mean speed
            factor = sum(times) / sum(wall)
            figures = {
                k: v * factor if k.endswith("_s") else v
                for k, v in tracing.layer_metrics(tracer).items()
            }
            layer_rounds.append((dict(tracer.counts), figures))
        rounds.append((traced, times))
        print(f"round {len(rounds)}{' traced' if traced else ''}: {sum(wall):.3f} s wall, "
              f"{sum(times):.3f} s scaled", file=sys.stderr)
        attempted += len(ops)
        failed += oks.count(False)
        digests = [op.digest(out) if ok else None for op, ok, out in zip(ops, oks, outputs)]
        if first_digests is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            first_digests = digests
            start = time.perf_counter()
            correct = check_round(ops, oks, outputs, workloads)
            print(f"checks took {time.perf_counter() - start:.1f} s", file=sys.stderr)
        elif digests != first_digests:
            print("a repeated round gave other outputs than the first", file=sys.stderr)
            correct = False
        # --seconds bounds the timed work; a round is started only if it fits
        timed += sum(wall)
        if len(rounds) >= min_rounds and (args.smoke or timed + sum(wall) > args.seconds):
            break

    # Means over rounds, not medians: a median of two or three rounds drops
    # the slowest one or not depending on how many rounds fitted, which
    # split one workload's runs into two groups 6% apart.
    plain = [times for traced, times in rounds if not traced]
    per_op = [statistics.fmean(times[i] for times in plain) for i in range(len(ops))]
    if tracer is None:
        metrics = {
            "run_s": statistics.fmean(sum(times) for times in plain),
            "op_geomean_s": statistics.geometric_mean(per_op),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        counts = [c for c, _ in layer_rounds]
        if any(c != counts[0] for c in counts):
            print("traced rounds counted different work", file=sys.stderr)
            correct = False
        per_round = [figures for _, figures in layer_rounds]
        metrics = {
            k: statistics.fmean(f[k] for f in per_round) if k.endswith("_s") else v
            for k, v in per_round[0].items()
        }
        for kind in CLI_KINDS:
            metrics[f"cli.{kind}_s"] = sum(t for op, t in zip(ops, per_op) if op.kind == kind)
        traced_s = statistics.fmean(sum(times) for traced, times in rounds if traced)
        metrics["trace.overhead_s"] = traced_s - statistics.fmean(sum(times) for times in plain)
        units = {k: ("s" if k.endswith("_s") else "count") for k in metrics}
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.npz"), counts[0])
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
