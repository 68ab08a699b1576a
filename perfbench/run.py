"""conemin benchmark: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload descent-r64 --seed 1 --seconds 20 --trace 0

The benchmark imports conemin from ``src/`` of the checkout it sits in and
runs in this one process, with CONEMIN_THREADS unset so that conemin picks
its default thread count.  It repeats untimed set-up, timed passes and
untimed correctness gates for about ``--seconds`` seconds; see
perfbench/README.md for the workloads and the metrics.  Times are scaled
to a reference machine speed by a calibration kernel run, untimed, between
the passes (see CAL_REF_S); the unscaled times are printed as well.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics from the traced
ones, checks that traced outputs equal untraced outputs bit for bit, and
writes the spans to perfbench/.work/<workload>/spans.jsonl.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER, Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
SETUPS = 5  # imports and input builds per run; setup_s takes medians
MIN_PASSES = 3
# Machine-speed calibration, untimed, before the first pass and after each:
# a fixed single-thread kernel of interpreted Python and numpy sweeps over
# a 4 MB array.  The run's times are scaled by CAL_REF_S over the kernel's
# mean time over the whole run (the top and bottom CAL_TRIM of the samples
# dropped), so that a phase of tens of seconds to minutes in which a shared
# host runs this process slower moves the kernel and the passes alike and
# cancels out.  The kernel's times come in two clusters when the host is
# busy, so a trimmed mean is steadier than the median.  (Scaling each pass
# by the calibrations next to it was tried and is noisier: pass-to-pass
# jitter does not follow the kernel.)  CAL_REF_S is the kernel's median on
# the 2-vCPU x86-64 VM where the benchmark was defined, so there scaled and
# unscaled seconds agree.
CAL_REF_S = 0.0100
CAL_REPS = 7
CAL_LOOP = 80_000
CAL_SWEEPS = 12
CAL_ARRAY = 1 << 19
CAL_TRIM = 0.1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


IMPORT_CHILD = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t0 = time.perf_counter(); import conemin.cli; "
                "print(time.perf_counter() - t0)")


def timed_setup(workload, seed, work):
    """(inputs, seconds before the first timed call).

    Importing conemin is timed cold, once in this process and in SETUPS - 1
    fresh interpreters run one after another; the inputs are built SETUPS
    times.  The result is the median import time plus the median build
    time."""
    work.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    import conemin.cli  # noqa: F401  (the package imports every module)
    imports = [time.perf_counter() - t0]
    for _ in range(SETUPS - 1):
        child = subprocess.run([sys.executable, "-c", IMPORT_CHILD, str(SRC)],
                               cwd=ROOT, capture_output=True, text=True,
                               check=True, timeout=120)
        imports.append(float(child.stdout.split()[-1]))
    builds = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        inputs = workload.setup(seed, work)
        builds.append(time.perf_counter() - t0)
    return inputs, statistics.median(imports) + statistics.median(builds)


def environment(conemin) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_count = getattr(conemin.descent, "_thread_count", None)
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "conemin_threads_env": os.environ.get("CONEMIN_THREADS"),
        "conemin_threads_effective": (thread_count() if thread_count
                                      else None),
        "machine": platform.machine(),
    }


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def calibrate(times: list) -> None:
    """Append the seconds of CAL_REPS runs of the calibration kernel."""
    import numpy as np

    a = np.linspace(0.0, 1.0, CAL_ARRAY)
    for _ in range(CAL_REPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOP):
            acc += i & 7
        for _ in range(CAL_SWEEPS):
            np.multiply(a, 0.999, out=a)
            np.add(a, 0.001, out=a)
        times.append(time.perf_counter() - t0)


def trimmed_mean(xs, cut=CAL_TRIM) -> float:
    xs = sorted(xs)
    k = int(len(xs) * cut)
    return statistics.fmean(xs[k:len(xs) - k])


def one_pass(workload, inputs, tracer=None, run_id=0):
    workload.reset(inputs)
    gc.collect()
    if tracer is not None:
        tracer.install(run_id)
    try:
        # conemin's cli prints its verdicts; keep them off the result stream
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            raw = workload.run(inputs)
            seconds = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return seconds, workload.check(inputs, raw)


def run_passes(workload, inputs, seconds, tracer=None):
    """(passes, calibration seconds).  Passes run until the next would
    end past `seconds`; with a tracer, they alternate untraced and traced
    and end on a traced one.  The calibration kernel runs before the first
    pass and after each."""
    passes = []
    calibrations = []
    start = time.perf_counter()
    calibrate(calibrations)
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        dt, outcome = one_pass(workload, inputs, tracer if traced else None,
                               len(passes))
        passes.append((dt, outcome, traced))
        calibrate(calibrations)
        elapsed = time.perf_counter() - start
        if (len(passes) >= MIN_PASSES and (tracer is None or traced)
                and elapsed * (len(passes) + 1) / len(passes) > seconds):
            return passes, calibrations


def count_failures(passes):
    """(attempted, failed, failure lines).  An operation also fails when
    its fingerprint differs from the first pass's."""
    attempted = failed = 0
    lines = []
    reference = passes[0][1].ops
    for i, (_, outcome, traced) in enumerate(passes):
        for name, op in outcome.ops.items():
            attempted += 1
            detail = op.detail
            ref = reference.get(name)
            if op.ok and ref is not None and ref.ok \
                    and op.fingerprint != ref.fingerprint:
                detail = ("traced output differs from untraced" if traced
                          else "output differs from pass 0 (same seed)")
            if detail or not op.ok:
                failed += 1
                lines.append(f"FAIL pass {i} {name}: {detail}")
    return attempted, failed, lines


def percentile_line(samples) -> str:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    xs = sorted(samples)
    n = len(xs)
    text = f"median {statistics.median(xs):.6g} s over n={n} passes"
    if n > 10:
        k = n - 10
        text += f", p{100 * k // n} {xs[k - 1]:.6g} s"
    else:
        text += ", no percentile has ten samples beyond it"
    return text


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "conemin" / "__init__.py").is_file():
        print(f"perfbench: no conemin sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("CONEMIN_THREADS", None)
    workload = WORKLOADS[args.workload]

    work = WORK / args.workload
    inputs, setup_s = timed_setup(workload, args.seed, work)
    conemin = inputs.conemin
    if not Path(conemin.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: conemin was imported from {conemin.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    env = environment(conemin)

    tracer = Tracer() if args.trace else None
    passes, calibrations = run_passes(workload, inputs, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, fail_lines = count_failures(passes)
    cal_s = trimmed_mean(calibrations)
    scale = CAL_REF_S / cal_s
    walls = [dt * scale for dt, _, traced in passes if not traced]
    unscaled = {"setup_s": setup_s, "wall_s": statistics.median(walls) / scale,
                "calibration_s": cal_s}
    setup_s *= scale
    final_area = statistics.median(o.final_area for _, o, _ in passes)
    layer = {}
    for _, outcome, traced in passes:
        if traced or tracer is None:
            for key, value in outcome.layer.items():
                layer.setdefault(key, []).append(value)
    layer = {k: statistics.fmean(v) for k, v in layer.items()}

    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print("env " + json.dumps(env, sort_keys=True))
    for line in fail_lines:
        print(line)
    notes = sorted({n for _, o, _ in passes for n in o.notes})
    for note in notes:
        print(f"note (reported, not a failure): {note}")

    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "final_area": (final_area, "R2"),
        }
        print(f"wall_s: {percentile_line(walls)}")
        print(f"unscaled: wall_s median {unscaled['wall_s']:.6g} s, "
              f"setup_s {unscaled['setup_s']:.6g} s; calibration kernel "
              f"{cal_s:.6g} s against {CAL_REF_S} s")
        print(f"cli.verdicts_failed per pass: "
              f"{layer.get('cli.verdicts_failed', 0):.6g}")
    else:
        traced_walls = [dt * scale for dt, _, traced in passes if traced]
        values = layer_metrics(tracer.spans, len(traced_walls))
        values.update(layer)
        values["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                          / statistics.median(walls) - 1.0)
        metrics = {name: (values.get(name, 0.0), unit)
                   for name, unit, _ in PER_LAYER}
        tracer.write(work / "spans.jsonl")
        print(f"traced passes: {len(traced_walls)}, untraced passes: "
              f"{len(walls)}; spans written to {work / 'spans.jsonl'}")

    print(f"fail_ratio = {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and all(math.isfinite(v)
                                       for v, _ in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (work / ("trace.json" if tracer else "result.json")).write_text(
        json.dumps({"env": env, "unscaled": unscaled, **result},
                   indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
