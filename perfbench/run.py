"""hhfrac benchmark: one command, three workloads, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload refine-reference --seed 0 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics: set-up time from fresh
processes, then untimed warm-up and timed passes in this process.
``--trace 1`` is a separate run that reports per-layer metrics: half the
time untraced, then the same passes with span recorders wrapped around
every layer (see ``spans.py``), which are removed again before exit.

Every operation's output is checked; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See NOTES.md for the workloads and metric definitions.
"""

import os

# one thread for numpy/BLAS, set before numpy is imported here or in children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: fewest fresh-process cold starts per run; set-up time is their median
COLD_MIN = 5
COLD_TIMEOUT_S = 120


def _median(values):
    return statistics.median(values) if values else 0.0


def machine_line():
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
    })


def time_cold_start(name, workdir, tally):
    """Wall time of a fresh process that imports hhfrac and runs one cold operation."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "cold.py"), name, workdir],
        env=dict(os.environ, PYTHONPATH=SRC), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=COLD_TIMEOUT_S, check=False,
    )
    elapsed = perf_counter() - t0
    tally.op(f"cold start exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
             if proc.returncode != 0 else None)
    return elapsed


def measure(workload, tally, seconds, before=None, after=None):
    """Passes while the next one, at the median pass length, ends within ``seconds``.

    At least one pass runs.  ``before`` and ``after`` run around each pass,
    outside its timing but inside the time budget.  Returns a list of
    (pass time, per-operation latencies).
    """
    passes, lengths = [], []
    start = perf_counter()
    while not passes or perf_counter() - start + _median(lengths) <= seconds:
        t0 = perf_counter()
        if before is not None:
            before()
        passes.append(workload.run_pass(tally))
        if after is not None:
            after()
        lengths.append(perf_counter() - t0)
    return passes


def _m(value, unit):
    return {"value": value, "unit": unit}


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def _fastest_ops(passes):
    """Each operation's fastest repetition; every pass runs the same operations in order."""
    return [min(repeats) for repeats in zip(*(ops for _, ops in passes))]


def _fmt(values):
    return " ".join(f"{t:.4f}" for t in values)


def end_to_end(workload, tally, seconds, out):
    """End-to-end metrics.

    ``run_s`` sums each operation's fastest repetition: on a shared machine
    contention only ever adds time, in phases that outlast a pass, so that
    is the steadiest estimate of the program's own cost.  The latency
    percentiles are over every operation of every pass, as a caller sees
    them.
    One cold start runs before each pass, so set-up samples the same
    phases as the passes.
    """
    cold = []

    def cold_start():
        cold.append(time_cold_start(workload.name, workload.workdir, tally))

    workload.warm_up(tally)
    passes = measure(workload, tally, seconds, before=cold_start)
    while len(cold) < COLD_MIN:
        cold_start()
    panels, fide, bc = workload.measure_accuracy(tally)
    times = [t for t, _ in passes]
    per_op = _fastest_ops(passes)
    latencies = [t for _, ops in passes for t in ops]
    p90 = _p90(latencies)
    out.append(f"# setup runs (s): {_fmt(cold)}")
    out.append(f"# passes: {len(passes)}; pass times (s): {_fmt(times)}; "
               f"median {_median(times):.4f}; fastest repetitions summed {sum(per_op):.4f}")
    out.append(f"# operation latencies: {len(latencies)}, of which {sum(t > p90 for t in latencies)} "
               f"above p90")
    out.append(f"# bound_violations = {tally.violations}/{tally.verdicts}; "
               f"failed = {tally.failed}/{tally.attempted}")
    for params, ratio in getattr(workload, "violators", []):
        # (1 - L_f) is the factor the Ulam-Hyers constant leaves off; see NOTES.md
        l_f = abs(params.get("c", 1.0 / 3.0))
        out.append(f"# UH bound violated: {params['kind']} L_f={l_f:.4f} "
                   f"observed/bound={ratio:.4f} times (1 - L_f)={ratio * (1 - l_f):.4f}")
    within = 1.0 - tally.violations / tally.verdicts if tally.verdicts else 1.0
    return {
        "setup_s": _m(_median(cold), "s"),
        "run_s": _m(sum(per_op), "s"),
        "op_p50_s": _m(_median(latencies), "s"),
        "op_p90_s": _m(p90, "s"),
        "panels_to_accuracy": _m(panels, "count"),
        "fide_residual_8192": _m(fide, "1"),
        "bc_defect_8192": _m(bc, "1"),
        "within_bound_fraction": _m(within, "fraction"),
        "ok_fraction": _m(1.0 - tally.failed / tally.attempted, "fraction"),
        "peak_rss_mb": _m(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(workload, tally, seconds, out):
    import spans
    from hhfrac import hadamard

    workload.warm_up(tally)
    plain = measure(workload, tally, seconds / 2.0)
    tracer = spans.Tracer()
    snaps = []
    info = hadamard._panel_weights.cache_info
    state = {"cache": info()}

    def after_pass():
        now = info()
        before = state["cache"]
        snaps.append(tracer.snapshot(now.hits - before.hits, now.misses - before.misses))
        state["table"] = tracer.table()
        tracer.reset()
        state["cache"] = info()

    tracer.install()
    try:
        traced = measure(workload, tally, seconds / 2.0, after=after_pass)
    finally:
        tracer.remove()
    out.append("# spans of the last traced pass:")
    out.extend("#   " + line for line in state["table"])
    out.append(f"# untraced passes (s): {_fmt(t for t, _ in plain)}")
    out.append(f"# traced passes (s): {_fmt(t for t, _ in traced)}")
    metrics = {}
    for name, (_, unit) in snaps[0].items():
        value = _median([s[name][0] for s in snaps])
        metrics[name] = _m(round(value) if unit == "count" else value, unit)
    metrics["trace.overhead_s"] = _m(sum(_fastest_ops(traced)) - sum(_fastest_ops(plain)), "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("refine-reference", "sweep-small", "stability-8k"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hhfrac", "__init__.py")):
        print(f"error: no hhfrac package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    workroot = os.path.join(HERE, "_work")
    os.makedirs(workroot, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=workroot)
    out = [f"# machine: {machine_line()}",
           f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
           f"trace={args.trace}"]
    try:
        t0 = perf_counter()
        tally = workloads.Tally()
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        out.append(f"# input generation (s): {perf_counter() - t0:.4f}")
        if args.trace:
            metrics = per_layer(workload, tally, args.seconds, out)
        else:
            metrics = end_to_end(workload, tally, args.seconds, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(workroot)
        except OSError:
            pass
    out.extend(f"# check failed: {msg}" for msg in tally.messages)
    for name, m in metrics.items():
        out.append(f"# {name} = {m['value']!r} {m['unit']}")
    print("\n".join(out))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
