"""The three benchmark workloads: inputs, one pass, and output checks.

Each workload is a closed loop in one process: one operation at a time,
no worker threads.  ``__init__`` is set-up: it generates every input from
the seed and writes the configuration files, so the library only ever sees
generated inputs.  ``run_pass`` runs one pass, checks every output, and
returns the pass time (sum of operation times, checks excluded) together
with the per-operation latencies.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from time import perf_counter

import numpy as np

from hhfrac import certificates, cli, grids, problems, solver, stability

TOL = solver.DEFAULT_TOL
INNER_CAP = solver.DEFAULT_INNER_CAP

REFERENCE_CFG = (
    "# reference saturating implicit problem on [1, e]\n"
    "alpha = 1/3\nbeta = 2/3\nb = e\nc1 = 2\nc2 = 1\nphi = 1\n"
    "rhs = paper-example\n"
)
# sharp comparison constant of the critical-log-power profile on [1, e]
UHR_LAMBDA_PHI = 1.2568054242093647
SOLUTION_HEADER = "t,log_t,weighted_value,raw_value,F_u"
VERDICT_HEADER = "mode,epsilon,deviation,bound,margin,pass"

LADDER_START = 512
LADDER_CAP = 65536
LADDER_TARGET = 2e-6
ACCURACY_PANELS = 8192

SWEEP_PANELS = 512
SWEEP_BATCH = 128
SWEEP_EPS = 1e-3
SWEEP_REDRAW_A = 0.9
# (low, high) of each uniform draw; b = exp(log_b)
SWEEP_RANGES = {
    "alpha": (0.2, 0.8), "beta": (0.0, 1.0), "log_b": (0.5, 1.5),
    "c1": (0.5, 3.0), "c2": (0.5, 3.0), "phi": (0.5, 2.0),
    "g0": (-1.0, 1.0), "g1": (-1.0, 1.0), "a": (-0.3, 0.3), "c": (-0.5, 0.5),
}

STABILITY_PANELS = 8192
STABILITY_EPS = (1e-1, 1e-2, 1e-3, 1e-4)
# successive deviation ratios must be within 1% of 10, plus an allowance for
# the O(eps^2) term of a nonlinear right-hand side: 0.2 * the larger eps
# (measured on the reference problem: 0.113 * eps for UH, 0.146 * eps for UHR)
LINEARITY_RTOL = 0.01
LINEARITY_QUADRATIC = 0.2


class Tally:
    """Operations attempted and failed, and stability verdicts against bounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.verdicts = 0
        self.violations = 0
        self.messages = []

    def op(self, defect):
        """Count one operation; ``defect`` is None or what its check found."""
        self.attempted += 1
        if defect:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(defect)

    def verdict(self, passed):
        self.verdicts += 1
        self.violations += 0 if passed else 1


def run_cli(argv):
    """(exit code, captured stdout, elapsed seconds) of one ``hhfrac`` command."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 - an uncaught error is a failed operation
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), perf_counter() - t0


def _key_values(text):
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            values[key.strip()] = float(value)
    return values


def _check_solution_csv(path, n_panels):
    """None when the CSV has N+1 rows of finite values, else the defect."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[:1] != [SOLUTION_HEADER] or len(lines) != n_panels + 2:
        return f"solution CSV has {len(lines) - 1} rows, expected {n_panels + 1}"
    first = lines[1].split(",")
    if len(first) != 5 or first[3:] != ["", ""]:
        return "solution CSV node-0 row malformed"
    try:
        values = [float(v) for v in first[:3]]
        for line in lines[2:]:
            fields = line.split(",")
            if len(fields) != 5:
                return "solution CSV row with wrong field count"
            values.extend(float(v) for v in fields)
    except ValueError:
        return "solution CSV holds a non-number"
    if not all(math.isfinite(v) for v in values):
        return "solution CSV holds a non-finite value"
    return None


def solve_level(config_path, n_panels, csv_path, previous=None):
    """Run and check ``solve`` at one panel count.

    Returns (defect or None, record, elapsed); the record holds the printed
    report.  With ``previous`` the residual and boundary defect must fall.
    """
    code, out, dt = run_cli(
        ["solve", "--config", config_path, "--panels", str(n_panels), "--out", csv_path]
    )
    if code != 0:
        return f"solve --panels {n_panels} exited {code}", None, dt
    rec = _key_values(out)
    for key in ("final_update_norm", "fide_residual", "bc_defect"):
        if not math.isfinite(rec.get(key, math.nan)):
            return f"solve --panels {n_panels}: {key} missing", None, dt
    if rec["final_update_norm"] > TOL:
        return f"solve --panels {n_panels}: final_update_norm above tol", None, dt
    if previous is not None:
        for key in ("fide_residual", "bc_defect"):
            if not rec[key] < previous[key]:
                return f"solve --panels {n_panels}: {key} did not fall", None, dt
    defect = _check_solution_csv(csv_path, n_panels)
    if defect is not None:
        return f"solve --panels {n_panels}: {defect}", None, dt
    return None, rec, dt


class Workload:
    """Common shape: set-up in __init__, then repeated passes."""

    name = ""
    #: panel count at which the workload accepts its solutions
    panels = 0

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.reference_cfg = self._write("reference.cfg", REFERENCE_CFG)

    def _write(self, name, text):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    @staticmethod
    def cold(workdir):
        """The first operation, on the inputs set-up wrote to ``workdir``.

        Runs in a fresh process for ``setup_s``; returns a defect or None.
        """
        raise NotImplementedError

    def warm_up(self, tally):
        """The cold operation once, untimed, so imports and caches settle."""
        tally.op(self.cold(self.workdir))

    def run_pass(self, tally):
        """One pass: (pass time, per-operation latencies)."""
        raise NotImplementedError

    def measure_accuracy(self, tally):
        """(panels_to_accuracy, fide_residual_8192, bc_defect_8192).

        Workloads other than the ladder run one checked ``solve`` of the
        reference problem at 8192 panels, outside the timed passes.
        """
        defect, rec, _ = solve_level(
            self.reference_cfg, ACCURACY_PANELS, os.path.join(self.workdir, "accuracy.csv")
        )
        tally.op(defect)
        rec = rec or {"fide_residual": math.nan, "bc_defect": math.nan}
        return self.panels, rec["fide_residual"], rec["bc_defect"]


class RefineReference(Workload):
    """Refinement ladder on the reference problem to a stated accuracy."""

    name = "refine-reference"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.accuracy = None

    @staticmethod
    def cold(workdir):
        return solve_level(
            os.path.join(workdir, "reference.cfg"), LADDER_START,
            os.path.join(workdir, "cold.csv"),
        )[0]

    def run_pass(self, tally):
        csv_path = os.path.join(self.workdir, "solution.csv")
        times, records = [], {}
        previous, n = None, LADDER_START
        while True:
            defect, rec, dt = solve_level(self.reference_cfg, n, csv_path, previous)
            times.append(dt)
            if defect is None and rec["fide_residual"] > LADDER_TARGET and n >= LADDER_CAP:
                defect = f"ladder did not reach {LADDER_TARGET} by {LADDER_CAP} panels"
            tally.op(defect)
            if defect is not None:
                break
            records[n] = rec
            if rec["fide_residual"] <= LADDER_TARGET:
                break
            previous, n = rec, 2 * n
        if records:
            top = max(records)
            at = records.get(ACCURACY_PANELS, {"fide_residual": math.nan, "bc_defect": math.nan})
            self.accuracy = (top, at["fide_residual"], at["bc_defect"])
        # the operation is the whole ladder: a level's call (80 ms at 4096
        # panels) is too short to time steadily on a shared machine
        return sum(times), [sum(times)]

    def measure_accuracy(self, tally):
        return self.accuracy


def draw_problems(seed, count):
    """Seeded batch of contraction-certified problems, half of each catalog kind.

    A draw is redrawn while its uniqueness constant A is >= 0.9, since the
    stability experiment needs A < 1.  Returns plain parameter dicts.
    """
    rng = random.Random(seed)
    batch = []
    while len(batch) < count:
        kind = problems.PAPER_EXAMPLE if len(batch) % 2 == 0 else problems.AFFINE
        draw = {k: rng.uniform(lo, hi) for k, (lo, hi) in SWEEP_RANGES.items()}
        params = {
            "kind": kind, "alpha": draw["alpha"], "beta": draw["beta"],
            "b": math.exp(draw["log_b"]), "c1": draw["c1"], "c2": draw["c2"],
            "phi": draw["phi"],
        }
        if kind == problems.AFFINE:
            params.update(g0=draw["g0"], g1=draw["g1"], a=draw["a"], c=draw["c"])
        if certificates.uniqueness_constant(build_problem(params)) < SWEEP_REDRAW_A:
            batch.append(params)
    return batch


def build_problem(params):
    if params["kind"] == problems.AFFINE:
        rhs = problems.affine_rhs(params["g0"], params["g1"], params["a"], params["c"], params["b"])
    else:
        rhs = problems.paper_example_rhs()
    return problems.ProblemSpec(
        order=grids.Order(params["alpha"], params["beta"]), b=params["b"],
        c1=params["c1"], c2=params["c2"], phi=params["phi"], rhs=rhs,
    )


def sweep_op(problem):
    """One parameter-study step; returns (defect or None, verdict, elapsed)."""
    t0 = perf_counter()
    try:
        cert = certificates.build_certificate(problem)
        grid = grids.LogGrid(problem.b, SWEEP_PANELS)
        u, report = solver.picard_solve(problem, grid)
        residual = solver.residual_fide(u, problem)
        verdict = stability.run_uh_experiment(
            problem, stability.PerturbationSpec("constant", SWEEP_EPS), grid
        )
        rhs, alpha = problem.rhs, problem.order.alpha
        k = rhs.K_f / ((1.0 - rhs.L_f) * math.gamma(alpha))
        envelope = certificates.gronwall_bound(
            grid, np.full(grid.n_nodes, cert.b_const * SWEEP_EPS), k, alpha
        )
    except Exception as exc:  # noqa: BLE001 - an uncaught error is a failed operation
        return f"{type(exc).__name__}: {exc}", None, perf_counter() - t0
    dt = perf_counter() - t0
    if not (report.final_update_norm <= TOL and report.residual_norm <= TOL):
        return "SolveReport outside its tolerance", verdict, dt
    if not report.inner_iteration_max < INNER_CAP:
        return "inner fixed point hit its cap", verdict, dt
    if not math.isfinite(residual):
        return "fide residual not finite", verdict, dt
    if verdict.weighted_limit_deviation != 0.0:
        return "perturbed solve moved the weighted limit", verdict, dt
    if not (np.all(np.isfinite(envelope)) and np.all(envelope >= cert.b_const * SWEEP_EPS)):
        return "Gronwall envelope below its profile", verdict, dt
    return None, verdict, dt


class SweepSmall(Workload):
    """Seeded batch of small problems through the library API."""

    name = "sweep-small"
    panels = SWEEP_PANELS

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.params = draw_problems(seed, SWEEP_BATCH)
        self.problems = [build_problem(p) for p in self.params]
        self._write("problems.json", json.dumps(self.params))
        self.violators = []

    @staticmethod
    def cold(workdir):
        with open(os.path.join(workdir, "problems.json"), encoding="utf-8") as fh:
            return sweep_op(build_problem(json.load(fh)[0]))[0]

    def run_pass(self, tally):
        times = []
        self.violators = []
        for params, problem in zip(self.params, self.problems):
            defect, verdict, dt = sweep_op(problem)
            times.append(dt)
            tally.op(defect)
            if verdict is not None:
                tally.verdict(verdict.passed)
                if not verdict.passed:
                    self.violators.append(
                        (params, verdict.observed_deviation / verdict.certified_bound)
                    )
        return sum(times), times


def _stability_cfg(mode, epsilons):
    lines = [REFERENCE_CFG, f"stability.epsilon = {','.join(repr(e) for e in epsilons)}\n"]
    if mode == "uhr":
        lines.append(
            "stability.mode = uhr\nstability.phi = critical-log-power\n"
            f"stability.lambda_phi = {UHR_LAMBDA_PHI!r}\n"
        )
    return "".join(lines)


def _check_verdicts(csv_text, mode, epsilons, code, tally):
    rows = csv_text.splitlines()
    if rows[:1] != [VERDICT_HEADER] or len(rows) != len(epsilons) + 1:
        return f"stability {mode}: expected {len(epsilons)} verdict rows"
    deviations, passes = [], []
    for row, eps in zip(rows[1:], epsilons):
        fields = row.split(",")
        if len(fields) != 6 or fields[0] != mode or float(fields[1]) != eps:
            return f"stability {mode}: malformed verdict row {row!r}"
        dev, bound, margin = (float(v) for v in fields[2:5])
        if not (math.isfinite(dev) and dev > 0.0 and math.isfinite(bound) and math.isfinite(margin)):
            return f"stability {mode}: non-finite or zero verdict values"
        deviations.append(dev)
        passes.append(fields[5] == "true")
    if code != (0 if all(passes) else 1):
        return f"stability {mode}: exit code {code} disagrees with its verdicts"
    for eps, big, small in zip(epsilons, deviations, deviations[1:]):
        if abs(big / small / 10.0 - 1.0) > LINEARITY_RTOL + LINEARITY_QUADRATIC * eps:
            return f"stability {mode}: deviation not linear in epsilon ({big / small:.4f})"
    for passed in passes:
        tally.verdict(passed)
    return None


def stability_call(workdir, mode, cfg, epsilons, tally):
    """Run and check one ``stability`` command; returns its elapsed time."""
    out_path = os.path.join(workdir, "verdicts.csv")
    code, _, dt = run_cli(
        ["stability", "--config", cfg, "--panels", str(STABILITY_PANELS), "--out", out_path]
    )
    if code not in (0, 1):
        tally.op(f"stability {mode} exited {code}")
        return dt
    with open(out_path, encoding="utf-8") as fh:
        tally.op(_check_verdicts(fh.read(), mode, epsilons, code, tally))
    return dt


class Stability8k(Workload):
    """UH and UHR stability runs on the reference problem at 8192 panels."""

    name = "stability-8k"
    panels = STABILITY_PANELS

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.configs = [
            ("UH", self._write("uh.cfg", _stability_cfg("uh", STABILITY_EPS))),
            ("UHR", self._write("uhr.cfg", _stability_cfg("uhr", STABILITY_EPS))),
        ]
        self._write("cold.cfg", _stability_cfg("uh", STABILITY_EPS[:1]))

    @staticmethod
    def cold(workdir):
        tally = Tally()
        stability_call(workdir, "UH", os.path.join(workdir, "cold.cfg"), STABILITY_EPS[:1], tally)
        return tally.messages[0] if tally.failed else None

    def run_pass(self, tally):
        times = [
            stability_call(self.workdir, mode, cfg, STABILITY_EPS, tally)
            for mode, cfg in self.configs
        ]
        return sum(times), times


WORKLOADS = {w.name: w for w in (RefineReference, SweepSmall, Stability8k)}
