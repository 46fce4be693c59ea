"""Command-line front end.

Subcommands:

* ``solve``     solve a configured problem, emit the solution as CSV
* ``certify``   compute every constant, emit a key = value record
* ``stability`` run perturbation experiments, emit verdict CSV rows; the
  perturbation is ``stability.table``, else epsilon (uh) or epsilon phi (uhr)
* ``verify``    run the operator-identity suites (``--level fast|full``);
  ``full`` adds the gated refinement orders of the integral and the solver
* ``example``   the reference problem's ``rhs`` metadata, then ``certify``,
  ``solve`` and ``stability`` on its built-in configuration

``--panels``, ``--tol`` and ``--phi`` are configuration entries:
:func:`hhfrac.config.parse_config` validates them with the file, or with
``example``'s built-in configuration before anything is printed, and cites
a bad one by its flag.

Exit status is 0 exactly when every check the command ran has passed.
Configuration, domain and file errors, an overflowing Mittag-Leffler
factor among them, print one ``error:`` line and exit 2.  A solve that
reaches its cap or whose iterates overflow prints one ``solve failed:``
line, as does a ``solve`` or ``example`` whose ``residual_norm``,
``bc_defect`` or ``fide_residual`` is not finite, and a ``stability``
whose unperturbed ``residual_norm`` or ``bc_defect`` is not; a
``lambda_phi`` that fails its nodewise verification prints one
``certificate rejected:`` line (``certify`` and ``stability``); both exit 1.
:func:`main` alone maps exceptions to these lines.
Outputs are deterministic: identical configurations produce bytewise
identical files.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Optional

from . import certificates as cert_mod
from .config import FLAGS, ConfigError, RunConfig, load_config, parse_config
from .errors import CertificateRejected, ConvergenceError, DomainError, MLOverflowError
from .grids import GridFunction
from .problems import paper_example_rhs
from .solver import picard_solve, residual_fide
from .stability import (
    CONSTANT, LOG_POWER, SUPPLIED, PerturbationSpec, run_experiments, verdicts_to_csv,
)
from .verify import run_convergence_suite, run_identity_suite

SOLUTION_HEADER = "t,log_t,weighted_value,raw_value,F_u"
# rows of the solution CSV formatted per write
_CSV_BLOCK = 1024

# the reference problem that ``example`` runs
EXAMPLE_CONFIG = (
    "alpha = 1/3\nbeta = 2/3\nb = e\nc1 = 2\nc2 = 1\nphi = 1\nrhs = paper-example\n"
)


def _open(path: str):
    return open(path, "w", encoding="utf-8", newline="\n")


def _write(path: str, text: str):
    with _open(path) as fh:
        fh.write(text)


def _emit(text: str, out: Optional[str]):
    """A record to ``out`` when given, then to stdout."""
    if out is not None:
        _write(out, text)
    sys.stdout.write(text)


def _solution_csv(u, f_grid, fh):
    """Write the solution CSV to the text file ``fh``, ``_CSV_BLOCK`` rows at
    a time, so no string of the whole file is built."""
    grid = u.grid
    x = grid.log_nodes
    t = grid.nodes
    # node 0: raw values may be unbounded; weighted limits are the record
    fh.write(f"{SOLUTION_HEADER}\n{float(t[0])!r},{float(x[0])!r},{u.weighted_limit!r},,\n")
    columns = (t[1:], x[1:], u.weighted_values[1:], u.raw_tail(), f_grid.raw_tail())
    for start in range(0, grid.n_panels, _CSV_BLOCK):
        block = (map(repr, col[start : start + _CSV_BLOCK].tolist()) for col in columns)
        fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def _report_lines(report) -> str:
    return (
        f"iterations = {report.iterations}\n"
        f"final_update_norm = {report.final_update_norm!r}\n"
        f"residual_norm = {report.residual_norm!r}\n"
        f"bc_defect = {report.bc_defect!r}\n"
        f"inner_iteration_max = {report.inner_iteration_max}\n"
    )


def _require_finite(report, **more):
    """Raise ``ConvergenceError`` naming each of the report's residual and
    boundary defect, and of ``more``, that is not finite."""
    checked = {"residual_norm": report.residual_norm, "bc_defect": report.bc_defect, **more}
    bad = [f"{name} = {value!r}" for name, value in checked.items() if not math.isfinite(value)]
    if bad:
        raise ConvergenceError(f"the solve's report is not finite: {', '.join(bad)}")


def _solve_record(config: RunConfig, out: Optional[str]) -> str:
    """The solve's report, after writing its CSV to ``out``: a failing
    ``--out`` leaves stdout empty.  A report whose residual, boundary
    defect or FIDE residual is not finite raises ``ConvergenceError``
    before anything is written."""
    grid = config.grid()
    problem = config.problem(grid)
    u, report = picard_solve(problem, grid, tol=config.tol, cap=config.cap)
    fide_residual = residual_fide(u, problem)
    _require_finite(report, fide_residual=fide_residual)
    if out is not None:
        with _open(out) as fh:
            _solution_csv(u, report.F_u, fh)
    return _report_lines(report) + f"fide_residual = {fide_residual!r}\n"


def cmd_solve(config: RunConfig, out: Optional[str]) -> int:
    sys.stdout.write(_solve_record(config, out))
    return 0


def cmd_certify(config: RunConfig, out: Optional[str]) -> int:
    grid = config.grid()
    problem = config.problem(grid)
    lam = config.rassias_lambda_phi
    phi_profile = config.phi_profile(grid) if lam is not None else None
    certificate = cert_mod.build_certificate(problem, phi_weight=phi_profile, lambda_phi=lam)
    _emit(certificate.as_text(), out)
    return 0 if (certificate.existence_ok and certificate.uniqueness_ok) else 1


def _perturbations(config: RunConfig, grid) -> list[PerturbationSpec]:
    """One perturbation per configured epsilon: the table, else epsilon phi(t)
    (``uhr``, one shared profile) or the constant epsilon (``uh``)."""
    if config.stability_table is not None:
        table = GridFunction(grid, config.order.gamma, config.stability_table)
        return [PerturbationSpec(SUPPLIED, eps, table=table) for eps in config.epsilons]
    if config.stability_mode == "uhr":
        phi = config.phi_profile(grid)
        return [
            PerturbationSpec(LOG_POWER, eps, phi_profile=phi)
            for eps in config.epsilons
        ]
    return [PerturbationSpec(CONSTANT, eps) for eps in config.epsilons]


def cmd_stability(config: RunConfig, out: Optional[str]) -> int:
    grid = config.grid()
    problem = config.problem(grid)
    verdicts = run_experiments(
        problem, _perturbations(config, grid), grid, config.rassias_lambda_phi,
        tol=config.tol, cap=config.cap,
    )
    # the solver's memo returns the unperturbed solve of run_experiments
    _require_finite(picard_solve(problem, grid, tol=config.tol, cap=config.cap)[1])
    _emit(verdicts_to_csv(verdicts), out)
    return 0 if all(v.passed for v in verdicts) else 1


def cmd_verify(level: str) -> int:
    if level == "fast":
        results = run_identity_suite(128)
    else:
        results = run_identity_suite(512) + run_convergence_suite()
    for r in results:
        print(r.line())
    failures = [r for r in results if not r.passed]
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return 0 if not failures else 1


def cmd_example(config: RunConfig, out: Optional[str]) -> int:
    solved = _solve_record(config, out)
    rhs = paper_example_rhs()
    for name in ("K_f", "L_f", "delta_star", "sigma_star", "rho_star"):
        print(f"{name} = {getattr(rhs, name)!r}")
    certified = cmd_certify(config, None) == 0
    sys.stdout.write(solved)
    # the unperturbed solve is the one above, kept by picard_solve
    stable = cmd_stability(config, None) == 0
    return 0 if certified and stable else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call of the process; parsing
    leaves it unchanged, so every later call returns the same one."""
    parser = argparse.ArgumentParser(
        prog="hhfrac",
        description=(
            "Solver and stability certificates for implicit fractional "
            "boundary-value problems with the Hilfer-Hadamard derivative"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # --panels, --tol and --phi stay strings: parse_config parses them
    def add_common(p):
        p.add_argument("--config", required=True, help="problem configuration file")
        p.add_argument("--panels", help="override grid panel count (at least 5)")
        p.add_argument("--tol", help="override outer tolerance (finite, > 0)")
        p.add_argument("--phi", help="override the boundary value")
        p.add_argument("--out", help="output file (default: stdout)")

    add_common(sub.add_parser("solve", help="solve a configured problem"))
    add_common(sub.add_parser("certify", help="compute certificate constants"))
    add_common(sub.add_parser("stability", help="run stability experiments"))

    v = sub.add_parser("verify", help="run operator-identity suites")
    v.add_argument("--level", choices=("fast", "full"), default="fast")

    e = sub.add_parser("example", help="reproduce the reference problem")
    e.add_argument("--phi", help="boundary value (default 1)")
    e.add_argument("--panels", help="grid panel count (default 512, at least 5)")
    e.add_argument("--out", help="write the solution CSV here")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.level)
        given = vars(args)
        overrides = {key: given[key] for key in FLAGS if given.get(key) is not None}
        if args.command == "example":
            config = parse_config(EXAMPLE_CONFIG, "example", overrides)
            return cmd_example(config, args.out)
        config = load_config(args.config, overrides)
        if args.command == "solve":
            return cmd_solve(config, args.out)
        if args.command == "certify":
            return cmd_certify(config, args.out)
        return cmd_stability(config, args.out)
    except (ConfigError, DomainError, MLOverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1
    except CertificateRejected as exc:
        print(f"certificate rejected: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
