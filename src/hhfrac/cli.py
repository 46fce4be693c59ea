"""Command-line front end.

Subcommands:

* ``solve``     solve a configured problem, emit the solution as CSV
* ``certify``   compute every constant, emit a key = value record
* ``stability`` run perturbation experiments, emit verdict CSV rows
* ``verify``    run the operator-identity suites (``--level fast|full``)
* ``example``   the reference problem's ``rhs`` metadata, then ``certify``,
  ``solve`` and ``stability`` on its built-in configuration

Exit status is 0 exactly when every check the command ran has passed.
Configuration and domain errors, an overflowing Mittag-Leffler factor
among them, print one ``error:`` line and exit 2.  A solve that reaches its
cap prints one ``solve failed:`` line and a rejected ``lambda_phi`` one
``certificate rejected:`` line (``certify`` and ``stability``); both exit 1.
Outputs are deterministic: identical configurations produce bytewise
identical files.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

from . import certificates as cert_mod
from .config import ConfigError, RunConfig, load_config
from .errors import CertificateRejected, ConvergenceError, DomainError, MLOverflowError
from .grids import GridFunction
from .problems import PAPER_EXAMPLE, paper_example_rhs
from .solver import picard_solve, residual_fide
from .stability import PerturbationSpec, run_experiments, verdicts_to_csv
from .verify import run_convergence_suite, run_identity_suite

SOLUTION_HEADER = "t,log_t,weighted_value,raw_value,F_u"


def _write(path: Optional[str], text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _solution_csv(u, f_grid) -> str:
    grid = u.grid
    x = grid.log_nodes
    t = grid.nodes
    lines = [SOLUTION_HEADER]
    # node 0: raw values may be unbounded; weighted limits are the record
    lines.append(f"{float(t[0])!r},{float(x[0])!r},{u.weighted_limit!r},,")
    u_raw = u.raw_tail()
    f_raw = f_grid.raw_tail()
    for i in range(1, grid.n_nodes):
        lines.append(
            f"{float(t[i])!r},{float(x[i])!r},{float(u.weighted_values[i])!r},"
            f"{float(u_raw[i - 1])!r},{float(f_raw[i - 1])!r}"
        )
    return "\n".join(lines) + "\n"


def _report_lines(report) -> str:
    return (
        f"iterations = {report.iterations}\n"
        f"final_update_norm = {report.final_update_norm!r}\n"
        f"residual_norm = {report.residual_norm!r}\n"
        f"bc_defect = {report.bc_defect!r}\n"
        f"inner_iteration_max = {report.inner_iteration_max}\n"
    )


def cmd_solve(config: RunConfig, out: Optional[str]) -> int:
    grid = config.grid()
    problem = config.problem(grid)
    try:
        u, report = picard_solve(problem, grid, tol=config.tol, cap=config.cap)
    except ConvergenceError as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(_report_lines(report))
    sys.stdout.write(f"fide_residual = {residual_fide(u, problem)!r}\n")
    if out is not None:
        _write(out, _solution_csv(u, report.F_u))
    return 0


def cmd_certify(config: RunConfig, out: Optional[str]) -> int:
    grid = config.grid()
    problem = config.problem(grid)
    phi_profile = None
    if config.lambda_phi is not None:
        phi_profile = config.phi_profile(grid)
    try:
        certificate = cert_mod.build_certificate(
            problem, phi_weight=phi_profile, lambda_phi=config.lambda_phi
        )
    except CertificateRejected as exc:
        print(f"certificate rejected: {exc}", file=sys.stderr)
        return 1
    text = certificate.as_text()
    _write(out, text)
    if out is not None:
        sys.stdout.write(text)
    return 0 if (certificate.existence_ok and certificate.uniqueness_ok) else 1


def _perturbations(config: RunConfig, grid) -> list[PerturbationSpec]:
    """One perturbation per configured epsilon; they share one phi profile."""
    kind = config.perturbation_kind
    if kind == "supplied-table":
        if config.stability_table is None:
            raise ConfigError("supplied-table perturbation needs stability.table")
        if len(config.stability_table) != grid.n_nodes:
            raise ConfigError(
                f"stability.table has {len(config.stability_table)} values; "
                f"the grid needs {grid.n_nodes}"
            )
        table = GridFunction(grid, config.order.gamma, config.stability_table)
        return [PerturbationSpec(kind, eps, table=table) for eps in config.epsilons]
    if kind == "log-power" or config.stability_mode == "uhr":
        phi = config.phi_profile(grid)
        return [
            PerturbationSpec("log-power", eps, phi_profile=phi)
            for eps in config.epsilons
        ]
    return [PerturbationSpec(kind, eps) for eps in config.epsilons]


def cmd_stability(config: RunConfig, out: Optional[str]) -> int:
    grid = config.grid()
    problem = config.problem(grid)
    lam = None
    if config.stability_mode == "uhr":
        lam = config.lambda_phi
        if lam is None:
            lam = config.suggested_lambda_phi()
    try:
        verdicts = run_experiments(
            problem, _perturbations(config, grid), grid, lam,
            tol=config.tol, cap=config.cap,
        )
    except CertificateRejected as exc:
        print(f"certificate rejected: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1
    csv = verdicts_to_csv(verdicts)
    _write(out, csv)
    if out is not None:
        sys.stdout.write(csv)
    return 0 if all(v.passed for v in verdicts) else 1


def cmd_verify(level: str, panels_fast: int = 128) -> int:
    if level == "fast":
        results = run_identity_suite(panels_fast)
    else:
        results = run_identity_suite(512) + run_convergence_suite()
    for r in results:
        print(r.line())
    failures = [r for r in results if not r.passed]
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return 0 if not failures else 1


def cmd_example(phi: float, panels: int, out: Optional[str]) -> int:
    rhs = paper_example_rhs()
    for name in ("K_f", "L_f", "delta_star", "sigma_star", "rho_star"):
        print(f"{name} = {getattr(rhs, name)!r}")
    config = RunConfig(
        alpha=1.0 / 3.0, beta_type=2.0 / 3.0, b=math.e, c1=2.0, c2=1.0, phi=phi,
        rhs_kind=PAPER_EXAMPLE, panels=panels, epsilons=(1e-3,),
    )
    certified = cmd_certify(config, None) == 0
    if cmd_solve(config, out) != 0:
        return 1
    stable = cmd_stability(config, None) == 0
    return 0 if certified and stable else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhfrac",
        description=(
            "Solver and stability certificates for implicit fractional "
            "boundary-value problems with the Hilfer-Hadamard derivative"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="problem configuration file")
        p.add_argument("--panels", type=int, help="override grid panel count")
        p.add_argument("--tol", type=float, help="override outer tolerance")
        p.add_argument("--phi", type=float, help="override the boundary value")
        p.add_argument("--out", help="output file (default: stdout)")

    add_common(sub.add_parser("solve", help="solve a configured problem"))
    add_common(sub.add_parser("certify", help="compute certificate constants"))
    add_common(sub.add_parser("stability", help="run stability experiments"))

    v = sub.add_parser("verify", help="run operator-identity suites")
    v.add_argument("--level", choices=("fast", "full"), default="fast")

    e = sub.add_parser("example", help="reproduce the reference problem")
    e.add_argument("--phi", type=float, default=1.0, help="boundary value (default 1)")
    e.add_argument("--panels", type=int, default=512)
    e.add_argument("--out", help="write the solution CSV here")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.level)
        if args.command == "example":
            return cmd_example(args.phi, args.panels, args.out)
        config = load_config(args.config)
        if args.panels is not None:
            config.panels = args.panels
        if args.tol is not None:
            config.tol = args.tol
        if args.phi is not None:
            config.phi = args.phi
        if args.command == "solve":
            return cmd_solve(config, args.out)
        if args.command == "certify":
            return cmd_certify(config, args.out)
        return cmd_stability(config, args.out)
    except (ConfigError, DomainError, FileNotFoundError, MLOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
