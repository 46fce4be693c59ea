"""Empirical Ulam-stability experiments.

An experiment compares the solution u of the problem as given with the
solution of the problem whose right-hand side is shifted by a constructed
perturbation h, and checks the observed deviation against the certified
bound.  Every bound is constant * epsilon * shape: C_f epsilon for
Ulam-Hyers (shape 1), C_f_phi epsilon phi(t) nodewise for the Rassias
variant (shape phi, the run's one phi profile).  The admissibility test
|h| <= epsilon * shape uses the same shape.  C_f, C_f_phi and the
contraction modulus A are read from one
:func:`~hhfrac.certificates.build_certificate` record per run, the one
that ``hhfrac certify`` prints; a configuration's ``stability.mode``
alone decides whether both are Rassias ones.  u does not depend on h, so
:func:`run_experiments` runs a whole list of perturbations against one
unperturbed solve, after every space, certificate, contraction and
admissibility check has passed; :func:`run_uh_experiment` is its
one-perturbation Ulam-Hyers case.  That solve is ``picard_solve``'s, which
keeps its last result: a run right after the caller's own solve of the
same problem, grid, tol and cap solves only the perturbed problems.

The perturbed solution is *defined* as the solution of the h-shifted
equation whose (log t)^(gamma-1) coefficient is frozen at the unperturbed
value, i.e. both solutions share the same weighted limit at 1+.  That is
the constructive realization of the matching condition under which the
stability theorems equate the two constant parts; re-deriving the constant
from the perturbed right-hand side would instead let the deviation inherit
an O(epsilon) (log t)^(gamma-1) term that is unbounded near 1.

Each perturbed re-solve is ``solve_with_fixed_constant`` started at u:
the constant is frozen at u's weighted limit, and u lies within
O(epsilon) of the solution.  With the constant frozen the map contracts
with modulus at most A, and A < 1 is checked before any solve, so its
fixed point and the stopping rule (increment <= tol) do not depend on the
start beyond that limit: the start only saves sweeps.  Both starts stop
within tol A/(1-A) of the fixed point, so a deviation or margin can move
by at most 2 tol A/(1-A) in the weighted norm against a solve from the
constant part; on the shipped configurations the largest move is 3.4e-9
relative.  Every start is u itself, so a verdict depends only on its own
perturbation.

Deviations are measured in the plain sup norm over the nodes t >= t_1,
since the stability definitions compare raw values; node 0 raw values may
be unbounded, so the weighted-limit deviation is reported separately
(it is zero by construction here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .certificates import build_certificate
from .errors import DomainError
from .grids import GridFunction, LogGrid, require_space
from .problems import ProblemSpec
from .solver import DEFAULT_CAP, DEFAULT_TOL, picard_solve, solve_with_fixed_constant

CONSTANT = "constant"
LOG_POWER = "log-power"
SUPPLIED = "supplied-table"

MODE_UH = "UH"
MODE_GENERALIZED_UH = "generalized-UH"
MODE_UHR = "UHR"
MODE_GENERALIZED_UHR = "generalized-UHR"

CSV_HEADER = "mode,epsilon,deviation,bound,margin,pass"


@dataclass(frozen=True)
class PerturbationSpec:
    """Recipe for the realized perturbation h(t).

    * ``constant``: h = epsilon everywhere.
    * ``log-power``: h = epsilon * phi(t) for the attached profile.
    * ``supplied-table``: h given directly as a grid function.

    After construction the realized h is asserted against the admissibility
    bound of the requested mode: |h| <= epsilon for Ulam-Hyers runs,
    |h| <= epsilon phi(t) for Rassias runs.
    """

    kind: str
    epsilon: float
    phi_profile: Optional[GridFunction] = None
    table: Optional[GridFunction] = None

    def __post_init__(self):
        if self.kind not in (CONSTANT, LOG_POWER, SUPPLIED):
            raise DomainError(f"unknown perturbation kind {self.kind!r}")
        if not self.epsilon > 0.0:
            raise DomainError(f"epsilon must be positive, got {self.epsilon!r}")
        if self.kind == LOG_POWER and self.phi_profile is None:
            raise DomainError("log-power perturbation needs a phi profile")
        if self.kind == SUPPLIED and self.table is None:
            raise DomainError("supplied-table perturbation needs a table")

    def realize(self, grid: LogGrid, gamma: float) -> GridFunction:
        """The perturbation h as a grid function in weight class gamma."""
        if self.kind == CONSTANT:
            w = np.empty(grid.n_nodes)
            w[0] = 0.0
            w[1:] = self.epsilon * grid.x_power(1.0 - gamma)
            return GridFunction(grid, gamma, w)
        if self.kind == LOG_POWER:
            return self.phi_profile * self.epsilon
        return self.table


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of one stability experiment."""

    mode: str
    epsilon: float
    observed_deviation: float
    certified_bound: float
    margin: float
    passed: bool
    weighted_limit_deviation: float

    def csv_row(self) -> str:
        return (
            f"{self.mode},{self.epsilon!r},{self.observed_deviation!r},"
            f"{self.certified_bound!r},{self.margin!r},"
            f"{'true' if self.passed else 'false'}"
        )


def _verdict(modes, epsilon, deviation, bounds, constant, tol, wdev):
    """Verdict at the node of least margin; a scalar bound is the UH case.

    ``modes`` is (mode, generalized mode); epsilon = 1 realizes the
    generalized mode, the bound with no free epsilon.
    """
    margins = bounds - deviation
    worst = int(np.argmin(margins))
    margin = float(margins[worst])
    return StabilityVerdict(
        mode=modes[1] if epsilon == 1.0 else modes[0], epsilon=epsilon,
        observed_deviation=float(np.max(deviation)),
        certified_bound=float(np.broadcast_to(bounds, deviation.shape)[worst]),
        margin=margin, passed=margin >= -10.0 * tol * constant,
        weighted_limit_deviation=wdev,
    )


def run_experiments(
    problem: ProblemSpec, perturbations: list[PerturbationSpec], grid: LogGrid,
    lambda_phi: Optional[float] = None,
    tol: float = DEFAULT_TOL, cap: int = DEFAULT_CAP,
) -> list[StabilityVerdict]:
    """One verdict per perturbation, all against a single unperturbed solve.

    Ulam-Hyers mode when ``lambda_phi`` is None, Rassias mode otherwise.
    The unperturbed solve is ``picard_solve(problem, grid, tol, cap)``; a
    caller that has just made that call holds its result, and the solver's
    memo returns it without solving again.

    Every check runs before any solve, in this order.  A Rassias run has
    one phi profile, the same object in every perturbation, and it must
    live on ``grid``; it verifies lambda_phi in the run's one certificate
    and shapes every bound.  The contraction A < 1 must hold.  Each
    realized perturbation must live on ``grid`` in the weight class gamma,
    and must be admissible.  Each re-solve starts at the unperturbed
    solution, so the perturbed solutions share its weighted limit at 1+.
    """
    perturbations = list(perturbations)
    g = problem.order.gamma
    phi = None
    if lambda_phi is not None:
        profiles = {id(p.phi_profile): p.phi_profile for p in perturbations}
        phi = profiles.popitem()[1] if len(profiles) == 1 else None
        if phi is None:
            raise DomainError("a Rassias run needs one phi profile, shared by every perturbation")
        require_space(phi, grid, None, "phi profile")
    certificate = build_certificate(problem, phi, lambda_phi)
    if certificate.a_const >= 1.0:
        raise DomainError(
            f"stability experiments require a contraction (A = {certificate.a_const:.4f} >= 1)"
        )
    if phi is None:
        constant, modes, shape = certificate.c_f, (MODE_UH, MODE_GENERALIZED_UH), 1.0
    else:
        constant, modes = certificate.c_f_phi, (MODE_UHR, MODE_GENERALIZED_UHR)
        shape = phi.raw_tail()
    shifts = []
    for p in perturbations:
        h = require_space(p.realize(grid, g), grid, g, "perturbation")
        excess = np.max(np.abs(h.raw_tail()) - p.epsilon * shape)
        if excess > 1e-12 * max(1.0, p.epsilon):
            raise DomainError(
                f"realized perturbation exceeds its admissibility bound by {float(excess):.3e}"
            )
        shifts.append(h)
    u, _ = picard_solve(problem, grid, tol=tol, cap=cap)
    u_raw = u.raw_tail()
    verdicts = []
    for p, h in zip(perturbations, shifts):
        u_tilde, _ = solve_with_fixed_constant(problem, grid, start=u, shift=h, tol=tol, cap=cap)
        deviation = np.abs(u_tilde.raw_tail() - u_raw)
        wdev = abs(u_tilde.weighted_limit - u.weighted_limit)
        bounds = constant * p.epsilon * shape
        verdicts.append(_verdict(modes, p.epsilon, deviation, bounds, constant, tol, wdev))
    return verdicts


def run_uh_experiment(
    problem: ProblemSpec, perturbation: PerturbationSpec, grid: LogGrid,
    tol: float = DEFAULT_TOL, cap: int = DEFAULT_CAP,
) -> StabilityVerdict:
    """Ulam-Hyers experiment: sup |u_tilde - u| against C_f epsilon."""
    return run_experiments(problem, [perturbation], grid, tol=tol, cap=cap)[0]


def verdicts_to_csv(verdicts) -> str:
    """CSV with header; LF line endings, '.' decimal separator."""
    lines = [CSV_HEADER]
    lines += [v.csv_row() for v in verdicts]
    return "\n".join(lines) + "\n"
