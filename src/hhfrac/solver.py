"""Successive approximation for the implicit boundary-value problem.

The mixed-type integral form of the problem is

    u(t) = Z_u (log t)^(gamma-1) + (I^alpha F_u)(t),
    F_u(t) = f(t, u(t), F_u(t)),

with the scalar Z_u fixed by the two-point boundary data.  Each outer
Picard sweep resolves the implicit right-hand side at every node at once
(closed-form implicit solve per catalog entry, unique because L_f < 1),
recomputes Z_u, and applies the Hadamard integral.  One private engine
runs every solve; ``picard_solve`` fixes Z by the boundary data and
``solve_with_fixed_constant`` freezes it, for perturbed re-solves (started
at the unperturbed solution) and for initial-value solves
``(I^(1-gamma) u)(1+) = u0`` with ``z_fixed = u0 / Gamma(gamma)``.  Each
returns ``(u, report)``; the report carries F_u at the returned iterate
and the boundary defect.  The solves, ``apply_Q`` and ``residual_fide``
raise ``GridMismatchError`` for a grid whose b is not the problem's, and
a solve whose iterates overflow raises ``ConvergenceError``.

The sweeps run on weighted numpy arrays.  ``x^(gamma-1)``,
``x^(1-gamma)``, the implicit root's grid-only part and the quadrature
plans of the orders alpha and nu = 1 - gamma + alpha are built once per
solve, F_u is split into its leading mode and remainder once per sweep,
and that split serves both Z (through ``(I^nu F_u)(b)``) and
``I^alpha F_u``.  Grid functions are built only for the start and for the
returned u and F_u.  The operations are
those of the grid-function operators, in the same order, so a solve is
bit-for-bit what ``hadamard_integral`` and ``integral_value_at_b`` give
sweep by sweep.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Optional

import numpy as np

from .certificates import uniqueness_constant
from .errors import ConvergenceError, DomainError, GridMismatchError
from .grids import GridFunction, LogGrid, log_power
from .hadamard import (
    hilfer_hadamard_derivative,
    integral_value_at_b,
    quadrature_plan,
    split_leading_mode,
)
from .problems import ImplicitRoot, ProblemSpec, SolveReport

DEFAULT_TOL = 1e-10
DEFAULT_CAP = 200
# unused by the solver; perfbench/workloads.py reads it at import
DEFAULT_INNER_CAP = 100


class _Sweep:
    """The fixed-point map on weighted arrays, with its per-solve data built once.

    Holds ``x^(gamma-1)``, ``x^(1-gamma)``, the raw shift, the implicit
    root with its grid-only part and the two quadrature plans.
    :meth:`apply` splits F_u once and shares that split between the
    boundary value ``(I^nu F_u)(b)``, nu = 1 - gamma + alpha, and the
    integral ``I^alpha F_u``.  Every entry point builds one, so it
    rejects a grid on another interval and a shift on another grid.
    """

    def __init__(
        self, problem: ProblemSpec, grid: LogGrid,
        shift: Optional[GridFunction] = None,
    ):
        if grid.b != problem.b:
            raise GridMismatchError(
                f"grid on [1, {grid.b!r}] for a problem posed on [1, {problem.b!r}]"
            )
        if shift is not None and shift.grid != grid:
            raise GridMismatchError("perturbation must live on the solve grid")
        order = problem.order
        g = order.gamma
        x = grid.log_nodes[1:]
        self.rhs, self.gamma, self.grid, self.x = problem.rhs, g, grid, x
        self.root = ImplicitRoot(problem.rhs, grid.nodes[1:])
        self.to_raw = x ** (g - 1.0)
        self.to_weighted = x ** (1.0 - g)
        self.shift_raw = shift.raw_tail() if shift is not None else 0.0
        self.shift_limit = shift.weighted_limit if shift is not None else 0.0
        self.alpha_plan = quadrature_plan(order.alpha, grid.h, grid.n_panels)
        self.nu_plan = quadrature_plan(1.0 - g + order.alpha, grid.h, grid.n_panels)
        self.log_b = math.log(grid.b)

    def rhs_values(self, u_limit: float, u_raw: np.ndarray) -> np.ndarray:
        """Weighted F_u (class gamma) from u's weighted limit and raw tail."""
        w = np.empty(self.grid.n_nodes)
        w[0] = self.rhs.weighted_limit(u_limit, self.gamma) + self.shift_limit
        self.root.solve(u_raw, self.shift_raw, out=w[1:])
        w[1:] *= self.to_weighted
        return w

    def apply(self, f_values: np.ndarray, z_rule: Callable[[float], float]) -> np.ndarray:
        """Weighted Z (log t)^(gamma-1) + I^alpha F for weighted F values.

        ``z_rule`` maps ``(I^nu F)(b)`` to Z.
        """
        split = split_leading_mode(f_values, self.gamma, self.to_raw)
        z = z_rule(self.nu_plan.value_at_b(split, self.log_b))
        u_next = self.alpha_plan.weighted_integral(split, self.to_weighted, self.x)
        u_next += z
        return u_next


def _z_rule(problem: ProblemSpec) -> Callable[[float], float]:
    """Z from (I^nu F_u)(b), fixed by the boundary data."""
    csum = problem.c1 + problem.c2
    gamma_g = math.gamma(problem.order.gamma)
    return lambda tail: (problem.phi / csum - problem.c2 / csum * tail) / gamma_g


def apply_Q(u: GridFunction, problem: ProblemSpec) -> GridFunction:
    """One application of the fixed-point operator of the mixed-type equation."""
    sweep = _Sweep(problem, u.grid)
    f_values = sweep.rhs_values(u.weighted_limit, u.raw_tail())
    return GridFunction(u.grid, problem.order.gamma, sweep.apply(f_values, _z_rule(problem)))


def _bc_defect(u: GridFunction, problem: ProblemSpec, f_grid: GridFunction) -> float:
    """|c1 (I^(1-gamma) u)(1+) + c2 (I^(1-gamma) u)(b-) - phi| of a weighted candidate.

    The value at 1+ is Gamma(gamma) times the stored weighted limit; the
    integral part vanishes there because it gains a positive log-power.

    The solution carries an F(1+)/Gamma(alpha+1) (log t)^alpha mode whose
    second integration the product rule resolves only at order 1 + alpha.
    That mode's coefficient is estimated from the right-hand-side grid and
    integrated in closed form, which keeps the reported defect at the
    smooth-data level.  When F(1+) = 0 the correction moves only the signs
    of zeros, which the final ``abs`` erases.
    """
    order = problem.order
    g = order.gamma
    grid = u.grid
    at_one = math.gamma(g) * u.weighted_limit
    candidate = u
    correction = 0.0
    if grid.n_panels >= 3:
        x = grid.log_nodes
        f_at_one = split_leading_mode(f_grid.weighted_values[:4], g, x[1:4] ** (g - 1.0)).g0
        mode_coeff = f_at_one / math.gamma(order.alpha + 1.0)
        candidate = u - log_power(grid, g, order.alpha, coeff=mode_coeff)
        logb = math.log(grid.b)
        correction = (
            f_at_one
            / math.gamma(2.0 + order.alpha - g)
            * logb ** (1.0 + order.alpha - g)
        )
    at_b = integral_value_at_b(candidate, 1.0 - g) + correction
    return float(abs(problem.c1 * at_one + problem.c2 * at_b - problem.phi))


def _solve(
    problem: ProblemSpec, grid: LogGrid,
    z_rule: Callable[[float], float], start: np.ndarray,
    shift: Optional[GridFunction], tol: float, cap: int,
):
    """Iterate u <- Z (log t)^(gamma-1) + I^alpha F_u until the increment drops.

    ``start`` holds the weighted values of the first iterate, ``z_rule``
    maps ``(I^nu F_u)(b)`` to Z and ``shift`` is added to the right-hand
    side; returns (u, report) with the boundary defect of u.  The start is
    built as a grid function for its checks of the weight class and the
    values.  The map does not depend on the start, so a start nearer its
    fixed point changes only the number of sweeps: a contraction of
    modulus A stops within tol A/(1-A) of the fixed point from any start.
    A sweep whose increment is not finite ends the solve in
    ``ConvergenceError``; numpy's overflow warnings on the way there are
    silenced.
    """
    if cap < 1 or not 0.0 < tol < math.inf:
        raise DomainError(
            f"need cap >= 1 and a finite tol > 0, got cap={cap!r}, tol={tol!r}"
        )
    gamma = problem.order.gamma
    u = GridFunction(grid, gamma, start).weighted_values
    sweep = _Sweep(problem, grid, shift)

    def step(u):
        """(F_u, Q u, sup |Q u - u|) on weighted arrays."""
        f_values = sweep.rhs_values(float(u[0]), u[1:] * sweep.to_raw)
        u_next = sweep.apply(f_values, z_rule)
        return f_values, u_next, float(np.max(np.abs(u_next - u)))

    history = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cap):
            _, u_next, increment = step(u)
            history.append(increment)
            if not math.isfinite(increment):
                raise ConvergenceError(
                    f"successive approximation diverged: sweep {len(history)} "
                    "left a non-finite iterate",
                    history=history,
                )
            u = u_next
            if increment <= tol:
                break
        else:
            raise ConvergenceError(
                f"successive approximation did not converge within {cap} sweeps "
                f"(last increment {history[-1]:.3e})",
                history=history,
            )
    # residual against one more application of the operator; its F_u is
    # the right-hand side at the returned iterate
    f_values, _, residual = step(u)
    u, f_grid = GridFunction(grid, gamma, u), GridFunction(grid, gamma, f_values)
    return u, SolveReport(
        iterations=len(history), final_update_norm=history[-1],
        residual_norm=residual, bc_defect=_bc_defect(u, problem, f_grid),
        inner_iteration_max=1, F_u=f_grid,
    )


def picard_solve(
    problem: ProblemSpec, grid: LogGrid,
    tol: float = DEFAULT_TOL, cap: int = DEFAULT_CAP,
):
    """Solve the boundary-value problem; returns (solution, report).

    The starting iterate is the pure constant part (exact when F = 0).  A
    contraction modulus >= 1 only triggers a warning: the iteration may
    still converge, and existence can hold without uniqueness.
    """
    a_const = uniqueness_constant(problem)
    if a_const >= 1.0:
        warnings.warn(
            f"contraction constant {a_const:.4g} >= 1; successive approximation "
            "may diverge", stacklevel=2
        )
    z0 = problem.phi / ((problem.c1 + problem.c2) * math.gamma(problem.order.gamma))
    return _solve(problem, grid, _z_rule(problem), np.full(grid.n_nodes, z0), None, tol, cap)


def solve_with_fixed_constant(
    problem: ProblemSpec, grid: LogGrid, z_fixed: float,
    shift: Optional[GridFunction] = None,
    tol: float = DEFAULT_TOL, cap: int = DEFAULT_CAP,
    start: Optional[GridFunction] = None,
):
    """Solve with the (log t)^(gamma-1) coefficient frozen at ``z_fixed``.

    Used for perturbed re-solves that must share the unperturbed solution's
    weighted limit at 1+, and for initial-value solves.  ``shift`` is an
    additive perturbation h(t) of the right-hand side, as a grid function
    in the solution's weight class; the report's ``F_u`` then includes it.

    ``start`` is the first iterate, on ``grid`` and in the weight class
    gamma; the constant ``z_fixed`` when None.  A perturbed re-solve
    started at the unperturbed solution needs fewer sweeps.  With Z frozen
    the map contracts with modulus at most A, so when A < 1 its fixed point
    and the stopping rule do not depend on the start, and two starts give
    solutions within 2 tol A/(1-A) of each other in the weighted sup norm.
    """
    if start is None:
        values = np.full(grid.n_nodes, z_fixed)
    elif start.grid != grid or start.gamma_weight != problem.order.gamma:
        raise GridMismatchError(
            "start must live on the solve grid, in the weight class of the problem"
        )
    else:
        values = start.weighted_values
    return _solve(problem, grid, lambda tail: z_fixed, values, shift, tol, cap)


def residual_fide(u: GridFunction, problem: ProblemSpec) -> float:
    """Weighted sup of D^(alpha,beta) u - F_u over interior nodes.

    Nodes next to both endpoints are excluded: the one-sided stencils of
    the discrete derivative lose accuracy there on weighted data.  On the
    left the excluded band is max(2, N//64) nodes so that the boundary
    layer shrinks with the mesh and the reported residual converges under
    refinement; on the right it is 2 nodes.
    """
    grid = u.grid
    d = hilfer_hadamard_derivative(u, problem.order)
    sweep = _Sweep(problem, grid)
    lo = max(2, grid.n_panels // 64) + 1
    hi = grid.n_panels - 2
    if lo > hi:
        raise DomainError("grid too coarse for an interior residual window")
    f_raw = sweep.rhs_values(u.weighted_limit, u.raw_tail())[1:]
    f_raw *= sweep.to_raw
    # in place, so the residual adds no grid-sized temporaries to the peak
    # memory of a large solve
    weighted = d.raw_tail()
    weighted -= f_raw
    np.abs(weighted, out=weighted)
    weighted *= sweep.to_weighted
    return float(np.max(weighted[lo - 1 : hi]))
