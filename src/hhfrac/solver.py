"""Successive approximation for the implicit boundary-value problem.

The mixed-type integral form of the problem is

    u(t) = Z_u (log t)^(gamma-1) + (I^alpha F_u)(t),
    F_u(t) = f(t, u(t), F_u(t)).

Each Picard sweep applies that map, Q.  It solves for F_u at every node at
once, in closed form per catalog entry (unique because L_f < 1).
``picard_solve`` starts at the constant part and fixes Z by the boundary
data.  It keeps its last solve: a call whose problem, grid, tol and cap
equal the previous call's returns that call's ``(u, report)``, so a caller
that solves a problem and then runs stability experiments on it solves
once.  The memo has one entry and pins one solve.
``solve_with_fixed_constant`` freezes Z at its start's weighted limit: a
perturbed re-solve starts at the unperturbed solution, and an
initial-value solve ``(I^(1-gamma) u)(1+) = u0`` at the critical mode with
coefficient ``u0 / Gamma(gamma)``.  Each returns ``(u, report)``.  The
report's residual, boundary defect and F_u at u cost one more application
of Q; it runs on the first read of any of them, and never when none is
read.

Every entry point, ``apply_Q`` and ``residual_fide`` too, builds one sweep
from its iterate.  The sweep checks the grid, the iterate and any shift
once.  It raises ``GridMismatchError`` for a grid whose b is not the
problem's, and for an iterate, shift or right-hand-side table on another
grid or weight class.
A solve whose iterates overflow raises ``ConvergenceError``.

The sweeps run on weighted numpy arrays, with the per-solve data built
once.  The powers of log t are the grid's (``LogGrid.x_power``), built
once per grid and exponent, so the solves on one grid share them.  A
solve's sweeps reuse two FFT work arrays, built on the first sweep, so a
steady-state sweep allocates no grid-sized transform output.
F_u is split into its leading mode and remainder once per sweep, for both
Z and ``I^alpha F_u``.  The operations are those of the grid-function
operators, in the same order, so a solve is bit for bit what
``hadamard_integral`` and the plan's ``value_at_b`` give sweep by sweep.
"""

from __future__ import annotations

import math
import warnings
from functools import cached_property
from typing import Optional

import numpy as np

from .certificates import uniqueness_constant
from .errors import ConvergenceError, DomainError
from .grids import GridFunction, LogGrid, log_power, require_space
from .hadamard import hilfer_hadamard_derivative, quadrature_plan, split_leading_mode
from .problems import ImplicitRoot, ProblemSpec, SolveReport

DEFAULT_TOL = 1e-10
DEFAULT_CAP = 200
# unused by the solver; perfbench/workloads.py reads it at import
DEFAULT_INNER_CAP = 100

# picard_solve's last call: ((problem, grid, tol, cap), (u, report)), or None
_last_solve = None


class _Sweep:
    """The fixed-point map Q on weighted arrays; it owns one call's inputs.

    Every entry point builds one from its iterate ``u``.  It checks, once
    and in order, the grid's interval, then ``u``, then the shift, then a
    ``custom-table`` right-hand side's table: each must live on the grid,
    in the weight class gamma.  ``role`` names ``u`` in that error.  Z is
    fixed by the boundary data from ``(I^nu F_u)(b)``,
    nu = 1 - gamma + alpha, or, when ``frozen``, held at u's weighted
    limit.  The raw shift, the implicit root and the quadrature plans are
    built here, once, and the FFT work arrays on their first use; the
    powers of x are the grid's (``LogGrid.x_power``).  ``work`` may be
    dropped (set to None), after which the transforms allocate their
    outputs again.
    """

    def __init__(
        self, problem: ProblemSpec, grid: LogGrid, u: GridFunction,
        shift: Optional[GridFunction] = None, frozen: bool = False, role: str = "start",
    ):
        problem.require_interval(grid)
        order = problem.order
        g = order.gamma
        require_space(u, grid, g, role)
        if shift is not None:
            require_space(shift, grid, g, "perturbation")
        if problem.rhs.table is not None:
            require_space(problem.rhs.table, grid, g, "custom-table rhs")
        self.problem, self.rhs, self.gamma, self.grid = problem, problem.rhs, g, grid
        self.root = ImplicitRoot(problem.rhs, grid.nodes[1:])
        self.to_raw = grid.x_power(g - 1.0)
        self.to_weighted = grid.x_power(1.0 - g)
        self.shift_raw = shift.raw_tail() if shift is not None else 0.0
        self.shift_limit = shift.weighted_limit if shift is not None else 0.0
        self.alpha_plan = quadrature_plan(order.alpha, grid.h, grid.n_panels)
        self.log_b = math.log(grid.b)
        self.z = u.weighted_limit if frozen else None
        if not frozen:
            csum = problem.c1 + problem.c2
            self.phi_csum, self.c2_csum = problem.phi / csum, problem.c2 / csum
            self.gamma_g = math.gamma(g)
            self.nu_plan = quadrature_plan(1.0 - g + order.alpha, grid.h, grid.n_panels)

    @cached_property
    def work(self) -> tuple[np.ndarray, np.ndarray]:
        """The FFT work arrays of ``apply``; ``residual_fide`` never builds them."""
        return self.alpha_plan.work_arrays()

    def rhs_values(self, u: np.ndarray) -> np.ndarray:
        """Weighted F_u (class gamma) for the weighted iterate u."""
        w = np.empty(self.grid.n_nodes)
        w[0] = self.rhs.weighted_limit(float(u[0])) + self.shift_limit
        raw = np.multiply(u[1:], self.to_raw, out=w[1:])
        self.root.solve(raw, self.shift_raw, out=raw)
        w[1:] *= self.to_weighted
        return w

    def apply(self, f_values: np.ndarray) -> np.ndarray:
        """Weighted Z (log t)^(gamma-1) + I^alpha F for weighted F values."""
        split = split_leading_mode(f_values, self.gamma, self.to_raw)
        z = self.z
        if z is None:
            tail = self.nu_plan.value_at_b(split, self.log_b)
            z = (self.phi_csum - self.c2_csum * tail) / self.gamma_g
        u_next = self.alpha_plan.weighted_integral(split, self.grid, self.work)
        u_next += z
        return u_next

    def bc_defect(self, u: np.ndarray, f_values: np.ndarray) -> float:
        """|c1 (I^(1-gamma) u)(1+) + c2 (I^(1-gamma) u)(b-) - phi| for weighted u and F_u.

        The value at 1+ is Gamma(gamma) times the weighted limit; the
        integral part vanishes there because it gains a positive log-power.

        The solution carries an F(1+)/Gamma(alpha+1) (log t)^alpha mode whose
        second integration the product rule resolves only at order 1 + alpha.
        That mode's coefficient is estimated from F_u's first nodes, and the
        mode is subtracted from u and integrated in closed form, which keeps
        the reported defect at the smooth-data level.  When F(1+) = 0 the
        correction moves only the signs of zeros, which the final ``abs``
        erases.
        """
        problem, g = self.problem, self.gamma
        alpha = problem.order.alpha
        at_one = math.gamma(g) * float(u[0])
        correction = 0.0
        if self.grid.n_panels >= 3:
            # a Python float, so a product that overflows is inf without a numpy warning
            f_at_one = float(split_leading_mode(f_values[:4], g, self.to_raw[:3]).g0)
            mode_coeff = f_at_one / math.gamma(alpha + 1.0)
            u = u.copy()
            # read once per report, so not kept on the grid
            u[1:] -= mode_coeff * self.grid.log_nodes[1:] ** (1.0 - g + alpha)
            correction = (
                f_at_one / math.gamma(2.0 + alpha - g) * self.log_b ** (1.0 + alpha - g)
            )
        plan = quadrature_plan(1.0 - g, self.grid.h, self.grid.n_panels)
        at_b = plan.value_at_b(split_leading_mode(u, g, self.to_raw), self.log_b) + correction
        return float(abs(problem.c1 * at_one + problem.c2 * at_b - problem.phi))


def apply_Q(u: GridFunction, problem: ProblemSpec) -> GridFunction:
    """One application of the fixed-point operator of the mixed-type equation."""
    sweep = _Sweep(problem, u.grid, u, role="u")
    f_values = sweep.rhs_values(u.weighted_values)
    return GridFunction(u.grid, problem.order.gamma, sweep.apply(f_values))


def _solve(
    problem: ProblemSpec, grid: LogGrid, start: GridFunction,
    shift: Optional[GridFunction], tol: float, cap: int, frozen: bool,
):
    """Iterate u <- Z (log t)^(gamma-1) + I^alpha F_u until the increment drops.

    ``start`` is the first iterate.  ``frozen`` holds Z at its weighted
    limit; otherwise the boundary data fix Z.  ``shift`` is added to the
    right-hand side.  Returns (u, report); the report's residual, boundary
    defect and F_u come from one more application at u on their first read.
    The map does not depend on the start, so a start nearer its fixed
    point changes only the number of sweeps: a contraction of modulus A
    stops within tol A/(1-A) of the fixed point from any start.  A sweep
    whose increment is not finite ends the solve in ``ConvergenceError``;
    numpy's overflow warnings on the way there are silenced.
    """
    if cap < 1 or not 0.0 < tol < math.inf:
        raise DomainError(
            f"need cap >= 1 and a finite tol > 0, got cap={cap!r}, tol={tol!r}"
        )
    sweep = _Sweep(problem, grid, start, shift, frozen)
    u = start.weighted_values

    def step(u):
        """(F_u, Q u, sup |Q u - u|) on weighted arrays."""
        f_values = sweep.rhs_values(u)
        u_next = sweep.apply(f_values)
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
    solution = GridFunction(grid, sweep.gamma, u)
    # an unread report must not pin the work arrays
    sweep.work = None

    def finish():
        """Residual against one more application of Q; its F_u is the
        right-hand side at the returned iterate."""
        u = solution.weighted_values
        f_values, _, residual = step(u)
        return residual, sweep.bc_defect(u, f_values), GridFunction(grid, sweep.gamma, f_values)

    return solution, SolveReport(
        iterations=len(history), final_update_norm=history[-1], finish=finish,
    )


def picard_solve(
    problem: ProblemSpec, grid: LogGrid,
    tol: float = DEFAULT_TOL, cap: int = DEFAULT_CAP,
):
    """Solve the boundary-value problem; returns (solution, report).

    The starting iterate is the constant part, a critical mode (exact
    when F = 0).  A contraction modulus >= 1 only triggers a
    warning, on every call: the iteration may still converge, and
    existence can hold without uniqueness.

    A call whose arguments equal the previous call's returns the same
    ``(solution, report)`` pair without solving again.  Equal means equal
    by value and with the same repr, so that -0.0 and 0.0 differ; a
    ``custom-table`` right-hand side compares its table by identity.  One
    entry is kept, so at most one solve stays pinned, and a solve that
    raises is not kept.  Sharing is safe: grid functions are read-only,
    and a report finishes once.
    """
    global _last_solve
    a_const = uniqueness_constant(problem)
    if a_const >= 1.0:
        warnings.warn(
            f"contraction constant {a_const:.4g} >= 1; successive approximation "
            "may diverge", stacklevel=2
        )
    key = (problem, grid, tol, cap)
    last = _last_solve
    if last is not None and last[0] == key and repr(last[0]) == repr(key):
        return last[1]
    g = problem.order.gamma
    z0 = problem.phi / ((problem.c1 + problem.c2) * math.gamma(g))
    result = _solve(problem, grid, log_power(grid, g, g - 1.0, z0), None, tol, cap, frozen=False)
    _last_solve = (key, result)
    return result


def solve_with_fixed_constant(
    problem: ProblemSpec, grid: LogGrid, start: GridFunction,
    shift: Optional[GridFunction] = None,
    tol: float = DEFAULT_TOL, cap: int = DEFAULT_CAP,
):
    """Solve from ``start`` with the (log t)^(gamma-1) coefficient frozen at its weighted limit.

    A perturbed re-solve starts at the unperturbed solution, so both share
    its weighted limit at 1+; an initial-value solve
    ``(I^(1-gamma) u)(1+) = u0`` starts at the critical mode
    ``log_power(grid, gamma, gamma - 1, u0 / Gamma(gamma))``.  ``start``
    must live on ``grid`` in the weight class gamma.  ``shift`` is an
    additive perturbation h(t) of the right-hand side, as a grid function
    in the same class; the report's ``F_u`` then includes it.  With Z
    frozen the map contracts with modulus at most A, so when A < 1 two
    starts with the same weighted limit share the fixed point and give
    solutions within 2 tol A/(1-A) of each other in the weighted sup norm.
    """
    return _solve(problem, grid, start, shift, tol, cap, frozen=True)


def residual_fide(u: GridFunction, problem: ProblemSpec) -> float:
    """Weighted sup of D^(alpha,beta) u - F_u over interior nodes.

    Nodes next to both endpoints are excluded: the one-sided stencils of
    the discrete derivative lose accuracy there on weighted data.  On the
    left the excluded band is max(2, N//64) nodes so that the boundary
    layer shrinks with the mesh and the reported residual converges under
    refinement; on the right it is 2 nodes.
    """
    grid = u.grid
    sweep = _Sweep(problem, grid, u, role="u")
    lo = max(2, grid.n_panels // 64) + 1
    hi = grid.n_panels - 2
    if lo > hi:
        raise DomainError("grid too coarse for an interior residual window")
    d = hilfer_hadamard_derivative(u, problem.order)
    f_raw = sweep.rhs_values(u.weighted_values)[1:]
    f_raw *= sweep.to_raw
    # in place, so the residual adds no grid-sized temporaries to the peak
    # memory of a large solve
    weighted = d.raw_tail()
    weighted -= f_raw
    np.abs(weighted, out=weighted)
    weighted *= sweep.to_weighted
    return float(np.max(weighted[lo - 1 : hi]))
