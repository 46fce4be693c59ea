"""Problem data: right-hand-side catalog, boundary-value problem, solve report.

Right-hand sides come from a fixed catalog rather than an expression parser
so that the Lipschitz and growth metadata attached to each entry stay honest
and testable.  Every entry evaluates f(t, u, v) elementwise on numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError
from .grids import GridFunction, LogGrid, Order, log_power

PAPER_EXAMPLE = "paper-example"
MANUFACTURED = "manufactured-log-power"
AFFINE = "affine-in-uv"
CUSTOM_TABLE = "custom-table"

_KINDS = (PAPER_EXAMPLE, MANUFACTURED, AFFINE, CUSTOM_TABLE)


@dataclass(frozen=True)
class RhsSpec:
    """A catalog right-hand side with its growth/Lipschitz metadata.

    K_f and L_f bound |f(t,u,v) - f(t,u',v')| by K_f|u-u'| + L_f|v-v'|;
    delta_star, sigma_star, rho_star bound |f| by
    delta* + sigma*|u| + rho*|v|.  L_f < 1 and rho_star < 1 are required
    (they sit in denominators downstream).
    """

    kind: str
    K_f: float
    L_f: float
    delta_star: float
    sigma_star: float
    rho_star: float
    params: dict = field(default_factory=dict)
    table: Optional[GridFunction] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown rhs kind {self.kind!r}")
        if not 0.0 <= self.L_f < 1.0:
            raise DomainError(f"L_f must lie in [0, 1), got {self.L_f!r}")
        if self.K_f < 0.0:
            raise DomainError(f"K_f must be >= 0, got {self.K_f!r}")
        if not 0.0 <= self.rho_star < 1.0:
            raise DomainError(f"rho_star must lie in [0, 1), got {self.rho_star!r}")
        if self.delta_star < 0.0 or self.sigma_star < 0.0:
            raise DomainError("growth coefficients must be nonnegative")
        if not all(map(math.isfinite, (self.K_f, self.delta_star, self.sigma_star))):
            raise DomainError("rhs constants K_f, delta_star and sigma_star must be finite")

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, t, u, v):
        """f(t, u, v), elementwise over numpy arrays or scalars."""
        if self.kind == PAPER_EXAMPLE:
            c = 1.0 / (t * (2.0 + t))
            su = np.abs(u) / (1.0 + np.abs(u))
            sv = np.abs(v) / (1.0 + np.abs(v))
            return c * (1.0 + su + sv)
        if self.kind == MANUFACTURED:
            return self.params["f_coeff"] * np.log(t) ** self.params["f_exponent"] + 0.0 * u
        if self.kind == AFFINE:
            p = self.params
            return p["g0"] + p["g1"] * np.log(t) + p["a"] * u + p["c"] * v
        # custom table: weighted profile interpolated in x = log t
        x = np.log(t)
        xs = self.table.grid.log_nodes
        w = np.interp(x, xs, self.table.weighted_values)
        return w * x ** (self.table.gamma_weight - 1.0) + 0.0 * u

    def weighted_limit(self, u_weighted_limit: float, gamma: float) -> float:
        """lim_{t->1+} (log t)^(1-gamma) F_u(t) for u with the given weighted limit."""
        if self.kind == AFFINE:
            return self.params["a"] * u_weighted_limit / (1.0 - self.params["c"])
        if self.kind == CUSTOM_TABLE:
            return self.table.weighted_limit
        return 0.0


class ImplicitRoot:
    """The root z of z = f(t, u, z) + shift at fixed nodes t, in closed form for every kind.

    The part that depends on t alone is built once: 1/(t(2+t)) for the
    paper example, g0 + g1 log t for the affine entry.  A solve that
    sweeps the same nodes many times builds one and calls :meth:`solve`
    per sweep.

    For the paper example z = q + P |z|/(1+|z|) with P = 1/(t(2+t)) and
    q = P (1 + |u|/(1+|u|)) + shift.  The root has the sign s of q
    (+1 at q = 0), and w = |z| is the nonnegative root of
    w^2 + B w - |q| = 0 with B = 1 - |q| - s P, taken in the form that
    does not cancel for either sign of B.
    """

    def __init__(self, rhs: RhsSpec, t):
        self.rhs, self.t = rhs, t
        if rhs.kind == PAPER_EXAMPLE:
            self.grid_part = 1.0 / (t * (2.0 + t))
        elif rhs.kind == AFFINE:
            self.grid_part = rhs.params["g0"] + rhs.params["g1"] * np.log(t)

    def solve(self, u, shift=0.0, out=None):
        """z at the nodes for raw values u; written into ``out`` when given."""
        kind = self.rhs.kind
        if kind == PAPER_EXAMPLE:
            c = self.grid_part
            aq = np.abs(u)
            q = aq + 1.0
            np.divide(aq, q, out=q)
            q += 1.0
            q *= c
            q += shift
            np.abs(q, out=aq)
            # copysign(P, q) is s P and copysign(w, q) is s w: with P >= 0
            # the sum q is never -0.0
            bq = 1.0 - aq
            bq -= np.copysign(c, q)
            root = bq * bq
            root += 4.0 * aq
            np.sqrt(root, out=root)
            w = root - bq
            w *= 0.5
            aq *= 2.0
            np.add(bq, root, out=root)
            # w = 2|q|/(B + root) where B >= 0, (root - B)/2 elsewhere
            np.divide(aq, root, out=w, where=bq >= 0.0)
            return np.copysign(w, q, out=out)
        if kind == AFFINE:
            p = self.rhs.params
            z = np.multiply(u, p["a"], out=out)
            z += self.grid_part
            z += shift
            z /= 1.0 - p["c"]
            return z
        # the remaining kinds do not depend on v
        return np.add(self.rhs.evaluate(self.t, u, 0.0), shift, out=out)


def _require_finite(**params):
    for name, value in params.items():
        if not math.isfinite(value):
            raise DomainError(f"rhs parameter {name} must be finite, got {value!r}")


def paper_example_rhs() -> RhsSpec:
    """f(t,u,v) = (1/(t(2+t))) [1 + |u|/(1+|u|) + |v|/(1+|v|)] on [1, e].

    The prefactor has supremum 1/3 at t = 1 and the saturations are
    1-Lipschitz, so K_f = L_f = 1/3 and delta* = sigma* = rho* = 1/3.
    """
    third = 1.0 / 3.0
    return RhsSpec(
        kind=PAPER_EXAMPLE,
        K_f=third, L_f=third,
        delta_star=third, sigma_star=third, rho_star=third,
    )


def manufactured_rhs(
    order: Order, b: float, exponent: float = 2.0,
    coeff: float = 1.0, critical_coeff: float = 0.0,
) -> RhsSpec:
    """Right-hand side manufactured from u*(t) = critical_coeff (log t)^(gamma-1)
    + coeff (log t)^exponent.

    The critical mode is annihilated by the derivative, so
    f(t) = coeff Gamma(p+1)/Gamma(p+1-alpha) (log t)^(p-alpha), independent
    of u and v (K_f = L_f = 0).
    """
    _require_finite(exponent=exponent, coeff=coeff, critical_coeff=critical_coeff)
    p = exponent
    if p < 1.0:
        raise DomainError(f"manufactured exponent must be >= 1, got {p!r}")
    try:
        f_coeff = coeff * math.gamma(p + 1.0) / math.gamma(p + 1.0 - order.alpha)
        delta = abs(f_coeff) * math.log(b) ** (p - order.alpha)
    except OverflowError:
        f_coeff = delta = math.inf
    if not math.isfinite(delta):
        raise DomainError(
            f"manufactured rhs with exponent {p!r} and coeff {coeff!r} "
            "overflows double precision"
        )
    return RhsSpec(
        kind=MANUFACTURED,
        K_f=0.0, L_f=0.0,
        delta_star=delta, sigma_star=0.0, rho_star=0.0,
        params={
            "f_coeff": f_coeff,
            "f_exponent": p - order.alpha,
            "u_coeff": coeff,
            "u_exponent": p,
            "u_critical_coeff": critical_coeff,
        },
    )


def affine_rhs(g0: float, g1: float, a: float, c: float, b: float) -> RhsSpec:
    """f(t,u,v) = g0 + g1 log t + a u + c v with |c| < 1."""
    _require_finite(g0=g0, g1=g1, a=a)
    if not abs(c) < 1.0:
        raise DomainError(f"affine rhs needs |c| < 1, got {c!r}")
    logb = math.log(b)
    delta = max(abs(g0), abs(g0 + g1 * logb))
    return RhsSpec(
        kind=AFFINE,
        K_f=abs(a), L_f=abs(c),
        delta_star=delta, sigma_star=abs(a), rho_star=abs(c),
        params={"g0": g0, "g1": g1, "a": a, "c": c},
    )


def table_rhs(table: GridFunction) -> RhsSpec:
    """f(t,u,v) = T(t) given by a weighted table on a grid (u,v ignored)."""
    delta = float(np.max(np.abs(table.raw_tail())))
    return RhsSpec(
        kind=CUSTOM_TABLE,
        K_f=0.0, L_f=0.0,
        delta_star=delta, sigma_star=0.0, rho_star=0.0,
        table=table,
    )


@dataclass(frozen=True)
class ProblemSpec:
    """Boundary-value problem data on [1, b]."""

    order: Order
    b: float
    c1: float
    c2: float
    phi: float
    rhs: RhsSpec

    def __post_init__(self):
        if not 1.0 < self.b < math.inf:
            raise DomainError(f"problem requires a finite b > 1, got {self.b!r}")
        for name in ("c1", "c2", "phi"):
            if not math.isfinite(value := getattr(self, name)):
                raise DomainError(f"problem requires a finite {name}, got {value!r}")
        if self.c1 + self.c2 == 0.0:
            raise DomainError("boundary condition requires c1 + c2 != 0")
        if self.c2 == 0.0:
            raise DomainError("boundary condition requires c2 != 0")


def paper_example_problem(phi: float = 1.0) -> ProblemSpec:
    """The saturating implicit problem with alpha=1/3, beta=2/3, c1=2, c2=1, b=e.

    The boundary value phi is a free parameter; 1 is the default used by the
    CLI.  It enters lambda_cap and the ball radius through |phi/(c1+c2)|,
    and no other constant.
    """
    order = Order(alpha=1.0 / 3.0, beta_type=2.0 / 3.0)
    return ProblemSpec(
        order=order, b=math.e, c1=2.0, c2=1.0, phi=phi, rhs=paper_example_rhs()
    )


def manufactured_problem(
    order: Order, b: float, c1: float, c2: float,
    exponent: float = 2.0, coeff: float = 1.0, critical_coeff: float = 0.0,
) -> ProblemSpec:
    """Problem whose exact solution is known; phi is chosen consistently.

    For u* = a_c (log t)^(gamma-1) + a (log t)^p the boundary functional is
    c1 (I^(1-gamma) u*)(1+) + c2 (I^(1-gamma) u*)(b-)
      = (c1 + c2) a_c Gamma(gamma)
        + c2 a Gamma(p+1)/Gamma(p+2-gamma) (log b)^(p+1-gamma).
    """
    rhs = manufactured_rhs(order, b, exponent, coeff, critical_coeff)
    g = order.gamma
    logb = math.log(b)
    phi = (c1 + c2) * critical_coeff * math.gamma(g) + c2 * coeff * (
        math.gamma(exponent + 1.0)
        / math.gamma(exponent + 2.0 - g)
        * logb ** (exponent + 1.0 - g)
    )
    return ProblemSpec(order=order, b=b, c1=c1, c2=c2, phi=phi, rhs=rhs)


def manufactured_solution(problem: ProblemSpec, grid: LogGrid) -> GridFunction:
    """Exact solution of a manufactured problem as a grid function."""
    if problem.rhs.kind != MANUFACTURED:
        raise DomainError("exact solution is only known for manufactured problems")
    p = problem.rhs.params
    g = problem.order.gamma
    return log_power(grid, g, g - 1.0, p["u_critical_coeff"]) + log_power(
        grid, g, p["u_exponent"], p["u_coeff"]
    )


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a successive-approximation solve.

    ``F_u`` is the implicit right-hand side at the returned iterate, in the
    solution's weight class.  ``inner_iteration_max`` is always 1: every
    catalog entry solves its implicit equation in one closed-form step.
    """

    iterations: int
    final_update_norm: float
    residual_norm: float
    bc_defect: float
    inner_iteration_max: int
    F_u: GridFunction

    def __post_init__(self):
        if self.iterations < 0 or self.inner_iteration_max < 0:
            raise ValueError("iteration counts must be nonnegative")
        for name in ("final_update_norm", "residual_norm", "bc_defect"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
