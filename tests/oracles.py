"""Written-out reference computations that several test modules compare against.

Each one spells out, with public operators and plain numpy, a value the
library derives in one place, so a test can pin the library's path bit for
bit without calling it.
"""

import math

import numpy as np

from hhfrac.grids import GridFunction
from hhfrac.hadamard import quadrature_plan, split_leading_mode
from hhfrac.problems import AFFINE, PAPER_EXAMPLE


def value_at_b(f, mu):
    """Raw (I^mu f)(b) through the cached plan's O(N) dot product."""
    grid, gw = f.grid, f.gamma_weight
    plan = quadrature_plan(mu, grid.h, grid.n_panels)
    split = split_leading_mode(f.weighted_values, gw, grid.x_power(gw - 1.0))
    return plan.value_at_b(split, math.log(grid.b))


def reference_implicit_solution(rhs, t, u, shift=0.0):
    """The root z of z = f(t, u, z) + shift, one numpy expression per step.

    For the paper example the root has the sign s of q (+1 at q = 0) and
    |z| is the nonnegative root of w^2 + B w - |q| = 0, taken in the form
    that does not cancel for either sign of B.
    """
    if rhs.kind == PAPER_EXAMPLE:
        c = 1.0 / (t * (2.0 + t))
        q = c * (1.0 + np.abs(u) / (1.0 + np.abs(u))) + shift
        s = np.where(q < 0.0, -1.0, 1.0)
        aq = np.abs(q)
        bq = 1.0 - aq - s * c
        root = np.sqrt(bq * bq + 4.0 * aq)
        w = np.where(bq >= 0.0, 2.0 * aq / (bq + root), 0.5 * (root - bq))
        return s * w
    if rhs.kind == AFFINE:
        p = rhs.params
        return (p["g0"] + p["g1"] * np.log(t) + p["a"] * u + shift) / (1.0 - p["c"])
    # the remaining kinds do not depend on v
    return rhs.evaluate(t, u, 0.0) + shift


def reference_rhs(rhs, order, grid, u, shift=None):
    """F_u = f(t, u, F_u) + shift on u's grid, in weight class gamma.

    The written-out closed-form implicit solve at the raw interior values,
    and the right-hand side's weighted limit (plus the shift's) at 1+.
    """
    g = order.gamma
    s_raw = shift.raw_tail() if shift is not None else 0.0
    s_w0 = shift.weighted_limit if shift is not None else 0.0
    w = np.empty(grid.n_nodes)
    w[0] = rhs.weighted_limit(u.weighted_limit) + s_w0
    w[1:] = reference_implicit_solution(rhs, grid.nodes[1:], u.raw_tail(), s_raw) * (
        grid.log_nodes[1:] ** (1.0 - g)
    )
    return GridFunction(grid, g, w)
