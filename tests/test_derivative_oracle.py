"""The Hilfer-Hadamard derivative against its earlier two-mode-split form.

The reference below treats the leading weighted mode in closed form and
adds it to the order-alpha Hadamard derivative of the remainder.  The
library instead differentiates the whole function with
``hadamard_derivative`` and peels only the critical mode, which lies in
the operator's kernel.  Both must give the same weight class and the same
values bit for bit, or raise the same error with the same message.
"""

import numpy as np
import pytest

from hhfrac.errors import DomainError
from hhfrac.grids import GridFunction, LogGrid, Order
from hhfrac.hadamard import (
    _TOL,
    _remainder,
    hadamard_derivative,
    hilfer_hadamard_derivative,
)
from hhfrac.specfun import gamma_ratio


def reference_hilfer_derivative(f, order):
    alpha, beta_t, go = order.alpha, order.beta_type, order.gamma
    if beta_t == 0.0:
        return hadamard_derivative(f, alpha)
    grid = f.grid
    gw = f.gamma_weight
    w0 = f.weighted_limit

    s_coeff = 0.0
    if w0 != 0.0:
        if gw == 0.0:
            raise DomainError("weight class 0 admits no nonzero limit mode")
        if gw < go - _TOL:
            raise DomainError(
                f"the (log t)^({gw}-1) mode lies below the critical exponent "
                f"{go} - 1; its Hilfer-Hadamard derivative does not exist"
            )
        if abs(gw - go) > _TOL:
            s_coeff = w0 * gamma_ratio(gw, alpha)

    d_rem = hadamard_derivative(_remainder(f), alpha)
    if s_coeff == 0.0:
        return d_rem
    return GridFunction(grid, d_rem.gamma_weight, d_rem.weighted_values + s_coeff)


def outcome(derivative, f, order):
    """(weight class, value bytes) of the result, or the error's type and message."""
    try:
        d = derivative(f, order)
    except DomainError as exc:
        return type(exc).__name__, str(exc)
    return d.gamma_weight, d.weighted_values.tobytes()


def branch(f, order):
    """Which case of the reference an input takes."""
    if order.beta_type == 0.0:
        return "beta-0"
    if f.weighted_limit == 0.0:
        return "no-mode"
    gw, go = f.gamma_weight, order.gamma
    if gw == 0.0:
        return "class-0-mode"
    if gw < go - _TOL:
        return "below-critical"
    if abs(gw - go) <= _TOL:
        return "critical" if gw == go else "near-critical"
    return "above-critical"


BETAS = (0.0, 1e-15, 0.3, 2.0 / 3.0, 1.0)
ALPHAS = (0.2, 0.5, 0.8)
LIMITS = (0.0, 1.3, -0.7)


def inputs(n_panels, beta):
    grid = LogGrid(1.7, n_panels)
    x = grid.log_nodes
    for alpha in ALPHAS:
        order = Order(alpha, beta)
        go = order.gamma
        for gw in (0.0, go, go - 1e-13, alpha, 0.5, 0.95):
            if not 0.0 <= gw < 1.0:
                continue
            for w0 in LIMITS:
                w = w0 + np.sin(3.0 * x) + 0.5 * x**2
                w[0] = w0
                yield GridFunction(grid, gw, w), order


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("n_panels", [1, 2, 5, 64])
def test_derivative_matches_reference(n_panels, beta):
    for f, order in inputs(n_panels, beta):
        expected = outcome(reference_hilfer_derivative, f, order)
        assert outcome(hilfer_hadamard_derivative, f, order) == expected, (
            f.gamma_weight, f.weighted_limit, order,
        )


def test_every_branch_is_exercised():
    seen = set()
    for beta in BETAS:
        for f, order in inputs(5, beta):
            raised = isinstance(outcome(reference_hilfer_derivative, f, order)[0], str)
            seen.update((branch(f, order), ("raises", raised)))
    assert seen == {
        "beta-0", "no-mode", "class-0-mode", "below-critical", "critical",
        "near-critical", "above-critical", ("raises", True), ("raises", False),
    }
