"""The Hadamard derivatives against their earlier, composed forms.

Two references, each of which must give the same weight class and the
same values bit for bit as the library, or raise the same error with the
same message:

* the two-mode-split Hilfer-Hadamard derivative, which treats the leading
  weighted mode in closed form and adds it to the order-alpha Hadamard
  derivative of the remainder (the library peels only the critical mode,
  which lies in the operator's kernel);
* the step-by-step composition of both derivatives from grid functions:
  the remainder, ``hadamard_integral(., 1 - mu)``, the second-order
  difference and product rule of t d/dt, and the re-weighting (the library
  splits once and stays on arrays until the result).
"""

import numpy as np
import pytest

from hhfrac.errors import DomainError
from hhfrac.grids import GridFunction, LogGrid, Order
from hhfrac.hadamard import (
    _TOL,
    hadamard_derivative,
    hadamard_integral,
    hilfer_hadamard_derivative,
)
from hhfrac.specfun import gamma_ratio


def remainder(f):
    """f minus its leading weighted mode, as a grid function."""
    rem = f.weighted_values - f.weighted_limit
    rem[0] = 0.0
    return GridFunction(f.grid, f.gamma_weight, rem)


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

    d_rem = hadamard_derivative(remainder(f), alpha)
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


def composed_log_derivative(f):
    """t d/dt through the weighted profile V: V' + (gw-1) V / x, with V'
    from second-order central differences, one-sided at both ends."""
    grid, gw = f.grid, f.gamma_weight
    h, x, v = grid.h, grid.log_nodes, f.weighted_values
    n = v.shape[0]
    if n < 3:
        raise DomainError("derivative stencils need at least 3 grid nodes")
    vp = np.empty(n)
    vp[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    vp[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    vp[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    out = np.empty(n)
    out[1:] = vp[1:] + (gw - 1.0) * v[1:] / x[1:]
    out[0] = gw * vp[0]
    return GridFunction(grid, gw, out)


def composed_hadamard_derivative(f, mu):
    """Remainder, I^(1-mu), t d/dt and re-weighting, each a grid function."""
    if not 0.0 < mu < 1.0:
        raise DomainError(f"hadamard_derivative requires mu in (0, 1), got {mu!r}")
    grid, gw, w0 = f.grid, f.gamma_weight, f.weighted_limit
    x = grid.log_nodes
    if w0 != 0.0:
        if gw == 0.0:
            raise DomainError("weight class 0 admits no nonzero limit mode")
        if gw - mu < -_TOL:
            raise DomainError(
                f"derivative of the (log t)^({gw}-1) mode of order {mu} leaves "
                "every representable weight class"
            )
    s_coeff = w0 * gamma_ratio(gw, mu) if w0 != 0.0 else 0.0
    drem = composed_log_derivative(hadamard_integral(remainder(f), 1.0 - mu))
    g_out = gw - mu
    g_out = 0.0 if g_out < 0.0 else min(g_out, 1.0 - _TOL)
    out = np.empty(grid.n_nodes)
    out[1:] = drem.weighted_values[1:] * x[1:] ** (gw - g_out)
    if s_coeff != 0.0:
        out[1:] += s_coeff * x[1:] ** (gw - mu - g_out)
    out[0] = s_coeff if abs(g_out - (gw - mu)) <= _TOL else 0.0
    return GridFunction(grid, g_out, out)


def composed_hilfer_derivative(f, order):
    alpha, go = order.alpha, order.gamma
    if order.beta_type != 0.0 and f.weighted_limit != 0.0:
        gw = f.gamma_weight
        if gw == 0.0:
            raise DomainError("weight class 0 admits no nonzero limit mode")
        if gw < go - _TOL:
            raise DomainError(
                f"the (log t)^({gw}-1) mode lies below the critical exponent "
                f"{go} - 1; its Hilfer-Hadamard derivative does not exist"
            )
        if abs(gw - go) <= _TOL:
            f = remainder(f)
    return composed_hadamard_derivative(f, alpha)


COMPOSED_PANELS = (1, 2, 3, 5, 64, 512)
COMPOSED_MUS = (0.05, 0.2, 1.0 / 3.0, 0.4, 0.5, 2.0 / 3.0, 0.75, 0.8, 0.95)
COMPOSED_BETAS = (0.0, 0.3, 2.0 / 3.0, 1.0)
COMPOSED_CLASSES = (0.0, 0.2, 0.4, 0.5, 0.8, 0.95)
COMPOSED_LIMITS = (0.0, 1.3, -0.4)


def composed_cases(n_panels):
    """(library, reference, f, order or mu) over classes, limits and orders;
    the Hilfer cases add each order's critical class."""
    grid = LogGrid(1.7, n_panels)
    x = grid.log_nodes

    def functions(classes):
        for gw in classes:
            for w0 in COMPOSED_LIMITS:
                w = w0 + np.sin(3.0 * x) + 0.5 * x**2
                w[0] = w0
                yield GridFunction(grid, gw, w)

    for mu in COMPOSED_MUS:
        for f in functions(COMPOSED_CLASSES):
            yield hadamard_derivative, composed_hadamard_derivative, f, mu
        for beta in COMPOSED_BETAS:
            order = Order(mu, beta)
            critical = (order.gamma,) if order.gamma < 1.0 else ()
            for f in functions(COMPOSED_CLASSES + critical):
                yield hilfer_hadamard_derivative, composed_hilfer_derivative, f, order


@pytest.mark.parametrize("n_panels", COMPOSED_PANELS)
def test_derivatives_match_composition(n_panels):
    for derivative, reference, f, arg in composed_cases(n_panels):
        expected = outcome(reference, f, arg)
        assert outcome(derivative, f, arg) == expected, (
            derivative.__name__, f.gamma_weight, f.weighted_limit, arg,
        )


ERROR_KINDS = ("stencils", "weight class 0", "leaves every", "below the critical")


def test_composition_cases_cover_values_and_every_error():
    kinds = set()
    for n_panels in (1, 5):
        for _, reference, f, arg in composed_cases(n_panels):
            result = outcome(reference, f, arg)
            if isinstance(result[0], str):
                kinds.add(next(k for k in ERROR_KINDS if k in result[1]))
            else:
                kinds.add("value")
    assert kinds == {"value", *ERROR_KINDS}
