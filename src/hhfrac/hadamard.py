"""Discrete Hadamard fractional calculus on weighted log-uniform grids.

In the log variable x = log t every Hadamard integral turns into a
Riemann-Liouville convolution ``(1/Gamma(mu)) int_0^x (x-s)^(mu-1) g(s) ds``.
The quadrature splits each grid function into its leading weighted mode
``w_0 (log t)^(gamma-1)``, which is transformed in closed form, plus a
remainder with bounded raw values that is integrated with the
product-trapezoidal rule (piecewise-linear data, exact kernel moments per
panel).  The split is an exact rearrangement, so it never changes what is
being computed, but it removes the endpoint singularity from the quadrature
and makes pure log-powers exact.

On the log-uniform grid the product-trapezoidal rule is a Toeplitz
convolution of the remainder with lag-indexed weights.  The full integral
evaluates it with a zero-padded real FFT in O(N log N); the value at b
alone is one dot product with the reversed weights, O(N).  Both start
from the same split and extrapolation, so they agree to roundoff.

The logarithmic derivative t d/dt is a second-order finite difference in x
applied to the weighted profile, with the raw derivative reconstructed from
the product rule ``u' = (V' + (gamma-1) V / x) x^(gamma-1)`` so that node 0
never enters a stencil through an unbounded raw value.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .grids import GridFunction, Order
from .specfun import gamma_ratio

_TOL = 1e-12


@lru_cache(maxsize=128)
def _panel_weights(mu: float, h: float, n_panels: int):
    """Convolution weights of the product-trapezoidal rule.

    For the lag k = i - j the exact kernel moments over one panel are

        M0_k = int_{(k-1)h}^{kh} u^(mu-1) du,
        M1_k = int over the same panel of (kh - u) u^(mu-1) du,

    giving the left/right endpoint weights A_k = M0_k - M1_k / h and
    B_k = M1_k / h.  ``D`` collects the total weight multiplying g_m in the
    value at node i as D_{i-m} (m >= 1); ``A`` is kept for the g_0 term.
    """
    k = np.arange(1, n_panels + 1, dtype=float)
    km, kmm = k**mu, (k - 1.0) ** mu
    diff = km - kmm
    m0 = h**mu * diff / mu
    m1 = h ** (mu + 1.0) * (k * diff / mu - (k ** (mu + 1.0) - (k - 1.0) ** (mu + 1.0)) / (mu + 1.0))
    a = m0 - m1 / h
    b = m1 / h
    d = np.empty(n_panels)
    d[0] = b[0]
    d[1:] = a[:-1] + b[1:]
    a.setflags(write=False)
    d.setflags(write=False)
    return a, d


def _split_limit(f: GridFunction):
    """Peel off the leading weighted mode: f = w0 (log t)^(gamma-1) + remainder."""
    w0 = f.weighted_limit
    rem = np.array(f.weighted_values)
    rem -= w0
    rem[0] = 0.0
    return w0, rem


def _remainder(f: GridFunction) -> GridFunction:
    """The function minus its leading weighted mode."""
    _, rem = _split_limit(f)
    return GridFunction(f.grid, f.gamma_weight, rem)


def _integrand(f: GridFunction, mu: float):
    """Quadrature data shared by the full integral and its endpoint value.

    Returns ``(x, g, g0, mode)``: the log nodes, the raw remainder at nodes
    1..N, its extrapolated origin value, and the coefficient of (log t)^mu
    in the weighted image of the leading mode (0 when there is no such
    mode).
    """
    if not mu > 0.0:
        raise DomainError(f"hadamard_integral requires mu > 0, got {mu!r}")
    gw = f.gamma_weight
    x = f.grid.log_nodes
    w0, rem = _split_limit(f)
    if w0 != 0.0 and gw == 0.0:
        raise DomainError(
            "weight class 0 with a nonzero limit encodes a (log t)^(-1) mode, "
            "which is not Hadamard integrable"
        )
    # remainder in raw form; its origin value is the limit of
    # (V(s) - V(0)) s^(gamma-1), which vanishes for profiles smoother than
    # s^(1-gamma) but is finite for bounded data stored in a positive
    # class.  Quadratic extrapolation recovers it (exactly on pure
    # log-power families) and its intercept also absorbs most of the
    # first-panel chord error on power-kinked data.
    g = rem[1:] * x[1:] ** (gw - 1.0)
    if g.shape[0] >= 3:
        g0 = 3.0 * g[0] - 3.0 * g[1] + g[2]
    elif g.shape[0] == 2:
        g0 = 2.0 * g[0] - g[1]
    else:
        g0 = g[0]
    mode = w0 * math.exp(math.lgamma(gw) - math.lgamma(gw + mu)) if w0 != 0.0 else 0.0
    return x, g, g0, mode


def hadamard_integral(f: GridFunction, mu: float) -> GridFunction:
    """Left Hadamard fractional integral of order mu > 0, same weight class.

    The node-0 weighted output is exactly 0: the integral of anything in the
    input's weight class gains a positive power of log t, so its weighted
    limit at 1+ vanishes.
    """
    x, g, g0, mode = _integrand(f, mu)
    grid = f.grid
    n = grid.n_panels
    a, d = _panel_weights(mu, grid.h, n)
    # linear convolution of g with d through a zero-padded real FFT of
    # length >= 2N - 1, so no wrap-around reaches the first N outputs
    size = 1 << (2 * n - 2).bit_length()
    spectrum = np.fft.rfft(g, size)
    spectrum *= np.fft.rfft(d, size)
    raw = np.fft.irfft(spectrum, size)[:n]
    raw += g0 * a
    raw /= math.gamma(mu)

    gw = f.gamma_weight
    out = np.zeros(grid.n_nodes)
    out[1:] = raw * x[1:] ** (1.0 - gw)
    if mode != 0.0:
        out[1:] += mode * x[1:] ** mu
    return GridFunction(grid, gw, out)


def _profile_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order d/dx: central stencils inside, one-sided at both ends."""
    n = values.shape[0]
    if n < 3:
        raise DomainError("derivative stencils need at least 3 grid nodes")
    out = np.empty(n)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return out


def log_derivative(f: GridFunction) -> GridFunction:
    """The operator t d/dt applied through the weighted profile.

    With u = V(x) x^(gamma-1) the raw derivative is
    V'(x) x^(gamma-1) + (gamma-1) V(x) x^(gamma-2); re-weighting gives
    V' + (gamma-1) V / x, whose limit at 0 is gamma V'(0) when V(0) = 0.
    """
    grid = f.grid
    gw = f.gamma_weight
    x = grid.log_nodes
    v = f.weighted_values
    vp = _profile_derivative(v, grid.h)
    out = np.empty(grid.n_nodes)
    out[1:] = vp[1:] + (gw - 1.0) * v[1:] / x[1:]
    # valid weighted limit when V(0) = 0; otherwise only the regular part
    # (callers peel the singular mode before differentiating)
    out[0] = gw * vp[0]
    return GridFunction(grid, gw, out)


def _output_class(gw: float, drop: float) -> float:
    """Weight class of a derivative result: gw - drop, clamped at 0."""
    g_out = gw - drop
    if g_out < 0.0:
        return 0.0
    return min(g_out, 1.0 - _TOL)


def hadamard_derivative(f: GridFunction, mu: float) -> GridFunction:
    """Hadamard fractional derivative of order mu in (0, 1).

    Computed as (t d/dt) I^(1-mu) f after peeling the leading mode, whose
    derivative Gamma(gw)/Gamma(gw-mu) (log t)^(gw-mu-1) is known in closed
    form (zero at the pole gw = mu).  The result is returned in weight class
    gw - mu, where that leading term has a finite weighted limit.
    """
    if not 0.0 < mu < 1.0:
        raise DomainError(f"hadamard_derivative requires mu in (0, 1), got {mu!r}")
    grid = f.grid
    gw = f.gamma_weight
    x = grid.log_nodes
    w0 = f.weighted_limit
    if w0 != 0.0:
        if gw == 0.0:
            raise DomainError("weight class 0 admits no nonzero limit mode")
        if gw - mu < -_TOL:
            raise DomainError(
                f"derivative of the (log t)^({gw}-1) mode of order {mu} leaves "
                "every representable weight class"
            )
    s_coeff = w0 * gamma_ratio(gw, mu) if w0 != 0.0 else 0.0

    inner = hadamard_integral(_remainder(f), 1.0 - mu)
    drem = log_derivative(inner)

    g_out = _output_class(gw, mu)
    out = np.empty(grid.n_nodes)
    out[1:] = drem.weighted_values[1:] * x[1:] ** (gw - g_out)
    if s_coeff != 0.0:
        out[1:] += s_coeff * x[1:] ** (gw - mu - g_out)
    out[0] = s_coeff if abs(g_out - (gw - mu)) <= _TOL else 0.0
    return GridFunction(grid, g_out, out)


def hilfer_hadamard_derivative(f: GridFunction, order: Order) -> GridFunction:
    """Hilfer-Hadamard derivative I^(beta(1-alpha)) (t d/dt) I^((1-beta)(1-alpha)).

    The critical mode (log t)^(gamma_order - 1) is annihilated (it is the
    operator's kernel); every mode above it transforms exactly as under the
    plain Hadamard derivative of order alpha.  That is how the composition
    is evaluated: peel the leading weighted mode, treat it in closed form,
    and differentiate the remainder with the order-alpha operator.  The two
    compositions agree on the remainder because its I^((1-beta)(1-alpha))
    image vanishes at 1+, which lets the outer integral commute with
    t d/dt; keeping the derivative last avoids running finite-difference
    output through another weakly singular quadrature.

    Inputs are assumed to lie in the operator's domain: modes strictly
    below the critical exponent (other than a peelable leading mode, which
    raises) have no Hilfer-Hadamard derivative.
    """
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
    # s_coeff (log t)^(gw-alpha-1) is the constant s_coeff in class gw-alpha
    return GridFunction(
        grid, d_rem.gamma_weight, d_rem.weighted_values + s_coeff
    )


def integral_value_at_b(f: GridFunction, mu: float) -> float:
    """Raw value of (I^mu f)(b): the last node of the integral, in O(N).

    The convolution's last entry is one dot product with the reversed
    weights, so no N-long convolution is formed.
    """
    _, g, g0, mode = _integrand(f, mu)
    a, d = _panel_weights(mu, f.grid.h, f.grid.n_panels)
    raw = (np.dot(g, d[::-1]) + g0 * a[-1]) / math.gamma(mu)
    gw = f.gamma_weight
    xb = math.log(f.grid.b)
    weighted = raw * xb ** (1.0 - gw)
    if mode != 0.0:
        weighted += mode * xb**mu
    return float(weighted) * xb ** (gw - 1.0)
