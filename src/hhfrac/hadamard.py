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

What the rule reuses for one order mu on one grid (the FFT length, the
weights, their reversal, the weights' spectrum and Gamma(mu)) is a
:class:`QuadraturePlan`, built once per ``(mu, h, N)`` and cached by
:func:`quadrature_plan`.  The split does not depend on mu
(:func:`split_leading_mode`), so a caller that applies several orders to
the same data, as each Picard sweep does, splits it once.
``hadamard_integral`` is the grid-function form of the full integral.

A Hadamard derivative splits its data once: (t d/dt) I^(1-mu) acts on the
remainder as arrays, and the leading mode's image is added in closed form.
t d/dt is a second-order finite difference in x applied to the weighted
profile V, with the raw derivative reconstructed from the product rule
``u' = (V' + (gamma-1) V / x) x^(gamma-1)`` so that node 0 never enters a
stencil through an unbounded raw value.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError
from .grids import GAMMA_TOL, GridFunction, LogGrid, Order
from .specfun import gamma_ratio


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
    # k^p - (k-1)^p for p = mu, mu + 1: (k-1)^p is k^p one lag earlier, and
    # 0^p = 0, so two powers serve where four would
    diff, diff1 = k**mu, k ** (mu + 1.0)
    diff[1:] = diff[1:] - diff[:-1]
    diff1[1:] = diff1[1:] - diff1[:-1]
    m0 = h**mu * diff / mu
    m1 = h ** (mu + 1.0) * (k * diff / mu - diff1 / (mu + 1.0))
    a = m0 - m1 / h
    b = m1 / h
    d = np.empty(n_panels)
    d[0] = b[0]
    d[1:] = a[:-1] + b[1:]
    a.setflags(write=False)
    d.setflags(write=False)
    return a, d


class LeadingModeSplit(NamedTuple):
    """A grid function as ``w0 (log t)^(gamma_weight-1)`` plus a raw remainder.

    ``g`` holds the raw remainder at nodes 1..N and ``g0`` its extrapolated
    origin value.  The split does not depend on the integration order, so
    one split serves every order applied to the same data.
    """

    gamma_weight: float
    w0: float
    g: np.ndarray
    g0: float


def split_leading_mode(
    weighted: np.ndarray, gamma_weight: float, to_raw: np.ndarray
) -> LeadingModeSplit:
    """Peel the leading weighted mode off weighted samples at nodes 0..N.

    ``to_raw`` is ``x^(gamma_weight-1)`` at nodes 1..N.
    """
    w0 = float(weighted[0])
    if w0 != 0.0 and gamma_weight == 0.0:
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
    g = (weighted[1:] - w0) * to_raw
    if g.shape[0] >= 3:
        g0 = 3.0 * g[0] - 3.0 * g[1] + g[2]
    elif g.shape[0] == 2:
        g0 = 2.0 * g[0] - g[1]
    else:
        g0 = g[0]
    return LeadingModeSplit(gamma_weight, w0, g, g0)


class QuadraturePlan:
    """The product-trapezoidal rule of one order mu on one log-uniform grid.

    Holds what every application of the rule reuses: the FFT length, the
    endpoint weights ``a`` and ``Gamma(mu)``; and, each built on its first
    use and read-only, the reversed lag weights ``d_reversed`` for the
    value at b and the real FFT of the lag weights for the full integral.
    A plan that serves only one of the two never builds the other's.
    Plans come from :func:`quadrature_plan`, which caches them.
    """

    def __init__(self, mu: float, h: float, n_panels: int):
        self.mu = mu
        self.n_panels = n_panels
        # zero-padded length >= 2N - 1, so no wrap-around reaches the
        # first N outputs of the linear convolution
        self.fft_size = 1 << (2 * n_panels - 2).bit_length()
        self.a, self._d = _panel_weights(mu, h, n_panels)
        self.gamma_mu = math.gamma(mu)

    @cached_property
    def d_reversed(self) -> np.ndarray:
        """The lag weights in reverse order, contiguous (read-only)."""
        d_reversed = self._d[::-1].copy()
        d_reversed.setflags(write=False)
        return d_reversed

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Real FFT of the lag weights at the padded length (read-only)."""
        spectrum = np.fft.rfft(self._d, self.fft_size)
        spectrum.setflags(write=False)
        return spectrum

    def _mode(self, split: LeadingModeSplit) -> float:
        """Coefficient of (log t)^mu in the weighted image of the leading mode."""
        if split.w0 == 0.0:
            return 0.0
        return split.w0 * gamma_ratio(split.gamma_weight, -self.mu)

    def work_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Output arrays for the two FFTs of :meth:`weighted_integral`: the
        product spectrum (``fft_size//2 + 1`` complex) and the inverse
        transform (``fft_size`` reals)."""
        return np.empty(self.fft_size // 2 + 1, dtype=complex), np.empty(self.fft_size)

    def weighted_integral(
        self, split: LeadingModeSplit, grid: LogGrid,
        work: Optional[tuple[np.ndarray, np.ndarray]] = None,
    ) -> np.ndarray:
        """Weighted I^mu at the nodes 0..N of ``grid``, the plan's grid.

        The powers of log t come from ``grid``.  ``work``, when given, is a
        pair from :meth:`work_arrays` that the FFTs write into instead of
        allocating; the returned array never shares memory with it.
        """
        size = self.fft_size
        product, padded = work if work is not None else (None, None)
        spectrum = np.fft.rfft(split.g, size, out=product)
        spectrum *= self.spectrum
        raw = np.fft.irfft(spectrum, size, out=padded)[: self.n_panels]
        raw += split.g0 * self.a
        raw /= self.gamma_mu
        out = np.empty(self.n_panels + 1)
        out[0] = 0.0
        np.multiply(raw, grid.x_power(1.0 - split.gamma_weight), out=out[1:])
        mode = self._mode(split)
        if mode != 0.0:
            out[1:] += mode * grid.x_power(self.mu)
        return out

    def value_at_b(self, split: LeadingModeSplit, log_b: float) -> float:
        """Raw (I^mu f)(b): one dot product with the reversed weights, O(N)."""
        raw = (np.dot(split.g, self.d_reversed) + split.g0 * self.a[-1]) / self.gamma_mu
        gw = split.gamma_weight
        weighted = raw * log_b ** (1.0 - gw)
        mode = self._mode(split)
        if mode != 0.0:
            weighted += mode * log_b**self.mu
        return float(weighted) * log_b ** (gw - 1.0)


@lru_cache(maxsize=128)
def quadrature_plan(mu: float, h: float, n_panels: int) -> QuadraturePlan:
    """The cached :class:`QuadraturePlan` of order mu > 0 on a grid of step h."""
    if not mu > 0.0:
        raise DomainError(f"hadamard_integral requires mu > 0, got {mu!r}")
    return QuadraturePlan(mu, h, n_panels)


def _split(f: GridFunction) -> LeadingModeSplit:
    gw = f.gamma_weight
    return split_leading_mode(f.weighted_values, gw, f.grid.x_power(gw - 1.0))


def hadamard_integral(f: GridFunction, mu: float) -> GridFunction:
    """Left Hadamard fractional integral of order mu > 0, same weight class.

    The node-0 weighted output is exactly 0: the integral of anything in the
    input's weight class gains a positive power of log t, so its weighted
    limit at 1+ vanishes.
    """
    grid = f.grid
    plan = quadrature_plan(mu, grid.h, grid.n_panels)
    return GridFunction(grid, f.gamma_weight, plan.weighted_integral(_split(f), grid))


def _profile_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order d/dx at nodes 1..n-1: central inside, one-sided at the right end."""
    n = values.shape[0]
    if n < 3:
        raise DomainError("derivative stencils need at least 3 grid nodes")
    out = np.empty(n - 1)
    out[:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return out


def _derivative(f: GridFunction, mu: float, s_coeff: float) -> GridFunction:
    """(t d/dt) I^(1-mu) of f without its leading mode, plus that mode's image
    ``s_coeff (log t)^(gw-mu-1)``, in weight class gw - mu.

    f is split once; the remainder's integral V (weighted, class gw) is
    differentiated by the product rule ``V' + (gw-1) V / x`` and re-weighted,
    all on arrays, so only the result becomes a grid function.
    """
    grid = f.grid
    gw = f.gamma_weight
    x = grid.log_nodes[1:]
    plan = quadrature_plan(1.0 - mu, grid.h, grid.n_panels)
    v = plan.weighted_integral(_split(f)._replace(w0=0.0), grid)
    vp = _profile_derivative(v, grid.h)
    g_out = min(max(gw - mu, 0.0), 1.0 - GAMMA_TOL)  # the result's weight class
    out = np.empty(grid.n_nodes)
    out[1:] = (vp + (gw - 1.0) * v[1:] / x) * grid.x_power(gw - g_out)
    if s_coeff != 0.0:
        out[1:] += s_coeff * grid.x_power(gw - mu - g_out)
    out[0] = s_coeff if abs(g_out - (gw - mu)) <= GAMMA_TOL else 0.0
    return GridFunction(grid, g_out, out)


def hadamard_derivative(f: GridFunction, mu: float) -> GridFunction:
    """Hadamard fractional derivative of order mu in (0, 1).

    Computed as (t d/dt) I^(1-mu) f after peeling the leading mode, whose
    derivative Gamma(gw)/Gamma(gw-mu) (log t)^(gw-mu-1) is known in closed
    form (zero at the pole gw = mu).  The result is returned in weight class
    gw - mu, where that leading term has a finite weighted limit.
    """
    if not 0.0 < mu < 1.0:
        raise DomainError(f"hadamard_derivative requires mu in (0, 1), got {mu!r}")
    gw = f.gamma_weight
    w0 = f.weighted_limit
    if w0 != 0.0:
        if gw == 0.0:
            raise DomainError("weight class 0 admits no nonzero limit mode")
        if gw - mu < -GAMMA_TOL:
            raise DomainError(
                f"derivative of the (log t)^({gw}-1) mode of order {mu} leaves "
                "every representable weight class"
            )
    return _derivative(f, mu, w0 * gamma_ratio(gw, mu) if w0 != 0.0 else 0.0)


def hilfer_hadamard_derivative(f: GridFunction, order: Order) -> GridFunction:
    """Hilfer-Hadamard derivative I^(beta(1-alpha)) (t d/dt) I^((1-beta)(1-alpha)).

    The critical mode (log t)^(gamma_order - 1) is the operator's kernel,
    and every mode above it transforms as under the plain Hadamard
    derivative of order alpha, so the result is ``hadamard_derivative(f,
    alpha)``, except that a leading weighted mode that is the critical one
    contributes nothing.  The two compositions agree above the kernel
    because there the I^((1-beta)(1-alpha)) image vanishes at 1+, which
    lets the outer integral commute with t d/dt; keeping the derivative
    last avoids running finite-difference output through another weakly
    singular quadrature.

    Inputs are assumed to lie in the operator's domain: modes strictly
    below the critical exponent (other than a peelable leading mode, which
    raises) have no Hilfer-Hadamard derivative.
    """
    alpha, go = order.alpha, order.gamma
    if order.beta_type != 0.0 and f.weighted_limit != 0.0:
        gw = f.gamma_weight
        if gw == 0.0:
            raise DomainError("weight class 0 admits no nonzero limit mode")
        if gw < go - GAMMA_TOL:
            raise DomainError(
                f"the (log t)^({gw}-1) mode lies below the critical exponent "
                f"{go} - 1; its Hilfer-Hadamard derivative does not exist"
            )
        if abs(gw - go) <= GAMMA_TOL:
            return _derivative(f, alpha, 0.0)
    return hadamard_derivative(f, alpha)
