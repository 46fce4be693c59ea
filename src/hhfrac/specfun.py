"""Special functions: Beta, Gamma ratios and the one-parameter Mittag-Leffler function.

Gamma itself is ``math.gamma`` throughout the library.  The Mittag-Leffler
series comes in two forms that share one stopping rule: the scalar
:func:`mittag_leffler`, the reference the certificate constants use, and
:func:`mittag_leffler_array`, which evaluates a whole grid of arguments
with one numpy term matrix.  Everything here is pure and reentrant.
Arguments are restricted to the positive-real ranges the rest of the
library actually needs; out-of-range input raises
:class:`~hhfrac.errors.DomainError` instead of silently returning inf/nan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ConvergenceError, MLOverflowError

#: Most terms the Mittag-Leffler series sums before it raises ConvergenceError.
ML_TERM_CAP = 10_000

# elements of one term-matrix block in mittag_leffler_array (512 KiB)
_BLOCK_ELEMENTS = 1 << 16


def beta(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b) for a, b > 0."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"beta requires positive arguments, got ({a!r}, {b!r})")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def gamma_ratio(c: float, mu: float) -> float:
    """Gamma(c)/Gamma(c - mu) for c > 0, extended through the poles of Gamma.

    When c - mu is zero or a negative integer the reciprocal 1/Gamma(c - mu)
    vanishes and the ratio is 0.  For negative non-integer c - mu the
    reflection formula keeps every Gamma evaluation at a positive argument.
    """
    if not c > 0.0:
        raise DomainError(f"gamma_ratio requires c > 0, got {c!r}")
    d = c - mu
    if d > 0.0:
        return math.exp(math.lgamma(c) - math.lgamma(d))
    # 1/Gamma(d) = sin(pi d) Gamma(1 - d) / pi
    s = math.sin(math.pi * d)
    if s == 0.0:
        return 0.0
    return math.gamma(c) * s * math.gamma(1.0 - d) / math.pi


@dataclass(frozen=True)
class MLSeriesResult:
    """Converged Mittag-Leffler partial sum.

    value: the partial sum; terms_used: number of terms accumulated;
    truncation_estimate: magnitude of the first dropped term.
    """

    value: float
    terms_used: int
    truncation_estimate: float

    def __post_init__(self):
        if self.terms_used < 1:
            raise ValueError("terms_used must be >= 1")
        if not math.isfinite(self.value):
            raise MLOverflowError("Mittag-Leffler value is not finite")


def mittag_leffler(alpha: float, z: float) -> MLSeriesResult:
    """One-parameter Mittag-Leffler function E_alpha(z) = sum_k z^k / Gamma(k*alpha + 1).

    Direct power series for alpha in (0, 1] and z >= 0.  Terms are
    accumulated until the next one drops below machine epsilon times the
    running sum; the final value is re-summed with ``math.fsum`` to keep
    the accumulation compensated.  Arguments large enough to overflow are
    rejected rather than approximated.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"mittag_leffler requires alpha in (0, 1], got {alpha!r}")
    if not z >= 0.0:
        raise DomainError(f"mittag_leffler requires z >= 0, got {z!r}")
    if z == 0.0:
        return MLSeriesResult(value=1.0, terms_used=1, truncation_estimate=0.0)

    eps = math.ulp(1.0)
    log_z = math.log(z)
    terms = [1.0]
    partial = 1.0
    for k in range(1, ML_TERM_CAP + 1):
        log_term = k * log_z - math.lgamma(k * alpha + 1.0)
        if log_term > 709.0:
            raise MLOverflowError(
                f"Mittag-Leffler series term overflows at k={k} for alpha={alpha}, z={z}"
            )
        term = math.exp(log_term)
        if term < eps * partial:
            return MLSeriesResult(
                value=math.fsum(terms), terms_used=k, truncation_estimate=term
            )
        terms.append(term)
        partial += term
        if not math.isfinite(partial):
            raise MLOverflowError(
                f"Mittag-Leffler partial sum overflows for alpha={alpha}, z={z}"
            )
    raise ConvergenceError(
        f"Mittag-Leffler series did not converge within {ML_TERM_CAP} terms "
        f"for alpha={alpha}, z={z}"
    )


def mittag_leffler_array(alpha: float, z) -> np.ndarray:
    """E_alpha at every entry of an array of arguments z >= 0.

    Applies the stopping rule of :func:`mittag_leffler` to each entry: the
    series stops at the first term below machine epsilon times the
    running sum of the terms before it.  That ratio grows with z for every
    term index, so the scalar series at ``max(z)`` fixes a term count K
    that bounds every entry's stopping index; it also raises the scalar's
    ``MLOverflowError`` and ``ConvergenceError``.  The K terms of all
    entries are then one ``exp`` of a term-matrix block, the running sums
    one ``cumsum`` and the stopping indices one ``argmax``.  Entries with
    z = 0 are exactly 1; every other entry agrees with the scalar value to
    a few ulps (``exp`` and the final pairwise summation are numpy's,
    where the scalar uses ``math.exp`` and ``math.fsum``).
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"mittag_leffler_array requires alpha in (0, 1], got {alpha!r}")
    z = np.asarray(z, dtype=float)
    if not np.all(z >= 0.0):
        raise DomainError("mittag_leffler_array requires every z >= 0")
    out = np.ones(z.shape)
    positive = z > 0.0
    if not positive.any():
        return out
    n_terms = mittag_leffler(alpha, float(np.max(z))).terms_used
    # column j holds term j, for j = 0 .. n_terms (term 0 = exp(0) = 1)
    j = np.arange(n_terms + 1, dtype=float)
    log_gamma = np.array([math.lgamma(k * alpha + 1.0) for k in range(n_terms + 1)])
    eps = math.ulp(1.0)
    # math.log as in the scalar series: j log z amplifies a one-ulp
    # difference in log z by the term index
    log_z = np.fromiter(map(math.log, z[positive].tolist()), dtype=float)
    values = np.empty(log_z.shape)
    rows = max(1, _BLOCK_ELEMENTS // j.size)
    for start in range(0, log_z.size, rows):
        terms = np.outer(log_z[start : start + rows], j)
        terms -= log_gamma
        np.exp(terms, out=terms)
        # running sums accumulated in the scalar series' order
        partial = np.cumsum(terms, axis=1)
        # the first dropped term of each row; the last column, always
        # marked, stops a row that rounding kept running through all terms
        dropped = np.zeros(terms.shape, dtype=bool)
        np.less(terms[:, 1:], eps * partial[:, :-1], out=dropped[:, :-1])
        dropped[:, -1] = True
        stop = np.argmax(dropped, axis=1)
        terms *= j <= stop[:, None]
        values[start : start + rows] = terms.sum(axis=1)
    out[positive] = values
    return out
