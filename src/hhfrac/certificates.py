"""Existence, uniqueness and Ulam-stability constants with verdicts.

All constants are closed-form expressions in (alpha, gamma, b, c1, c2, phi)
and the right-hand-side metadata; they are evaluated here in double
precision and compared against high-precision references in the tests.
:func:`build_certificate` is the one place that assembles the Ulam
constants C_f and C_f_phi: ``hhfrac certify`` prints its record and
:mod:`hhfrac.stability` judges every verdict against the same fields.

Two deliberate quirks are reproduced and documented rather than silently
repaired:

* ``omega`` follows the existence theorem literally (a 1/Gamma(gamma)
  factor); ``omega_paper_variant`` replaces it by Gamma(gamma), which is
  what the worked example in the source material actually multiplies out.
  Both are reported.
* The Rassias constant uses the displayed product with lambda_phi squared.
  The likely intent is a single factor; the displayed form is implemented
  and the discrepancy is noted here and in the README.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CertificateRejected, DomainError, MLOverflowError
from .grids import GridFunction, LogGrid
from .hadamard import hadamard_integral
from .problems import ProblemSpec
from .specfun import beta as beta_fn
from .specfun import mittag_leffler, mittag_leffler_array


@dataclass(frozen=True)
class Certificate:
    """All computed constants for one problem, with pass/fail verdicts."""

    omega: float
    omega_paper_variant: float
    lambda_cap: float
    ball_radius: Optional[float]
    a_const: float
    b_const: float
    b_tilde: float
    c_f: float
    existence_ok: bool
    uniqueness_ok: bool
    lambda_phi: Optional[float] = None
    c_f_phi: Optional[float] = None

    def __post_init__(self):
        for name in ("omega", "omega_paper_variant", "lambda_cap", "a_const",
                     "b_const", "b_tilde", "c_f"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"certificate constant {name} must be finite and >= 0")
        if (self.ball_radius is not None) != (self.omega < 1.0):
            raise ValueError("ball_radius must be present exactly when omega < 1")
        if (self.c_f_phi is None) != (self.lambda_phi is None):
            raise ValueError("c_f_phi must be present exactly when lambda_phi is")

    def as_text(self) -> str:
        """Flat ``name = value`` record, one line per constant."""
        lines = [
            f"omega = {self.omega!r}",
            f"omega_paper_variant = {self.omega_paper_variant!r}",
            f"lambda_cap = {self.lambda_cap!r}",
        ]
        if self.ball_radius is not None:
            lines.append(f"ball_radius = {self.ball_radius!r}")
        lines += [
            f"a_const = {self.a_const!r}",
            f"b_const = {self.b_const!r}",
            f"b_tilde = {self.b_tilde!r}",
            f"c_f = {self.c_f!r}",
        ]
        if self.lambda_phi is not None:
            lines.append(f"lambda_phi = {self.lambda_phi!r}")
            lines.append(f"c_f_phi = {self.c_f_phi!r}")
        lines.append(f"existence_ok = {'true' if self.existence_ok else 'false'}")
        lines.append(f"uniqueness_ok = {'true' if self.uniqueness_ok else 'false'}")
        return "\n".join(lines) + "\n"


# slack of the nodewise lambda_phi comparison
_LAMBDA_PHI_TOL = 1e-9


def _c_ratio(problem: ProblemSpec) -> float:
    return abs(problem.c2 / (problem.c1 + problem.c2))


def existence_constants(problem: ProblemSpec):
    """(omega, omega_paper_variant, lambda_cap, ball_radius or None).

    omega < 1 certifies existence; the ball radius lambda_cap/(1 - omega)
    is only defined in that case.  lambda_cap bounds a norm, so the
    boundary term enters through |phi/(c1+c2)|.  omega_paper_variant has
    Gamma(gamma) in place of 1/Gamma(gamma), the arithmetic of the worked
    example (about 0.88 for the reference problem).
    """
    rhs = problem.rhs
    o = problem.order
    g, a = o.gamma, o.alpha
    logb = math.log(problem.b)
    cr = _c_ratio(problem)
    shape = beta_fn(g, a) / math.gamma(a) * logb**a
    omega, omega_pa = (
        (k + 1.0) * rhs.sigma_star * shape / (1.0 - rhs.rho_star)
        for k in (cr / math.gamma(g), cr * math.gamma(g))
    )
    lam = abs(problem.phi / (problem.c1 + problem.c2)) / math.gamma(g) + (
        (cr / (math.gamma(g) * math.gamma(2.0 - g + a)) + 1.0 / math.gamma(a + 1.0))
        * logb ** (1.0 - g + a)
        / (1.0 - rhs.rho_star)
    )
    radius = lam / (1.0 - omega) if omega < 1.0 else None
    return omega, omega_pa, lam, radius


def uniqueness_constant(problem: ProblemSpec) -> float:
    """Contraction modulus A of the fixed-point operator; A < 1 gives uniqueness."""
    rhs = problem.rhs
    o = problem.order
    g, a = o.gamma, o.alpha
    logb = math.log(problem.b)
    return (
        (_c_ratio(problem) / math.gamma(a + 1.0) + beta_fn(g, a) / math.gamma(a))
        * logb**a
        * rhs.K_f
        / (1.0 - rhs.L_f)
    )


def _verify_lambda_phi(problem: ProblemSpec, phi_weight: GridFunction, lambda_phi: float):
    """Reject a lambda_phi that fails the nodewise comparison.

    The monotonicity warning names the caller of :func:`build_certificate`.
    """
    if not lambda_phi > 0.0:
        raise CertificateRejected("lambda_phi must be positive")
    phi_raw = phi_weight.raw_tail()
    if np.any(phi_raw <= 0.0):
        raise CertificateRejected("phi profile must be positive on the grid")
    if np.any(np.diff(phi_raw) < -_LAMBDA_PHI_TOL):
        warnings.warn(
            "phi profile is not increasing on the grid; proceeding anyway",
            stacklevel=3,
        )
    integral_raw = hadamard_integral(phi_weight, problem.order.alpha).raw_tail()
    excess = integral_raw - lambda_phi * phi_raw
    bad = np.where(excess > _LAMBDA_PHI_TOL)[0]
    if bad.size:
        nodes = [int(i) + 1 for i in bad[:8]]
        raise CertificateRejected(
            f"lambda_phi={lambda_phi} fails at {bad.size} nodes "
            f"(first node indices {nodes}, worst excess {float(np.max(excess)):.3e})",
            violations=nodes,
        )


def gronwall_bound(
    grid: LogGrid, w_values: np.ndarray, k: float, alpha: float
) -> np.ndarray:
    """Nodewise Mittag-Leffler closure w(t) E_alpha(k Gamma(alpha) (log t)^alpha).

    ``w_values`` must be nondecreasing along the grid; that is the
    hypothesis under which the kernel-series bound collapses to this
    closed form.  The factors come from one
    :func:`~hhfrac.specfun.mittag_leffler_array` call, which stops each
    node's series by the scalar :func:`~hhfrac.specfun.mittag_leffler`
    rule (first term below machine epsilon times the running sum) and
    agrees with the scalar value to a few ulps; the factor at t = 1 is
    exactly 1, and an argument that overflows the scalar series at the
    last node, or an alpha so small that Gamma(alpha) overflows, raises
    ``MLOverflowError``.
    """
    if not k > 0.0:
        raise DomainError(f"gronwall_bound requires k > 0, got {k!r}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"gronwall_bound requires alpha in (0, 1), got {alpha!r}")
    w = np.asarray(w_values, dtype=float)
    if w.shape != (grid.n_nodes,):
        raise DomainError(f"expected {grid.n_nodes} values, got shape {w.shape}")
    if np.any(np.diff(w) < -1e-14 * np.maximum(1.0, np.abs(w[:-1]))):
        raise DomainError("gronwall_bound requires a nondecreasing profile")
    try:
        gamma_alpha = math.gamma(alpha)
    except OverflowError:
        raise MLOverflowError(
            f"Gamma(alpha) overflows double precision at alpha={alpha!r}"
        ) from None
    z = k * gamma_alpha * grid.log_nodes**alpha
    return w * mittag_leffler_array(alpha, z)


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise MLOverflowError(f"Ulam constant {name} overflows double precision")
    return value


def build_certificate(
    problem: ProblemSpec,
    phi_weight: Optional[GridFunction] = None,
    lambda_phi: Optional[float] = None,
) -> Certificate:
    """Assemble every constant for one problem (Rassias parts optional).

    C_f = B E_alpha(K_f/(1-L_f) (log b)^alpha), the Gronwall closure at the
    right endpoint, and C_f_phi = B~ lambda_phi^2 times the same factor.
    lambda_phi is accepted only if (I^alpha phi)(t_i) <= lambda_phi phi(t_i)
    + 1e-9 at every node i >= 1 of a profile positive there; a non-monotone
    profile (the canonical (log t)^(gamma-1) one is decreasing) passes with
    a warning naming the caller, since the classical statement assumes an
    increasing one.  A C_f or C_f_phi that overflows raises MLOverflowError.
    """
    omega, omega_pa, lam, radius = existence_constants(problem)
    a_const = uniqueness_constant(problem)
    rhs, o = problem.rhs, problem.order
    g, a = o.gamma, o.alpha
    logb = math.log(problem.b)
    cr = _c_ratio(problem)
    # one growth series serves both C_f and C_f_phi
    growth = mittag_leffler(a, rhs.K_f / (1.0 - rhs.L_f) * logb**a).value
    # B, the integral-inequality constant of the Ulam-Hyers estimate
    b_const = (
        cr / math.gamma(g) * logb**a / math.gamma(2.0 - g + a)
        + logb**a / math.gamma(a + 1.0)
    )
    c_f = _finite("C_f", b_const * growth)
    # B~, independent of the phi profile
    b_tilde, c_f_phi = cr * logb ** (g - 1.0) / math.gamma(g) + 1.0, None
    if lambda_phi is not None:
        if phi_weight is None:
            raise DomainError("lambda_phi requires a phi profile to verify against")
        _verify_lambda_phi(problem, phi_weight, lambda_phi)
        # the displayed product carries lambda_phi twice
        try:
            squared = lambda_phi**2
        except OverflowError:
            squared = math.inf
        c_f_phi = _finite("C_f_phi", b_tilde * squared * growth)
    return Certificate(
        omega=omega,
        omega_paper_variant=omega_pa,
        lambda_cap=lam,
        ball_radius=radius,
        a_const=a_const,
        b_const=b_const,
        b_tilde=b_tilde,
        c_f=c_f,
        existence_ok=omega < 1.0,
        uniqueness_ok=a_const < 1.0,
        lambda_phi=lambda_phi,
        c_f_phi=c_f_phi,
    )
