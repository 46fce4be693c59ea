"""Existence, uniqueness and Ulam-stability constants with verdicts.

All constants are closed-form expressions in (alpha, gamma, b, c1, c2, phi)
and the right-hand-side metadata; they are evaluated here in double
precision and compared against high-precision references in the tests.
:func:`build_certificate` is the one source of every theorem constant
(:func:`uniqueness_constant`, its A, is public for the solver's warning):
``hhfrac certify`` prints its record and :mod:`hhfrac.stability` judges
every verdict against the same fields.

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
from dataclasses import dataclass, fields
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
    """All computed constants for one problem, with pass/fail verdicts,
    in the order :meth:`as_text` prints them."""

    omega: float
    omega_paper_variant: float
    lambda_cap: float
    ball_radius: Optional[float]
    a_const: float
    b_const: float
    b_tilde: float
    c_f: float
    lambda_phi: Optional[float]
    c_f_phi: Optional[float]
    existence_ok: bool
    uniqueness_ok: bool

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
        """Flat ``name = value`` record: one line per field that is not None,
        in declaration order, with the verdicts as ``true``/``false``."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                lines.append(f"{f.name} = {'true' if value else 'false'}")
            elif value is not None:
                lines.append(f"{f.name} = {value!r}")
        return "\n".join(lines) + "\n"


# slack of the nodewise lambda_phi comparison
_LAMBDA_PHI_TOL = 1e-9


def _c_ratio(problem: ProblemSpec) -> float:
    return abs(problem.c2 / (problem.c1 + problem.c2))


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
    increasing one.  A profile on another interval than the problem's raises
    GridMismatchError.  A C_f or C_f_phi that overflows raises MLOverflowError.

    omega < 1 certifies existence and defines the ball radius
    lambda_cap/(1 - omega); lambda_cap bounds a norm, so phi enters through
    |phi/(c1+c2)|.  omega_paper_variant has Gamma(gamma) for 1/Gamma(gamma),
    the worked example's arithmetic (about 0.88 for the reference problem).
    """
    rhs, o = problem.rhs, problem.order
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
    a_const = uniqueness_constant(problem)
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
        problem.require_interval(phi_weight.grid)
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
        ball_radius=lam / (1.0 - omega) if omega < 1.0 else None,
        a_const=a_const,
        b_const=b_const,
        b_tilde=b_tilde,
        c_f=c_f,
        lambda_phi=lambda_phi,
        c_f_phi=c_f_phi,
        existence_ok=omega < 1.0,
        uniqueness_ok=a_const < 1.0,
    )
