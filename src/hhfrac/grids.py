"""Log-uniform grids on [1, b] and weighted grid functions.

A grid function stores the values ``w_i = (log t_i)^(1-gamma) * u(t_i)`` of
a candidate solution in the weighted space attached to exponent ``gamma``;
``w_0`` holds the weighted limit at ``t -> 1+``.  The raw value at an
interior node is recovered as ``w_i * (log t_i)^(gamma-1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, GridMismatchError

# weight classes (and log-power exponents) that differ by no more than this are one
GAMMA_TOL = 1e-12


@dataclass(frozen=True)
class Order:
    """Fractional order alpha, type beta_type and the derived weight exponent."""

    alpha: float
    beta_type: float
    gamma: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"order requires 0 < alpha < 1, got {self.alpha!r}")
        try:
            math.gamma(self.alpha)
        except OverflowError:
            raise DomainError(
                f"Gamma(alpha) overflows double precision at alpha={self.alpha!r}"
            ) from None
        if not 0.0 <= self.beta_type <= 1.0:
            raise DomainError(f"order requires 0 <= beta_type <= 1, got {self.beta_type!r}")
        object.__setattr__(
            self, "gamma", self.alpha + self.beta_type * (1.0 - self.alpha)
        )


@dataclass(frozen=True)
class LogGrid:
    """Nodes t_0 = 1 < ... < t_N = b with uniformly spaced logarithms.

    ``log_nodes`` and ``nodes`` are built once, on construction, and the
    powers of :meth:`x_power` once per exponent, on first use.  All are
    read-only and take no part in equality, hashing or the repr.
    """

    b: float
    n_panels: int
    _log_nodes: np.ndarray = field(init=False, repr=False, compare=False)
    _nodes: np.ndarray = field(init=False, repr=False, compare=False)
    _powers: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1.0 < self.b < math.inf:
            raise DomainError(f"grid requires a finite b > 1, got {self.b!r}")
        if self.n_panels < 1:
            raise DomainError(f"grid requires at least one panel, got {self.n_panels!r}")
        x = np.arange(self.n_nodes, dtype=float) * self.h
        x[-1] = math.log(self.b)
        t = np.exp(x)
        t[0] = 1.0
        t[-1] = self.b
        x.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "_log_nodes", x)
        object.__setattr__(self, "_nodes", t)
        object.__setattr__(self, "_powers", {})

    @property
    def h(self) -> float:
        return math.log(self.b) / self.n_panels

    @property
    def n_nodes(self) -> int:
        return self.n_panels + 1

    @property
    def log_nodes(self) -> np.ndarray:
        return self._log_nodes

    @property
    def nodes(self) -> np.ndarray:
        return self._nodes

    def x_power(self, p: float) -> np.ndarray:
        """``log_nodes[1:] ** p``, built on the first call per exponent (read-only)."""
        power = self._powers.get(p)
        if power is None:
            power = self._log_nodes[1:] ** p
            power.setflags(write=False)
            power = self._powers.setdefault(p, power)
        return power


class GridFunction:
    """Weighted samples of a function on a :class:`LogGrid`.

    Immutable value type: the sample array is copied on construction and
    frozen.  ``gamma_weight`` in [0, 1) selects the weight
    ``(log t)^(1-gamma_weight)``.
    """

    __slots__ = ("grid", "gamma_weight", "weighted_values")

    def __init__(self, grid: LogGrid, gamma_weight: float, weighted_values):
        if not 0.0 <= gamma_weight < 1.0:
            raise DomainError(
                f"gamma_weight must lie in [0, 1), got {gamma_weight!r}"
            )
        values = np.array(weighted_values, dtype=float)
        if values.shape != (grid.n_nodes,):
            raise DomainError(
                f"expected {grid.n_nodes} weighted values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise DomainError("grid function values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "gamma_weight", gamma_weight)
        object.__setattr__(self, "weighted_values", values)

    def __setattr__(self, name, value):
        raise AttributeError("GridFunction is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_raw_callable(cls, grid: LogGrid, gamma_weight: float, fn) -> "GridFunction":
        """Build from raw samples u(t_i) for i >= 1; the weighted limit at 1+ is 0."""
        w = np.empty(grid.n_nodes)
        w[0] = 0.0
        w[1:] = np.asarray(fn(grid.nodes[1:]), dtype=float) * grid.x_power(1.0 - gamma_weight)
        return cls(grid, gamma_weight, w)

    # -- accessors ----------------------------------------------------------

    @property
    def weighted_limit(self) -> float:
        """Weighted value at t = 1+ (node 0)."""
        return float(self.weighted_values[0])

    def raw_tail(self) -> np.ndarray:
        """Raw values u(t_i) at the nodes i >= 1 (node 0 may be unbounded)."""
        return self.weighted_values[1:] * self.grid.x_power(self.gamma_weight - 1.0)

    # -- algebra (same grid and weight class only) --------------------------

    def _check_compatible(self, other: "GridFunction"):
        if self.grid != other.grid:
            raise GridMismatchError(
                "grid functions live on different grids; no implicit resampling"
            )
        if abs(self.gamma_weight - other.gamma_weight) > GAMMA_TOL:
            raise GridMismatchError(
                f"weight classes differ: {self.gamma_weight} vs {other.gamma_weight}"
            )

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_compatible(other)
        return GridFunction(
            self.grid, self.gamma_weight, self.weighted_values + other.weighted_values
        )

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_compatible(other)
        return GridFunction(
            self.grid, self.gamma_weight, self.weighted_values - other.weighted_values
        )

    def __mul__(self, scalar: float) -> "GridFunction":
        return GridFunction(self.grid, self.gamma_weight, self.weighted_values * scalar)

    __rmul__ = __mul__


def require_space(
    f: GridFunction, grid: LogGrid, gamma: Optional[float], role: str
) -> GridFunction:
    """``f``, once it lives on ``grid`` and, unless ``gamma`` is None, in the
    weight class ``gamma``, up to the tolerance that grid-function
    arithmetic allows; ``role`` names it in the ``GridMismatchError``."""
    if f.grid != grid or (gamma is not None and abs(f.gamma_weight - gamma) > GAMMA_TOL):
        within = "" if gamma is None else ", in the weight class of the problem"
        raise GridMismatchError(f"{role} must live on the solve grid{within}")
    return f


def weighted_norm(f: GridFunction) -> float:
    """Sup of |(log t)^(1-gamma) u(t)| over the grid nodes."""
    return float(np.max(np.abs(f.weighted_values)))


def log_power(
    grid: LogGrid, gamma_weight: float, exponent: float, coeff: float = 1.0
) -> GridFunction:
    """The function coeff * (log t)^exponent stored in the given weight class.

    Requires ``exponent >= gamma_weight - 1`` so the weighted values stay
    bounded at the left endpoint.
    """
    p = 1.0 - gamma_weight + exponent
    if p < -GAMMA_TOL:
        raise DomainError(
            f"(log t)^{exponent} is unbounded in weight class {gamma_weight}"
        )
    x = grid.log_nodes
    w = np.empty(grid.n_nodes)
    if abs(p) <= GAMMA_TOL:
        w[:] = coeff
    else:
        w[0] = 0.0
        w[1:] = coeff * x[1:] ** p
    return GridFunction(grid, gamma_weight, w)
