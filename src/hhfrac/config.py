"""Flat ``key = value`` problem configurations.

One problem per file; ``#`` starts a comment.  Numeric values accept plain
floats, simple fractions like ``1/3``, and the literal ``e``.  Parse errors
carry the file name and line number of the offending entry.

Recognized keys::

    alpha, beta, b, c1, c2, phi          problem data
    rhs                                  catalog kind
    rhs.exponent rhs.coeff rhs.critical_coeff     manufactured-log-power
    rhs.g0 rhs.g1 rhs.a rhs.c                     affine-in-uv
    rhs.table                                     custom-table (comma list,
                                                  weighted values, N+1 long)
    panels, tol, cap                     numerics
    stability.mode                       uh | uhr
    stability.perturbation               constant | log-power | supplied-table
    stability.epsilon                    float or comma list
    stability.phi                        one | critical-log-power
    stability.lambda_phi                 comparison constant for uhr
    stability.table                      comma list for supplied-table
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import DomainError
from .grids import GridFunction, LogGrid, Order, log_power
from .problems import (
    AFFINE,
    CUSTOM_TABLE,
    MANUFACTURED,
    PAPER_EXAMPLE,
    ProblemSpec,
    affine_rhs,
    manufactured_rhs,
    paper_example_rhs,
    table_rhs,
)


class ConfigError(ValueError):
    """A malformed or inconsistent configuration entry."""


_PROBLEM_KEYS = {"alpha", "beta", "b", "c1", "c2", "phi", "rhs"}
_RHS_PARAM_KEYS = {
    "rhs.exponent", "rhs.coeff", "rhs.critical_coeff",
    "rhs.g0", "rhs.g1", "rhs.a", "rhs.c", "rhs.table",
}
_NUMERIC_KEYS = {"panels", "tol", "cap"}
_STABILITY_KEYS = {
    "stability.mode", "stability.perturbation", "stability.epsilon",
    "stability.phi", "stability.lambda_phi", "stability.table",
}
_ALL_KEYS = _PROBLEM_KEYS | _RHS_PARAM_KEYS | _NUMERIC_KEYS | _STABILITY_KEYS


@dataclass
class RunConfig:
    """Parsed configuration; the problem is materialized per grid on demand."""

    alpha: float
    beta_type: float
    b: float
    c1: float
    c2: float
    phi: float
    rhs_kind: str
    rhs_params: dict = field(default_factory=dict)
    rhs_table: Optional[list] = None
    panels: int = 512
    tol: float = 1e-10
    cap: int = 200
    stability_mode: str = "uh"
    perturbation_kind: str = "constant"
    epsilons: tuple = (1e-3,)
    phi_kind: str = "one"
    lambda_phi: Optional[float] = None
    stability_table: Optional[list] = None

    @property
    def order(self) -> Order:
        return Order(self.alpha, self.beta_type)

    def grid(self) -> LogGrid:
        return LogGrid(self.b, self.panels)

    def problem(self, grid: Optional[LogGrid] = None) -> ProblemSpec:
        grid = grid if grid is not None else self.grid()
        order = self.order
        if self.rhs_kind == PAPER_EXAMPLE:
            rhs = paper_example_rhs()
        elif self.rhs_kind == MANUFACTURED:
            p = self.rhs_params
            rhs = manufactured_rhs(
                order, self.b,
                exponent=p.get("exponent", 2.0),
                coeff=p.get("coeff", 1.0),
                critical_coeff=p.get("critical_coeff", 0.0),
            )
        elif self.rhs_kind == AFFINE:
            p = self.rhs_params
            rhs = affine_rhs(
                p.get("g0", 0.0), p.get("g1", 0.0),
                p.get("a", 0.0), p.get("c", 0.0), self.b,
            )
        else:
            if self.rhs_table is None:
                raise ConfigError("custom-table rhs needs rhs.table")
            if len(self.rhs_table) != grid.n_nodes:
                raise ConfigError(
                    f"rhs.table has {len(self.rhs_table)} values; "
                    f"grid with {self.panels} panels needs {grid.n_nodes}"
                )
            rhs = table_rhs(GridFunction(grid, order.gamma, self.rhs_table))
        return ProblemSpec(
            order=order, b=self.b, c1=self.c1, c2=self.c2, phi=self.phi, rhs=rhs
        )

    def phi_profile(self, grid: LogGrid) -> GridFunction:
        g = self.order.gamma
        if self.phi_kind == "one":
            return log_power(grid, g, 0.0)
        if self.phi_kind == "critical-log-power":
            return log_power(grid, g, g - 1.0)
        raise ConfigError(f"unknown stability.phi {self.phi_kind!r}")

    def suggested_lambda_phi(self) -> float:
        """The sharp comparison constant for the built-in profiles."""
        order = self.order
        logb = math.log(self.b)
        if self.phi_kind == "one":
            return logb**order.alpha / math.gamma(order.alpha + 1.0)
        return (
            math.gamma(order.gamma)
            / math.gamma(order.gamma + order.alpha)
            * logb**order.alpha
        )


def _number(raw: str, where: str) -> float:
    raw = raw.strip()
    if raw == "e":
        return math.e
    if "/" in raw:
        parts = raw.split("/")
        if len(parts) != 2:
            raise ConfigError(f"{where}: malformed fraction {raw!r}")
        try:
            return float(parts[0]) / float(parts[1])
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{where}: malformed fraction {raw!r}") from exc
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: not a number: {raw!r}") from exc


def _number_list(raw: str, where: str) -> list:
    return [_number(part, where) for part in raw.split(",") if part.strip()]


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse a flat key = value configuration with line-anchored errors."""
    entries = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        entries[key] = (value, lineno)

    def where(key):
        return f"{source}:{entries[key][1]}: {key}"

    def need(key):
        if key not in entries:
            raise ConfigError(f"{source}: missing required key {key!r}")
        return entries[key][0]

    def num(key, default=None):
        if key not in entries:
            return default
        return _number(entries[key][0], where(key))

    def intval(key, default):
        if key not in entries:
            return default
        v = _number(entries[key][0], where(key))
        if v != int(v):
            raise ConfigError(f"{where(key)}: expected an integer, got {v!r}")
        return int(v)

    rhs_kind = need("rhs")
    if rhs_kind not in (PAPER_EXAMPLE, MANUFACTURED, AFFINE, CUSTOM_TABLE):
        raise ConfigError(f"{where('rhs')}: unknown rhs kind {rhs_kind!r}")

    rhs_params = {}
    for key in ("exponent", "coeff", "critical_coeff", "g0", "g1", "a", "c"):
        full = f"rhs.{key}"
        if full in entries:
            rhs_params[key] = _number(entries[full][0], where(full))
    rhs_table = None
    if "rhs.table" in entries:
        rhs_table = _number_list(entries["rhs.table"][0], where("rhs.table"))

    mode = entries.get("stability.mode", ("uh", 0))[0]
    if mode not in ("uh", "uhr"):
        raise ConfigError(f"{where('stability.mode')}: unknown mode {mode!r}")
    pert = entries.get("stability.perturbation", ("constant", 0))[0]
    if pert not in ("constant", "log-power", "supplied-table"):
        raise ConfigError(
            f"{where('stability.perturbation')}: unknown perturbation {pert!r}"
        )
    phi_kind = entries.get("stability.phi", ("one", 0))[0]
    if phi_kind not in ("one", "critical-log-power"):
        raise ConfigError(f"{where('stability.phi')}: unknown profile {phi_kind!r}")
    if "stability.epsilon" in entries:
        epsilons = tuple(
            _number_list(entries["stability.epsilon"][0], where("stability.epsilon"))
        )
    else:
        epsilons = (1e-3,)
    stab_table = None
    if "stability.table" in entries:
        stab_table = _number_list(entries["stability.table"][0], where("stability.table"))

    config = RunConfig(
        alpha=_number(need("alpha"), where("alpha")),
        beta_type=_number(need("beta"), where("beta")),
        b=_number(need("b"), where("b")),
        c1=_number(need("c1"), where("c1")),
        c2=_number(need("c2"), where("c2")),
        phi=num("phi", 0.0),
        rhs_kind=rhs_kind,
        rhs_params=rhs_params,
        rhs_table=rhs_table,
        panels=intval("panels", 512),
        tol=num("tol", 1e-10),
        cap=intval("cap", 200),
        stability_mode=mode,
        perturbation_kind=pert,
        epsilons=epsilons,
        phi_kind=phi_kind,
        lambda_phi=num("stability.lambda_phi"),
        stability_table=stab_table,
    )

    # re-check the problem invariants here so the message cites the file
    try:
        Order(config.alpha, config.beta_type)
    except DomainError as exc:
        raise ConfigError(f"{where('alpha')}: {exc}") from exc
    if not 1.0 < config.b < math.inf:
        raise ConfigError(f"{where('b')}: b must be finite and exceed 1")
    if config.c1 + config.c2 == 0.0:
        raise ConfigError(f"{where('c1')}: c1 + c2 must be nonzero")
    if config.c2 == 0.0:
        raise ConfigError(f"{where('c2')}: c2 must be nonzero")
    if any(eps <= 0.0 for eps in config.epsilons):
        raise ConfigError(f"{where('stability.epsilon')}: epsilons must be positive")
    if config.panels < 2:
        raise ConfigError(f"{where('panels')}: need at least 2 panels")
    return config


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), source=path)
