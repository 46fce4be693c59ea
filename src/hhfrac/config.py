"""Flat ``key = value`` problem configurations.

One problem per file; ``#`` starts a comment.  Numeric values accept plain
floats, simple fractions like ``1/3``, and the literal ``e``.  One key table
maps each key to its ``RunConfig`` field and parser, and one list of checks
validates the result; ``overrides`` (the ``--panels``, ``--tol`` and
``--phi`` flags) take the same path.  Errors cite ``file:line: key``, or the
flag.  Defaults are stated on :class:`RunConfig` only.

Recognized keys::

    alpha, beta, b, c1, c2, phi          problem data
    rhs                                  catalog kind
    rhs.exponent rhs.coeff rhs.critical_coeff     manufactured-log-power
    rhs.g0 rhs.g1 rhs.a rhs.c                     affine-in-uv
    rhs.table                                     custom-table (comma list of
                                                  panels+1 finite weighted values)
    panels, tol, cap                     numerics (>= 5, finite > 0, >= 1)
    stability.mode                       uh | uhr
    stability.perturbation               constant | log-power | supplied-table
                                         (supplied-table only with mode uh)
    stability.epsilon                    finite positive float or comma list
    stability.phi                        one | critical-log-power
    stability.lambda_phi                 comparison constant for uhr (finite > 0;
                                         default the phi profile's sharp one)
    stability.table                      comma list for supplied-table (panels+1,
                                         finite)

An ``rhs.<name>`` key that the chosen kind does not take is an error, and
so is a value outside the kind's domain (``rhs.c = 1`` under
``affine-in-uv``), cited at the ``rhs`` line.
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
from .solver import DEFAULT_CAP, DEFAULT_TOL
from .stability import CONSTANT, LOG_POWER, SUPPLIED


class ConfigError(ValueError):
    """A malformed or inconsistent configuration entry."""


# the rhs.<name> parameters each catalog kind takes
_RHS_PARAMS = {
    PAPER_EXAMPLE: (),
    MANUFACTURED: ("exponent", "coeff", "critical_coeff"),
    AFFINE: ("g0", "g1", "a", "c"),
    CUSTOM_TABLE: ("table",),
}
# keys that the command-line flags --panels, --tol and --phi set
FLAGS = ("panels", "tol", "phi")
_REQUIRED = ("alpha", "beta", "b", "c1", "c2", "rhs")


@dataclass(frozen=True)
class RunConfig:
    """A validated configuration; the problem is materialized per grid on demand."""

    alpha: float
    beta_type: float
    b: float
    c1: float
    c2: float
    rhs_kind: str
    phi: float = 0.0
    rhs_params: dict = field(default_factory=dict)
    rhs_table: Optional[tuple] = None
    panels: int = 512
    tol: float = DEFAULT_TOL
    cap: int = DEFAULT_CAP
    stability_mode: str = "uh"
    perturbation_kind: str = CONSTANT
    epsilons: tuple = (1e-3,)
    phi_kind: str = "one"
    lambda_phi: Optional[float] = None
    stability_table: Optional[tuple] = None

    @property
    def order(self) -> Order:
        return Order(self.alpha, self.beta_type)

    def grid(self) -> LogGrid:
        return LogGrid(self.b, self.panels)

    def problem(self, grid: Optional[LogGrid] = None) -> ProblemSpec:
        order = self.order
        if self.rhs_kind == PAPER_EXAMPLE:
            rhs = paper_example_rhs()
        elif self.rhs_kind == MANUFACTURED:
            rhs = manufactured_rhs(order, self.b, **self.rhs_params)
        elif self.rhs_kind == AFFINE:
            # an affine coefficient that is not given is zero
            coeffs = dict.fromkeys(_RHS_PARAMS[AFFINE], 0.0) | self.rhs_params
            rhs = affine_rhs(b=self.b, **coeffs)
        else:
            grid = grid if grid is not None else self.grid()
            rhs = table_rhs(GridFunction(grid, order.gamma, self.rhs_table))
        return ProblemSpec(
            order=order, b=self.b, c1=self.c1, c2=self.c2, phi=self.phi, rhs=rhs
        )

    def phi_profile(self, grid: LogGrid) -> GridFunction:
        g = self.order.gamma
        return log_power(grid, g, 0.0 if self.phi_kind == "one" else g - 1.0)

    @property
    def rassias_lambda_phi(self) -> Optional[float]:
        """The Rassias comparison constant that ``certify`` and ``stability`` use.

        The configured ``stability.lambda_phi``; without one, the sharp
        constant of the built-in phi profile in ``uhr`` mode, and None in
        ``uh`` mode.
        """
        if self.lambda_phi is not None or self.stability_mode != "uhr":
            return self.lambda_phi
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


def _integer(raw: str, where: str) -> int:
    v = _number(raw, where)
    if not math.isfinite(v) or v != int(v):
        raise ConfigError(f"{where}: expected an integer, got {v!r}")
    return int(v)


def _number_list(raw: str, where: str) -> tuple:
    return tuple(_number(part, where) for part in raw.split(",") if part.strip())


def _choice(*options):
    def parse(raw: str, where: str) -> str:
        if raw not in options:
            raise ConfigError(
                f"{where}: unknown value {raw!r}; expected {' | '.join(options)}"
            )
        return raw

    return parse


# key -> (RunConfig field, parser); rhs.<name> values collect in rhs_params
_KEYS = {
    "alpha": ("alpha", _number),
    "beta": ("beta_type", _number),
    "b": ("b", _number),
    "c1": ("c1", _number),
    "c2": ("c2", _number),
    "phi": ("phi", _number),
    "rhs": ("rhs_kind", _choice(*_RHS_PARAMS)),
    **{
        f"rhs.{name}": ("rhs_params", _number)
        for name in _RHS_PARAMS[MANUFACTURED] + _RHS_PARAMS[AFFINE]
    },
    "rhs.table": ("rhs_table", _number_list),
    "panels": ("panels", _integer),
    "tol": ("tol", _number),
    "cap": ("cap", _integer),
    "stability.mode": ("stability_mode", _choice("uh", "uhr")),
    "stability.perturbation": ("perturbation_kind", _choice(CONSTANT, LOG_POWER, SUPPLIED)),
    "stability.epsilon": ("epsilons", _number_list),
    "stability.phi": ("phi_kind", _choice("one", "critical-log-power")),
    "stability.lambda_phi": ("lambda_phi", _number),
    "stability.table": ("stability_table", _number_list),
}


def _violations(c: RunConfig, keys):
    """(key, message) for each check the configuration fails, in order."""
    # alpha alone first (beta_type 0 is valid), so a bad beta cites its own line
    for key, beta_type in (("alpha", 0.0), ("beta", c.beta_type)):
        try:
            Order(c.alpha, beta_type)
        except DomainError as exc:
            yield key, str(exc)
            break
    if not 1.0 < c.b < math.inf:
        yield "b", "b must be finite and exceed 1"
    if c.c1 + c.c2 == 0.0:
        yield "c1", "c1 + c2 must be nonzero"
    if c.c2 == 0.0:
        yield "c2", "c2 must be nonzero"
    for key, value in (("c1", c.c1), ("c2", c.c2), ("phi", c.phi)):
        if not math.isfinite(value):
            yield key, f"{key} must be finite"
    if not c.epsilons or not all(0.0 < eps < math.inf for eps in c.epsilons):
        yield "stability.epsilon", "need one or more finite positive epsilons"
    if c.lambda_phi is not None and not 0.0 < c.lambda_phi < math.inf:
        yield "stability.lambda_phi", "lambda_phi must be finite and positive"
    # the smallest grid with an interior window for the FIDE residual
    if c.panels < 5:
        yield "panels", "need at least 5 panels"
    if not 0.0 < c.tol < math.inf:
        yield "tol", "tol must be finite and positive"
    if c.cap < 1:
        yield "cap", "cap must be at least 1"
    for key in keys:
        if key.startswith("rhs.") and key[4:] not in _RHS_PARAMS[c.rhs_kind]:
            yield key, f"rhs kind {c.rhs_kind!r} takes no parameter {key[4:]!r}"
    if c.rhs_kind == CUSTOM_TABLE and c.rhs_table is None:
        yield "rhs", "custom-table rhs needs rhs.table"
    if c.perturbation_kind == SUPPLIED and c.stability_table is None:
        yield "stability.perturbation", "supplied-table perturbation needs stability.table"
    if c.perturbation_kind == SUPPLIED and c.stability_mode == "uhr":
        yield "stability.perturbation", (
            "a supplied table has no phi profile; stability.mode = uhr needs one"
        )
    for key, table in (("rhs.table", c.rhs_table), ("stability.table", c.stability_table)):
        if table is not None and len(table) != c.panels + 1:
            yield key, f"{len(table)} values; {c.panels} panels need {c.panels + 1}"
        elif table is not None and not all(map(math.isfinite, table)):
            yield key, "table values must be finite"
    # the catalog factory checks the kind's own domain, e.g. |c| < 1
    try:
        c.problem()
    except DomainError as exc:
        yield "rhs", str(exc)


def parse_config(
    text: str, source: str = "<config>", overrides: Optional[dict] = None
) -> RunConfig:
    """Parse and validate a configuration with line-anchored errors.

    ``overrides`` maps keys of :data:`FLAGS` to raw values that replace the
    file's entries; their errors cite the flag, e.g. ``--panels``.
    """
    entries = {}  # key -> (raw value, citation)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        entries[key] = (value, f"{source}:{lineno}: {key}")
    for key, value in (overrides or {}).items():
        if key not in FLAGS:
            raise ConfigError(f"--{key}: not a command-line flag")
        entries[key] = (str(value).strip(), f"--{key}")
    for key in _REQUIRED:
        if key not in entries:
            raise ConfigError(f"{source}: missing required key {key!r}")

    values = {}
    for key, (raw, where) in entries.items():
        name, parse = _KEYS[key]
        if name == "rhs_params":
            values.setdefault(name, {})[key[4:]] = parse(raw, where)
        else:
            values[name] = parse(raw, where)
    config = RunConfig(**values)
    for key, message in _violations(config, entries):  # the first failed check
        raise ConfigError(f"{entries[key][1]}: {message}")
    return config


def load_config(path: str, overrides: Optional[dict] = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return parse_config(text, source=path, overrides=overrides)
