"""The solver's array-level Picard loop against a plain reference loop.

The reference iterates ``u <- Z (log t)^(gamma-1) + I^alpha F_u`` over grid
functions, one public operator call at a time: F_u from the catalog's
closed-form implicit solve, Z through the quadrature plan's ``value_at_b``
and the integral through ``hadamard_integral``, and the boundary defect with
F_u(1+) extrapolated by the three-point rule written out.  The solver
performs the same floating-point operations in the same order on weighted
arrays, so every output must agree bit for bit, and a failing solve must
fail the same way.  ``residual_fide`` is pinned the same way, against
the Hilfer derivative minus the written-out F_u.
"""

import math
import warnings

import numpy as np
import pytest

from hhfrac.errors import ConvergenceError, DomainError
from hhfrac.grids import GridFunction, LogGrid, Order, log_power, weighted_norm
from hhfrac.hadamard import (
    _panel_weights,
    hadamard_integral,
    hilfer_hadamard_derivative,
    quadrature_plan,
)
from hhfrac.problems import (
    ProblemSpec,
    affine_rhs,
    manufactured_problem,
    paper_example_problem,
    table_rhs,
)
from hhfrac.solver import (
    DEFAULT_CAP,
    DEFAULT_TOL,
    picard_solve,
    residual_fide,
    solve_with_fixed_constant,
)
from oracles import reference_rhs, value_at_b


def boundary_z(problem):
    order = problem.order
    nu = 1.0 - order.gamma + order.alpha
    csum = problem.c1 + problem.c2

    def z_of(f_grid):
        tail = value_at_b(f_grid, nu)
        return (problem.phi / csum - problem.c2 / csum * tail) / math.gamma(order.gamma)

    return z_of


def reference_bc_defect(u, problem, f_grid):
    """The boundary defect with F(1+) extrapolated by the written-out 3-point rule."""
    order = problem.order
    g, grid = order.gamma, u.grid
    at_one = math.gamma(g) * u.weighted_limit
    candidate, correction = u, 0.0
    if grid.n_panels >= 3:
        x = grid.log_nodes
        f_rem_raw = (f_grid.weighted_values[1:4] - f_grid.weighted_limit) * x[1:4] ** (g - 1.0)
        f_at_one = 3.0 * f_rem_raw[0] - 3.0 * f_rem_raw[1] + f_rem_raw[2]
        if f_at_one != 0.0:
            mode_coeff = f_at_one / math.gamma(order.alpha + 1.0)
            candidate = u - log_power(grid, g, order.alpha, coeff=mode_coeff)
            correction = (
                f_at_one
                / math.gamma(2.0 + order.alpha - g)
                * math.log(grid.b) ** (1.0 + order.alpha - g)
            )
    at_b = value_at_b(candidate, 1.0 - g) + correction
    return float(abs(problem.c1 * at_one + problem.c2 * at_b - problem.phi))


def reference_solve(problem, grid, z_of, z_start, shift):
    """(u, F_u, iterations, final increment, residual, bc defect) of the plain loop."""
    order, rhs = problem.order, problem.rhs

    def q(u):
        f_grid = reference_rhs(rhs, order, grid, u, shift)
        integral = hadamard_integral(f_grid, order.alpha)
        return f_grid, GridFunction(grid, order.gamma, integral.weighted_values + z_of(f_grid))

    u = GridFunction(grid, order.gamma, np.full(grid.n_nodes, z_start))
    history = []
    for _ in range(DEFAULT_CAP):
        try:
            _, u_next = q(u)
            history.append(weighted_norm(u_next - u))
        except DomainError as exc:
            # a grid function refuses non-finite values: this sweep diverged
            if "must be finite" not in str(exc):
                raise
            history.append(math.inf)
            raise ConvergenceError(
                f"successive approximation diverged: sweep {len(history)} "
                "left a non-finite iterate",
                history=history,
            ) from None
        u = u_next
        if history[-1] <= DEFAULT_TOL:
            break
    else:
        raise ConvergenceError(
            f"successive approximation did not converge within {DEFAULT_CAP} sweeps "
            f"(last increment {history[-1]:.3e})",
            history=history,
        )
    f_grid, u_next = q(u)
    residual = weighted_norm(u_next - u)
    return u, f_grid, len(history), history[-1], residual, reference_bc_defect(u, problem, f_grid)


def reference_for(entry, problem, grid):
    if entry == "picard":
        z0 = problem.phi / ((problem.c1 + problem.c2) * math.gamma(problem.order.gamma))
        return reference_solve(problem, grid, boundary_z(problem), z0, None)
    z_fixed, shift = 0.6, log_power(grid, problem.order.gamma, 0.0, coeff=1e-3)
    return reference_solve(problem, grid, lambda f: z_fixed, z_fixed, shift)


def solver_for(entry, problem, grid):
    if entry == "picard":
        u, report = picard_solve(problem, grid)
    else:
        g = problem.order.gamma
        shift = log_power(grid, g, 0.0, coeff=1e-3)
        start = log_power(grid, g, g - 1.0, 0.6)
        u, report = solve_with_fixed_constant(problem, grid, start, shift=shift)
    return (
        u, report.F_u, report.iterations, report.final_update_norm,
        report.residual_norm, report.bc_defect,
    )


def outcome(solve, entry, problem, grid):
    """The solve's outputs, or the type and message of what it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return solve(entry, problem, grid)
        except (ConvergenceError, DomainError) as exc:
            return type(exc).__name__, str(exc)


def assert_bitwise(a, b):
    assert a.gamma_weight == b.gamma_weight
    np.testing.assert_array_equal(a.weighted_values, b.weighted_values)
    assert a.weighted_values.tobytes() == b.weighted_values.tobytes()


def affine_problem(beta, a=0.25, b=2.5):
    # a != 0 gives F_u a nonzero weighted limit, hence a leading mode
    return ProblemSpec(
        order=Order(0.4, beta), b=b, c1=1.0, c2=1.5, phi=0.8,
        rhs=affine_rhs(0.3, -0.2, a, 0.3, b),
    )


# coeff = 0 leaves only the critical mode: F = 0 and F(1+) = 0 exactly
ZERO_RHS = manufactured_problem(Order(0.4, 0.5), 2.5, 1.0, 1.5, coeff=0.0, critical_coeff=0.7)

PROBLEMS = {
    "paper-example": paper_example_problem(),
    "affine-beta-0": affine_problem(0.0),
    "affine-beta-0.999": affine_problem(0.999),
    "manufactured-zero-rhs": ZERO_RHS,
}
ENTRIES = ("picard", "fixed")


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("name", PROBLEMS)
@pytest.mark.parametrize("n_panels", [5, 6, 64, 512])
def test_solves_match_reference_bitwise(n_panels, name, entry):
    problem = PROBLEMS[name]
    grid = LogGrid(problem.b, n_panels)
    expected = outcome(reference_for, entry, problem, grid)
    got = outcome(solver_for, entry, problem, grid)
    assert isinstance(got, tuple) and len(got) == 6, got
    assert_bitwise(got[0], expected[0])
    assert_bitwise(got[1], expected[1])
    assert got[2:] == expected[2:]


def test_leading_mode_is_exercised():
    problem = PROBLEMS["affine-beta-0"]
    u, f_grid, *_ = solver_for("picard", problem, LogGrid(problem.b, 64))
    assert f_grid.weighted_limit != 0.0


def test_zero_mode_is_exercised():
    # the reference defect skips its mode correction here; the solver's runs
    u, f_grid, *_ = solver_for("picard", ZERO_RHS, LogGrid(ZERO_RHS.b, 64))
    assert not np.any(f_grid.weighted_values)


@pytest.mark.parametrize("entry", ENTRIES)
def test_beta_one_fails_like_reference(entry):
    # gamma = alpha + (1 - alpha) rounds to 1, outside every weight class
    problem = affine_problem(1.0)
    grid = LogGrid(problem.b, 64)
    got = outcome(solver_for, entry, problem, grid)
    assert got == outcome(reference_for, entry, problem, grid)
    assert got[0] == "DomainError" and "gamma_weight" in got[1]


@pytest.mark.parametrize(
    "entry, raised",
    [
        # Z follows the overflowing tail, and a non-finite iterate ends the
        # solve as a failed solve
        ("picard", ("ConvergenceError", "successive approximation diverged: sweep")),
        # with Z frozen the map is a Volterra operator: its iterates grow to
        # about 1e276 and the increments are still above tol at the cap
        ("fixed", ("ConvergenceError", "successive approximation did not converge")),
    ],
)
def test_diverging_affine_problem_fails_like_reference(entry, raised):
    problem = affine_problem(0.0, a=60.0, b=math.e)
    grid = LogGrid(problem.b, 64)
    got = outcome(solver_for, entry, problem, grid)
    assert got[0] == raised[0] and got[1].startswith(raised[1])
    assert got == outcome(reference_for, entry, problem, grid)


def reference_residual_fide(u, problem):
    """The weighted sup of D^(alpha,beta) u - F_u over the interior window."""
    grid, order = u.grid, problem.order
    d = hilfer_hadamard_derivative(u, order)
    f_grid = reference_rhs(problem.rhs, order, grid, u)
    lo = max(2, grid.n_panels // 64) + 1
    hi = grid.n_panels - 2
    weighted = np.abs(d.raw_tail() - f_grid.raw_tail()) * grid.log_nodes[1:] ** (1.0 - order.gamma)
    return float(np.max(weighted[lo - 1 : hi]))


def residual_problem(name, grid):
    if name == "custom-table":
        # a nonzero weighted limit gives F_u a leading mode
        order = Order(0.4, 0.3)
        table = GridFunction(grid, order.gamma, 0.4 + np.sin(3.0 * grid.log_nodes))
        return ProblemSpec(order=order, b=grid.b, c1=1.0, c2=1.5, phi=0.8, rhs=table_rhs(table))
    if name == "manufactured":
        return manufactured_problem(Order(0.4, 0.5), 2.5, 1.0, 1.5, exponent=2.5, coeff=1.3,
                                    critical_coeff=0.7)
    return PROBLEMS[name]


@pytest.mark.parametrize(
    "name", ["paper-example", "affine-beta-0", "manufactured", "custom-table"]
)
@pytest.mark.parametrize("n_panels", [5, 64, 512])
def test_residual_fide_matches_reference_bitwise(n_panels, name):
    b = 2.5 if name in ("manufactured", "custom-table") else PROBLEMS[name].b
    grid = LogGrid(b, n_panels)
    problem = residual_problem(name, grid)
    u, _ = picard_solve(problem, grid)
    # the solution, and a candidate far from it
    for candidate in (u, 0.7 * u + log_power(grid, problem.order.gamma, 0.5, coeff=0.2)):
        got = residual_fide(candidate, problem)
        assert got == reference_residual_fide(candidate, problem)


@pytest.mark.parametrize("n_panels", [1, 5, 512])
@pytest.mark.parametrize("mu", [1.0 / 3.0, 0.7, 1.5])
def test_cached_plan_is_read_only_and_matches_fresh_transforms(n_panels, mu):
    # the two 128-entry caches age apart (the plan cache takes every
    # lookup), so after enough other orders the weights cache may have
    # dropped a live plan's entry; start both empty
    quadrature_plan.cache_clear()
    _panel_weights.cache_clear()
    grid = LogGrid(math.e, n_panels)
    plan = quadrature_plan(mu, grid.h, n_panels)
    assert quadrature_plan(mu, grid.h, n_panels) is plan
    a, d = _panel_weights(mu, grid.h, n_panels)
    size = 1 << (2 * n_panels - 2).bit_length()
    assert plan.fft_size == size
    assert plan.gamma_mu == math.gamma(mu)
    assert plan.a is a
    assert plan.d_reversed.tobytes() == d[::-1].tobytes()
    assert plan.spectrum.tobytes() == np.fft.rfft(d, size).tobytes()
    assert plan.spectrum is plan.spectrum
    for array in (plan.a, plan.d_reversed, plan.spectrum):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


@pytest.mark.parametrize("n_panels", [1, 2, 5, 64, 513])
@pytest.mark.parametrize("gw, limit", [(0.0, 0.0), (7.0 / 9.0, 0.0), (7.0 / 9.0, 0.8)])
def test_plan_matches_uncached_quadrature_bitwise(n_panels, gw, limit):
    """The operators through the cached plan equal the rule written out in full."""
    grid = LogGrid(1.7, n_panels)
    x = grid.log_nodes[1:]
    w = limit + np.sin(3.0 * grid.log_nodes) + 0.5 * grid.log_nodes**2
    w[0] = limit
    f = GridFunction(grid, gw, w)
    for mu in (0.2, 2.0 / 3.0, 1.5):
        rem = np.array(f.weighted_values)
        rem -= limit
        g = rem[1:] * x ** (gw - 1.0)
        if n_panels >= 3:
            g0 = 3.0 * g[0] - 3.0 * g[1] + g[2]
        elif n_panels == 2:
            g0 = 2.0 * g[0] - g[1]
        else:
            g0 = g[0]
        mode = limit * math.exp(math.lgamma(gw) - math.lgamma(gw + mu)) if limit else 0.0
        a, d = _panel_weights(mu, grid.h, n_panels)
        size = 1 << (2 * n_panels - 2).bit_length()
        spectrum = np.fft.rfft(g, size)
        spectrum *= np.fft.rfft(d, size)
        raw = np.fft.irfft(spectrum, size)[:n_panels]
        raw += g0 * a
        raw /= math.gamma(mu)
        out = np.zeros(grid.n_nodes)
        out[1:] = raw * x ** (1.0 - gw)
        if mode:
            out[1:] += mode * x**mu
        assert hadamard_integral(f, mu).weighted_values.tobytes() == out.tobytes()

        xb = math.log(grid.b)
        at_b = (np.dot(g, d[::-1]) + g0 * a[-1]) / math.gamma(mu) * xb ** (1.0 - gw)
        if mode:
            at_b += mode * xb**mu
        assert value_at_b(f, mu) == float(at_b) * xb ** (gw - 1.0)
