import dataclasses
import math

import numpy as np
import pytest

import reference_values as ref
from oracles import reference_implicit_solution, reference_rhs
from hhfrac.certificates import uniqueness_constant
from hhfrac.errors import ConvergenceError, DomainError, GridMismatchError
from hhfrac.grids import GridFunction, LogGrid, Order, log_power, weighted_norm
from hhfrac.problems import (
    ImplicitRoot,
    ProblemSpec,
    affine_rhs,
    manufactured_problem,
    manufactured_rhs,
    manufactured_solution,
    paper_example_problem,
    paper_example_rhs,
    table_rhs,
)
from hhfrac.solver import (
    apply_Q,
    picard_solve,
    residual_fide,
    solve_with_fixed_constant,
)

ORDER = Order(1.0 / 3.0, 2.0 / 3.0)


def zero_problem(phi=1.0):
    return posed(affine_rhs(0.0, 0.0, 0.0, 0.0, math.e), phi)


def posed(rhs, phi=1.0):
    """The boundary-value problem on [1, e] with right-hand side ``rhs``."""
    return ProblemSpec(order=ORDER, b=math.e, c1=2.0, c2=1.0, phi=phi, rhs=rhs)


class TestProblemSpec:
    def test_boundary_coefficient_invariants(self):
        rhs = paper_example_rhs()
        with pytest.raises(DomainError):
            ProblemSpec(order=ORDER, b=math.e, c1=1.0, c2=-1.0, phi=0.0, rhs=rhs)
        with pytest.raises(DomainError):
            ProblemSpec(order=ORDER, b=math.e, c1=1.0, c2=0.0, phi=0.0, rhs=rhs)

    @pytest.mark.parametrize("b", [math.inf, math.nan])
    def test_non_finite_b_rejected(self, b):
        with pytest.raises(DomainError, match="finite b > 1"):
            ProblemSpec(order=ORDER, b=b, c1=2.0, c2=1.0, phi=0.0, rhs=paper_example_rhs())

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["c1", "c2", "phi"])
    def test_non_finite_boundary_data_rejected(self, name, value):
        with pytest.raises(DomainError, match=f"requires a finite {name}, got"):
            dataclasses.replace(paper_example_problem(), **{name: value})

    def test_rhs_metadata_invariants(self):
        with pytest.raises(DomainError):
            affine_rhs(0.0, 0.0, 0.5, 1.0, math.e)  # L_f = 1 not allowed
        with pytest.raises(DomainError):
            manufactured_rhs(ORDER, math.e, exponent=0.5)

    @pytest.mark.parametrize(
        "build",
        [
            lambda v: manufactured_rhs(ORDER, math.e, exponent=v),
            lambda v: manufactured_rhs(ORDER, math.e, coeff=v),
            lambda v: manufactured_rhs(ORDER, math.e, critical_coeff=v),
            lambda v: affine_rhs(v, 0.0, 0.0, 0.0, math.e),
            lambda v: affine_rhs(0.0, v, 0.0, 0.0, math.e),
            lambda v: affine_rhs(0.0, 0.0, v, 0.0, math.e),
            lambda v: affine_rhs(0.0, 0.0, 0.0, v, math.e),
        ],
        ids=["exponent", "coeff", "critical_coeff", "g0", "g1", "a", "c"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_catalog_parameters_rejected(self, build, value):
        with pytest.raises(DomainError):
            build(value)

    @pytest.mark.parametrize("exponent, coeff", [(400.0, 1.0), (150.0, 1e300)])
    def test_manufactured_overflow_is_a_domain_error(self, exponent, coeff):
        with pytest.raises(DomainError, match="overflows double precision"):
            manufactured_rhs(ORDER, math.e, exponent=exponent, coeff=coeff)


EPS = np.finfo(float).eps


def _bisected_root(t, u, shift, guess):
    """Root of z = P (1 + |u|/(1+|u|) + |z|/(1+|z|)) + shift, P = 1/(t(2+t)).

    40-digit bisection on the exact values of the double inputs.
    h(z) = z - q - P |z|/(1+|z|) has slope >= 1 - P > 0, and the root lies
    in [-(|q| + P), |q| + P].  That bracket is narrowed to guess +- 1e-14
    (P + |shift| + |guess|) only where the signs of h confirm it holds the
    root, so the result does not depend on the guess.
    """
    import mpmath

    with mpmath.workdps(40):
        t, u, shift, g = (mpmath.mpf(v) for v in (t, u, shift, guess))
        p = 1 / (t * (2 + t))
        q = p * (1 + abs(u) / (1 + abs(u))) + shift

        def h(z):
            return z - q - p * abs(z) / (1 + abs(z))

        lo, hi = -abs(q) - p, abs(q) + p
        d = mpmath.mpf(1e-14) * (p + abs(shift) + abs(g))
        if h(g - d) < 0 < h(g + d):
            lo, hi = g - d, g + d
        while hi - lo > 1e-22 * (p + abs(shift)):
            mid = (lo + hi) / 2
            if h(mid) < 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def critical_mode(grid, z):
    """The start z (log t)^(gamma-1): weighted value z at every node."""
    return log_power(grid, ORDER.gamma, ORDER.gamma - 1.0, z)


def constant_raw(grid, value):
    """The grid function with raw value ``value`` at every node t > 1."""
    return GridFunction.from_raw_callable(
        grid, ORDER.gamma, lambda t: np.full(t.shape, value)
    )


class TestInnerSolve:
    """The implicit right-hand side F_u = f(t, u, F_u) on the grid."""

    def test_v_independent_returns_direct_value(self):
        rhs = manufactured_rhs(ORDER, math.e, exponent=2.0)
        grid = LogGrid(math.e, 16)
        f_grid = reference_rhs(rhs, ORDER, grid, constant_raw(grid, 0.0))
        expected = rhs.evaluate(grid.nodes[1:], 0.0, 0.0)
        np.testing.assert_allclose(f_grid.raw_tail(), expected, rtol=1e-14, atol=0.0)

    def test_affine_closed_form(self):
        rhs = affine_rhs(g0=0.4, g1=0.2, a=0.0, c=0.5, b=math.e)
        grid = LogGrid(math.e, 16)
        f_grid = reference_rhs(rhs, ORDER, grid, constant_raw(grid, 7.0))
        expected = (0.4 + 0.2 * grid.log_nodes[1:]) / (1.0 - 0.5)
        np.testing.assert_allclose(f_grid.raw_tail(), expected, rtol=1e-14, atol=0.0)

    def test_saturating_example_fixed_point(self):
        # the last node is t = e exactly, where log t = 1
        rhs = paper_example_rhs()
        grid = LogGrid(math.e, 16)
        f_grid = reference_rhs(rhs, ORDER, grid, constant_raw(grid, 1.0))
        assert f_grid.raw_tail()[-1] == pytest.approx(ref.INNER_FIXED_POINT_AT_E, abs=1e-12)

    def test_closed_form_against_bisection(self):
        # double inputs, with a third of the shifts cancelling q to within
        # 1e-16..1e-2 relative and a few cancelling it exactly
        rng = np.random.default_rng(6)
        n = 1500
        t = np.exp(rng.uniform(0.0, 3.0, n))
        u = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 3.0, n)
        shift = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12.0, 1.0, n)
        base = 1.0 / (t * (2.0 + t)) * (1.0 + np.abs(u) / (1.0 + np.abs(u)))
        near = slice(0, n // 3)
        rel = rng.choice([-1.0, 1.0], n // 3) * 10.0 ** rng.uniform(-16.0, -2.0, n // 3)
        shift[near] = -base[near] * (1.0 + rel)
        shift[:10] = -base[:10]
        z = ImplicitRoot(paper_example_rhs(), t).solve(u, shift)
        for i in range(n):
            exact = _bisected_root(t[i], u[i], shift[i], z[i])
            p = 1.0 / (t[i] * (2.0 + t[i]))
            bound = 4.0 * EPS * (p + abs(shift[i]) + abs(float(exact)))
            assert abs(z[i] - exact) <= bound, (t[i], u[i], shift[i], z[i], exact)

    @pytest.mark.parametrize("shift", [0.0, 1e-3, -0.2])
    def test_closed_form_matches_iterated_fixed_point(
        self, section5, grid512, section5_solution, shift
    ):
        # the iteration z <- f(t, u, z) + shift, run here only as an oracle
        u, _ = section5_solution
        rhs = section5.rhs
        t, u_raw = grid512.nodes[1:], u.raw_tail()
        z = rhs.evaluate(t, u_raw, 0.0) + shift
        for _ in range(200):
            z_next = rhs.evaluate(t, u_raw, z) + shift
            step = np.max(np.abs(z_next - z))
            z = z_next
            if step <= 1e-15:
                break
        else:
            pytest.fail("oracle iteration did not settle")
        closed = ImplicitRoot(rhs, t).solve(u_raw, shift)
        np.testing.assert_allclose(closed, z, rtol=0.0, atol=1e-12)


class TestImplicitRoot:
    """The per-solve root is bit for bit the written-out closed form."""

    RHS = {
        "paper-example": paper_example_rhs(),
        "affine": affine_rhs(0.3, -0.2, 0.25, 0.3, math.e),
        "affine-negative": affine_rhs(-0.7, 0.9, -0.3, -0.5, math.e),
        "manufactured": manufactured_rhs(ORDER, math.e, exponent=2.5, coeff=-1.3),
    }

    @staticmethod
    def draws(n, seed):
        """Raw u with zeros of both signs, and shifts: scalars and arrays of both signs."""
        rng = np.random.default_rng(seed)
        u = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 3.0, n)
        u[::7], u[3::11] = 0.0, -0.0
        shift = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12.0, 1.0, n)
        shift[::13] = -0.0
        return u, [0.0, -0.0, 1e-3, -0.2, shift]

    @pytest.mark.parametrize("n_panels", [5, 512, 8192])
    @pytest.mark.parametrize("name", RHS)
    def test_bitwise_against_written_out_root(self, name, n_panels):
        rhs = self.RHS[name]
        t = LogGrid(math.e, n_panels).nodes[1:]
        root = ImplicitRoot(rhs, t)
        u, shifts = self.draws(t.size, n_panels)
        u_before = u.copy()
        for shift in shifts:
            expected = reference_implicit_solution(rhs, t, u, shift).tobytes()
            assert root.solve(u, shift).tobytes() == expected
            out = np.full(t.size + 1, np.nan)
            root.solve(u, shift, out=out[1:])
            assert out[1:].tobytes() == expected
            assert ImplicitRoot(rhs, t).solve(u, shift).tobytes() == expected
        assert u.tobytes() == u_before.tobytes()

    def test_saturating_root_cancelling_shift(self):
        # shifts that cancel q exactly or leave B < 0 take the other branch
        rhs = self.RHS["paper-example"]
        t = LogGrid(math.e, 64).nodes[1:]
        u = np.linspace(-2.0, 2.0, t.size)
        q = 1.0 / (t * (2.0 + t)) * (1.0 + np.abs(u) / (1.0 + np.abs(u)))
        for shift in (-q, -q * (1.0 + 1e-9), -3.0 * q, np.full(t.size, -1.5)):
            expected = reference_implicit_solution(rhs, t, u, shift)
            assert ImplicitRoot(rhs, t).solve(u, shift).tobytes() == expected.tobytes()


class TestBoundaryConstant:
    """Z_u is the weighted limit of Q u: the integral part vanishes at 1+."""

    def test_zero_rhs(self, grid512):
        problem = zero_problem(phi=1.0)
        u = log_power(grid512, ORDER.gamma, ORDER.gamma - 1.0)
        expected = 1.0 / ((problem.c1 + problem.c2) * math.gamma(ORDER.gamma))
        assert apply_Q(u, problem).weighted_limit == pytest.approx(expected, rel=1e-14)

    def test_against_adaptive_quadrature_oracle(self, section5, grid512):
        # first Picard iterate; the oracle resolves the implicit value by
        # bracketed root finding and integrates adaptively with the
        # algebraic endpoint weight.  The discrete value converges at the
        # quadrature's rate for the kinked saturating right-hand side,
        # which at 512 panels leaves a few units in the sixth decimal.
        from scipy import integrate, optimize

        g, a = ORDER.gamma, ORDER.alpha
        nu = 1.0 - g + a
        logb = math.log(section5.b)
        csum = section5.c1 + section5.c2
        z0 = section5.phi / (csum * math.gamma(g))

        def implicit_value(s):
            t = math.exp(s)
            u = z0 * s ** (g - 1.0)
            return optimize.brentq(
                lambda z: section5.rhs.evaluate(t, u, z) - z, 0.0, 1.0, xtol=1e-15
            )

        integral, _ = integrate.quad(
            implicit_value, 0.0, logb, weight="alg", wvar=(0.0, nu - 1.0), limit=200
        )
        oracle = (
            section5.phi / csum - section5.c2 / csum * integral / math.gamma(nu)
        ) / math.gamma(g)

        u1 = GridFunction(grid512, g, np.full(grid512.n_nodes, z0))
        assert apply_Q(u1, section5).weighted_limit == pytest.approx(oracle, abs=1e-5)


class TestApplyQ:
    def test_zero_rhs_zero_phi_fixed_at_zero(self, grid512):
        problem = zero_problem(phi=0.0)
        rng = np.random.default_rng(5)
        u = GridFunction(grid512, ORDER.gamma, rng.uniform(-1, 1, grid512.n_nodes))
        assert weighted_norm(apply_Q(u, problem)) == 0.0

    def test_manufactured_is_projection(self, grid512):
        # K_f = L_f = 0: Q(u) equals the exact solution for any input u
        problem = manufactured_problem(ORDER, math.e, 2.0, 1.0)
        exact = manufactured_solution(problem, grid512)
        rng = np.random.default_rng(6)
        for _ in range(3):
            u = GridFunction(grid512, ORDER.gamma, rng.uniform(-1, 1, grid512.n_nodes))
            assert weighted_norm(apply_Q(u, problem) - exact) < 1e-3

    def test_contraction_below_certified_modulus(self, section5, grid512):
        a_const = uniqueness_constant(section5)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(20):
            wu = rng.uniform(-1.0, 1.0, grid512.n_nodes)
            wv = rng.uniform(-1.0, 1.0, grid512.n_nodes)
            u = GridFunction(grid512, ORDER.gamma, wu / np.max(np.abs(wu)))
            v = GridFunction(grid512, ORDER.gamma, wv / np.max(np.abs(wv)))
            ratio = weighted_norm(apply_Q(u, section5) - apply_Q(v, section5)) / weighted_norm(u - v)
            worst = max(worst, ratio)
        assert worst <= 1.05 * a_const


class TestPicardSolve:
    def test_manufactured_recovery(self, grid512):
        problem = manufactured_problem(ORDER, math.e, 2.0, 1.0)
        u, report = picard_solve(problem, grid512)
        assert report.iterations <= 3
        assert weighted_norm(u - manufactured_solution(problem, grid512)) <= 1e-3
        assert report.bc_defect <= 1e-6

    def test_critical_mode_recovered_to_rounding(self, grid512):
        # coeff = 0: the exact solution is the critical mode, the solver's start
        problem = manufactured_problem(ORDER, math.e, 2.0, 1.0, coeff=0.0, critical_coeff=0.7)
        u, report = picard_solve(problem, grid512)
        assert report.iterations == 1
        assert weighted_norm(u - manufactured_solution(problem, grid512)) <= 1e-15

    def test_zero_rhs_exact_in_one_iteration(self, grid512):
        problem = zero_problem(phi=1.0)
        u, report = picard_solve(problem, grid512)
        assert report.iterations == 1
        assert report.final_update_norm == 0.0
        assert report.bc_defect == 0.0
        expected = 1.0 / (3.0 * math.gamma(ORDER.gamma))
        assert np.max(np.abs(u.weighted_values - expected)) == 0.0

    def test_fixed_point_property(self, section5, grid512, section5_solution):
        u, report = section5_solution
        tol = 1e-10
        assert report.final_update_norm <= tol
        assert weighted_norm(apply_Q(u, section5) - u) <= 2.0 * tol

    def test_geometric_convergence_ratio(self, section5, grid512):
        # successive increments contract at least as fast as the certified
        # modulus (plus measurement slack)
        a_const = uniqueness_constant(section5)
        z0 = section5.phi / ((section5.c1 + section5.c2) * math.gamma(ORDER.gamma))
        u = GridFunction(grid512, ORDER.gamma, np.full(grid512.n_nodes, z0))
        previous = None
        for _ in range(6):
            u_next = apply_Q(u, section5)
            increment = weighted_norm(u_next - u)
            if previous is not None and previous > 1e-13:
                assert increment / previous <= a_const + 0.05
            previous = increment
            u = u_next

    def test_boundary_condition_defect(self, grid512, section5):
        # the two-point functional is reproduced to 1e-6 at 512 panels
        cases = [
            manufactured_problem(ORDER, math.e, 2.0, 1.0),
            zero_problem(phi=1.0),
            ProblemSpec(
                order=ORDER, b=math.e, c1=2.0, c2=1.0, phi=0.5,
                rhs=affine_rhs(0.3, -0.1, 0.2, 0.25, math.e),
            ),
            section5,
        ]
        for problem in cases:
            _, report = picard_solve(problem, grid512)
            assert report.bc_defect <= 1e-6

    def test_growth_bound_pointwise(self, section5, grid512, section5_solution):
        # |F_u| <= (delta* + sigma* |u|) / (1 - rho*) nodewise
        u, report = section5_solution
        rhs = section5.rhs
        f_grid = report.F_u
        bound = (rhs.delta_star + rhs.sigma_star * np.abs(u.raw_tail())) / (
            1.0 - rhs.rho_star
        )
        assert np.all(np.abs(f_grid.raw_tail()) <= bound + 1e-10)

    def test_lipschitz_bound_pointwise(self, section5, grid512):
        # |F_u - F_v| <= K_f/(1-L_f) |u - v| nodewise on random pairs
        rhs = section5.rhs
        factor = rhs.K_f / (1.0 - rhs.L_f)
        rng = np.random.default_rng(11)
        for _ in range(5):
            u = GridFunction(grid512, ORDER.gamma, rng.uniform(-1, 1, grid512.n_nodes))
            v = GridFunction(grid512, ORDER.gamma, rng.uniform(-1, 1, grid512.n_nodes))
            fu = reference_rhs(rhs, ORDER, grid512, u)
            fv = reference_rhs(rhs, ORDER, grid512, v)
            gap = np.abs(fu.raw_tail() - fv.raw_tail())
            assert np.all(gap <= factor * np.abs(u.raw_tail() - v.raw_tail()) + 1e-10)

    def test_report_carries_rhs_at_solution(self, section5, grid512, section5_solution):
        # bitwise what a fresh inner solve at the returned iterate gives
        u, report = section5_solution
        f_grid = reference_rhs(section5.rhs, ORDER, grid512, u)
        np.testing.assert_array_equal(report.F_u.weighted_values, f_grid.weighted_values)

    def test_perturbed_report_includes_shift(self, section5, grid512, section5_solution):
        u, _ = section5_solution
        h = log_power(grid512, ORDER.gamma, 0.0, coeff=1e-3)
        u_tilde, report = solve_with_fixed_constant(
            section5, grid512, critical_mode(grid512, u.weighted_limit), shift=h
        )
        f_grid = reference_rhs(section5.rhs, ORDER, grid512, u_tilde, shift=h)
        np.testing.assert_array_equal(report.F_u.weighted_values, f_grid.weighted_values)

    def test_noncontractive_inputs_warn(self, grid512):
        problem = ProblemSpec(
            order=ORDER, b=math.e, c1=2.0, c2=1.0, phi=0.0,
            rhs=affine_rhs(0.1, 0.0, 2.0, 0.0, math.e),  # K_f = 2: A > 1
        )
        with pytest.warns(UserWarning, match="contraction"):
            with pytest.raises(ConvergenceError):
                picard_solve(problem, grid512, cap=30)


class TestGridMismatch:
    """A grid on another interval than the problem's is rejected, not solved on."""

    @pytest.mark.parametrize("entry", ["picard", "fixed", "apply_Q", "residual"])
    def test_grid_on_another_interval_rejected(self, section5, entry):
        grid = LogGrid(2.0, 64)
        u = log_power(grid, ORDER.gamma, 0.0)
        call = {
            "picard": lambda: picard_solve(section5, grid),
            "fixed": lambda: solve_with_fixed_constant(section5, grid, critical_mode(grid, 0.5)),
            "apply_Q": lambda: apply_Q(u, section5),
            "residual": lambda: residual_fide(u, section5),
        }[entry]
        with pytest.raises(GridMismatchError, match="posed on"):
            call()

    def test_shift_on_another_grid_rejected(self, section5, grid512):
        shift = log_power(LogGrid(math.e, 256), ORDER.gamma, 0.0, coeff=1e-3)
        with pytest.raises(GridMismatchError, match="perturbation must live on the solve grid"):
            solve_with_fixed_constant(section5, grid512, critical_mode(grid512, 0.5), shift=shift)

    def test_shift_in_another_weight_class_rejected(self):
        # a class-0.5 shift would put its weighted limit into F_u's class-gamma limit
        grid = LogGrid(math.e, 64)
        shift = log_power(grid, 0.5, -0.5, coeff=1e-3)
        with pytest.raises(GridMismatchError, match="in the weight class of the problem"):
            solve_with_fixed_constant(
                paper_example_problem(), grid, critical_mode(grid, 0.5), shift=shift
            )

    @pytest.mark.parametrize(
        "start",
        [
            lambda grid: log_power(LogGrid(math.e, 256), ORDER.gamma, 0.0),
            lambda grid: log_power(LogGrid(2.0, grid.n_panels), ORDER.gamma, 0.0),
            lambda grid: log_power(grid, 0.5, 0.0),
            lambda grid: log_power(grid, 0.9, 0.0),
        ],
        ids=["panels", "interval", "weight-class", "weight-class-above"],
    )
    def test_start_on_another_grid_or_weight_class_rejected(self, section5, grid512, start):
        with pytest.raises(GridMismatchError, match="start must live on the solve grid"):
            solve_with_fixed_constant(section5, grid512, start(grid512))

    # apply_Q and residual_fide take their grid from u, so u has no other
    # panel count to be on; test_grid_on_another_interval_rejected covers
    # their interval case
    @pytest.mark.parametrize("gamma_weight", [0.5, 0.9])
    @pytest.mark.parametrize("entry", [apply_Q, residual_fide], ids=["apply_Q", "residual"])
    def test_operand_in_another_weight_class_rejected(
        self, section5, grid512, entry, gamma_weight
    ):
        u = log_power(grid512, gamma_weight, 0.0)
        with pytest.raises(GridMismatchError, match="u must live on the solve grid"):
            entry(u, section5)


class TestStart:
    """The first iterate of a frozen-Z solve changes its sweeps, not its fixed point."""

    def test_start_at_the_solution_stops_after_one_sweep(self, section5, grid512):
        h = log_power(grid512, ORDER.gamma, 0.0, coeff=1e-3)
        start = critical_mode(grid512, 0.5)
        u, report = solve_with_fixed_constant(section5, grid512, start, shift=h)
        v, again = solve_with_fixed_constant(section5, grid512, u, shift=h)
        assert report.iterations > 1 and again.iterations == 1
        assert weighted_norm(v - u) <= report.final_update_norm


class TestSolveArguments:
    """A cap or tol that cannot end a solve is rejected before the first sweep."""

    @pytest.mark.parametrize(
        "tol, cap",
        [(1e-10, 0), (1e-10, -1), (-1.0, 200), (0.0, 200), (math.nan, 200), (math.inf, 200)],
    )
    @pytest.mark.parametrize("entry", ["picard", "fixed"])
    def test_rejected_before_any_sweep(self, section5, grid512, monkeypatch, entry, tol, cap):
        def no_sweep(*args, **kwargs):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr("hhfrac.solver._Sweep", no_sweep)
        solve = {
            "picard": lambda: picard_solve(section5, grid512, tol=tol, cap=cap),
            "fixed": lambda: solve_with_fixed_constant(
                section5, grid512, critical_mode(grid512, 0.5), tol=tol, cap=cap
            ),
        }[entry]
        with pytest.raises(DomainError, match="cap >= 1 and a finite tol > 0"):
            solve()


class TestInitialValueSolve:
    """An initial-value solve starts at, and freezes Z at, u0 / Gamma(gamma)."""

    @staticmethod
    def solve_iv(rhs, u0, grid):
        problem = ProblemSpec(order=ORDER, b=math.e, c1=2.0, c2=1.0, phi=0.0, rhs=rhs)
        return solve_with_fixed_constant(
            problem, grid, critical_mode(grid, u0 / math.gamma(ORDER.gamma))
        )

    @staticmethod
    def iv_defect(u, u0):
        """|(I^(1-gamma) u)(1+) - u0|."""
        return abs(math.gamma(ORDER.gamma) * u.weighted_limit - u0)

    def test_zero_rhs_pure_mode(self, grid512):
        rhs = affine_rhs(0.0, 0.0, 0.0, 0.0, math.e)
        u0 = 1.7
        u, report = self.solve_iv(rhs, u0, grid512)
        assert report.iterations == 1
        expected = u0 / math.gamma(ORDER.gamma)
        assert np.max(np.abs(u.weighted_values - expected)) == 0.0
        assert self.iv_defect(u, u0) == 0.0

    def test_manufactured_recovery_with_critical_mode(self, grid512):
        # u* = (log t)^(gamma-1) + (log t)^2 has initial data Gamma(gamma)
        rhs = manufactured_rhs(ORDER, math.e, exponent=2.0, critical_coeff=1.0)
        u0 = math.gamma(ORDER.gamma)
        u, report = self.solve_iv(rhs, u0, grid512)
        x = grid512.log_nodes
        w_exact = np.empty(grid512.n_nodes)
        w_exact[0] = 1.0
        w_exact[1:] = 1.0 + x[1:] ** (3.0 - ORDER.gamma)
        exact = GridFunction(grid512, ORDER.gamma, w_exact)
        assert weighted_norm(u - exact) <= 1e-3

    def test_saturating_rhs_self_consistency(self, grid512):
        u, report = self.solve_iv(paper_example_rhs(), 1.0, grid512)
        assert report.residual_norm <= 1e-8
        assert self.iv_defect(u, 1.0) <= 1e-12


class TestResidual:
    def test_manufactured_solution_residual(self, grid512):
        problem = manufactured_problem(ORDER, math.e, 2.0, 1.0)
        u, _ = picard_solve(problem, grid512)
        assert residual_fide(u, problem) <= 1e-2

    def test_homogeneous_solution_residual(self, grid512):
        # the derivative annihilates the pure mode analytically
        problem = zero_problem(phi=1.0)
        u, _ = picard_solve(problem, grid512)
        assert residual_fide(u, problem) <= 1e-10

    def test_saturating_residual_refines_at_order_one(self, section5):
        residuals = []
        for n in (128, 256, 512):
            grid = LogGrid(math.e, n)
            u, _ = picard_solve(section5, grid)
            residuals.append(residual_fide(u, section5))
        orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
        assert min(orders) >= 1.0
        assert residuals[-1] <= 1e-2

    def test_table_rhs_round_trip(self, grid512):
        # a tabulated right-hand side solves like its manufactured source
        source = manufactured_problem(ORDER, math.e, 2.0, 1.0)
        x = grid512.log_nodes
        p = source.rhs.params
        w = np.empty(grid512.n_nodes)
        w[0] = 0.0
        w[1:] = p["f_coeff"] * x[1:] ** (p["f_exponent"] + 1.0 - ORDER.gamma)
        table = GridFunction(grid512, ORDER.gamma, w)
        problem = ProblemSpec(
            order=ORDER, b=math.e, c1=2.0, c2=1.0, phi=source.phi,
            rhs=table_rhs(table),
        )
        u, _ = picard_solve(problem, grid512)
        assert weighted_norm(u - manufactured_solution(source, grid512)) <= 1e-3
