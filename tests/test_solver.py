import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

import reference_values as ref
from oracles import reference_implicit_solution, reference_rhs
from hhfrac import solver, stability
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
from hhfrac.hadamard import QuadraturePlan, quadrature_plan
from hhfrac.solver import (
    apply_Q,
    picard_solve,
    residual_fide,
    solve_with_fixed_constant,
)
from hhfrac.stability import PerturbationSpec, run_experiments

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
        # g = -0.0 at every node, so the sign of a zero root follows u's and
        # the shift's zeros exactly as in f(t, u, 0) + shift
        "manufactured-negative-zero": manufactured_rhs(ORDER, math.e, coeff=-0.0),
    }

    @staticmethod
    def signed_table_rhs(grid, seed):
        """A custom-table right-hand side on ``grid`` in class gamma, with zeros of both signs."""
        w = np.random.default_rng(seed).uniform(-2.0, 2.0, grid.n_nodes)
        w[::5], w[2::7] = 0.0, -0.0
        return table_rhs(GridFunction(grid, ORDER.gamma, w))

    @staticmethod
    def draws(n, seed):
        """Raw u with zeros of both signs, and shifts: scalars and arrays of both signs.

        For the paper example they take every path of the root: q and B
        nonnegative (shift 0), q nonnegative with some B negative (0.5, and
        0.1 from 512 panels, a constant Ulam-Hyers shift of 1e-1), and some
        q negative with or without a negative B (-0.2, the array).
        """
        rng = np.random.default_rng(seed)
        u = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 3.0, n)
        u[::7], u[3::11] = 0.0, -0.0
        shift = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12.0, 1.0, n)
        shift[::13] = -0.0
        return u, [0.0, -0.0, 1e-3, 0.1, 0.5, -0.2, shift]

    @staticmethod
    def root_path(t, u, shift):
        """(q >= 0, B >= 0) at every node, the paper example's written-out q and B."""
        c = 1.0 / (t * (2.0 + t))
        q = c * (1.0 + np.abs(u) / (1.0 + np.abs(u))) + shift
        b = 1.0 - np.abs(q) - np.where(q < 0.0, -1.0, 1.0) * c
        return bool(q.min() >= 0.0), bool(b.min() >= 0.0)

    @pytest.mark.parametrize("n_panels", [5, 512, 8192])
    @pytest.mark.parametrize("name", [*RHS, "custom-table"])
    def test_bitwise_against_written_out_root(self, name, n_panels):
        grid = LogGrid(math.e, n_panels)
        rhs = self.RHS[name] if name in self.RHS else self.signed_table_rhs(grid, n_panels)
        t = grid.nodes[1:]
        root = ImplicitRoot(rhs, t)
        u, shifts = self.draws(t.size, n_panels)
        u_before = u.copy()
        paths = set()
        for shift in shifts:
            paths.add(self.root_path(t, u, shift))
            expected = reference_implicit_solution(rhs, t, u, shift).tobytes()
            assert root.solve(u, shift).tobytes() == expected
            out = np.full(t.size + 1, np.nan)
            root.solve(u, shift, out=out[1:])
            assert out[1:].tobytes() == expected
            in_place = u.copy()
            root.solve(in_place, shift, out=in_place)
            assert in_place.tobytes() == expected
            assert ImplicitRoot(rhs, t).solve(u, shift).tobytes() == expected
        assert u.tobytes() == u_before.tobytes()
        assert paths == {(True, True), (True, False), (False, True), (False, False)}

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


def count_applications(monkeypatch):
    """Count applications of Q (``_Sweep.apply`` calls); returns the call list."""
    calls = []
    original = solver._Sweep.apply

    def counted(self, f_values):
        calls.append(self)
        return original(self, f_values)

    monkeypatch.setattr(solver._Sweep, "apply", counted)
    return calls


def record_work_arrays(monkeypatch):
    """Record every work pair handed to ``QuadraturePlan.weighted_integral``."""
    seen = []
    original = QuadraturePlan.weighted_integral

    def recorded(self, split, grid, work=None):
        if work is not None:
            seen.append(work)
        return original(self, split, grid, work)

    monkeypatch.setattr(QuadraturePlan, "weighted_integral", recorded)
    return seen


# a != 0 gives F a nonzero weighted limit, so the x^alpha mode term runs
AFFINE = posed(affine_rhs(0.3, -0.2, 0.25, 0.3, math.e), phi=0.8)
FIELDS = ("residual_norm", "bc_defect", "F_u")


def solve_entry(entry, problem, grid):
    if entry == "picard":
        return picard_solve(problem, grid)
    h = log_power(grid, ORDER.gamma, 0.0, coeff=1e-3)
    return solve_with_fixed_constant(problem, grid, critical_mode(grid, 0.6), shift=h)


def report_values(report):
    return report.residual_norm, report.bc_defect, report.F_u.weighted_values.tobytes()


class TestDeferredReport:
    """A report computes its residual, defect and F_u on first read, from one
    more application of Q, and a solve reuses two FFT work arrays."""

    @pytest.mark.parametrize("first", FIELDS)
    @pytest.mark.parametrize("entry", ["picard", "fixed"])
    @pytest.mark.parametrize("problem", [paper_example_problem(), AFFINE], ids=["paper", "affine"])
    def test_one_application_on_first_read(self, monkeypatch, grid512, problem, entry, first):
        applied = count_applications(monkeypatch)
        _, report = solve_entry(entry, problem, grid512)
        assert len(applied) == report.iterations > 1
        getattr(report, first)
        assert len(applied) == report.iterations + 1
        for name in FIELDS + FIELDS:
            getattr(report, name)
        assert len(applied) == report.iterations + 1

    @pytest.mark.parametrize("count", [1, 4])
    def test_stability_applies_q_once_per_sweep(self, monkeypatch, grid512, count):
        applied = count_applications(monkeypatch)
        reports = []
        for name in ("picard_solve", "solve_with_fixed_constant"):
            original = getattr(stability, name)

            def recorded(*args, _original=original, **kwargs):
                u, report = _original(*args, **kwargs)
                reports.append(report)
                return u, report

            monkeypatch.setattr(stability, name, recorded)
        epsilons = (1e-1, 1e-2, 1e-3, 1e-4)[:count]
        run_experiments(
            paper_example_problem(), [PerturbationSpec("constant", e) for e in epsilons], grid512
        )
        assert len(reports) == 1 + count
        assert len(applied) == sum(r.iterations for r in reports)

    @pytest.mark.parametrize("entry", ["picard", "fixed"])
    @pytest.mark.parametrize("problem", [paper_example_problem(), AFFINE], ids=["paper", "affine"])
    def test_outputs_never_share_the_work_arrays(self, monkeypatch, grid512, problem, entry):
        work = record_work_arrays(monkeypatch)
        u, report = solve_entry(entry, problem, grid512)
        q = apply_Q(u, problem)
        assert len(work) == report.iterations + 1
        arrays = [array for pair in work for array in pair]
        for out in (u, report.F_u, q):
            assert not any(np.shares_memory(out.weighted_values, a) for a in arrays)

    def test_solve_reuses_one_pair(self, monkeypatch, grid512):
        work = record_work_arrays(monkeypatch)
        _, report = picard_solve(paper_example_problem(), grid512)
        assert len(work) == report.iterations > 1
        assert all(pair is work[0] for pair in work)
        size = quadrature_plan(ORDER.alpha, grid512.h, grid512.n_panels).fft_size
        assert work[0][0].shape == (size // 2 + 1,) and work[0][0].dtype == complex
        assert work[0][1].shape == (size,) and work[0][1].dtype == float

    def test_unread_report_does_not_pin_the_work_arrays(self, monkeypatch, grid512):
        work = record_work_arrays(monkeypatch)
        _, report = picard_solve(AFFINE, grid512)
        refs = [weakref.ref(a) for a in work[0]]
        work.clear()
        gc.collect()
        assert [r() for r in refs] == [None, None]
        assert report.residual_norm <= 1e-10

    @pytest.mark.parametrize("entry", ["picard", "fixed"])
    @pytest.mark.parametrize("problem", [paper_example_problem(), AFFINE], ids=["paper", "affine"])
    def test_late_read_is_bitwise_the_prompt_one(self, grid512, problem, entry):
        u, report = solve_entry(entry, problem, grid512)
        prompt = report_values(report)
        u_again, late = solve_entry(entry, problem, grid512)
        # other solves and applications on the same grid run in between
        for other in (AFFINE, paper_example_problem(), zero_problem()):
            _, other_report = picard_solve(other, grid512)
            other_report.F_u
            apply_Q(u, other)
        assert u_again.weighted_values.tobytes() == u.weighted_values.tobytes()
        assert report_values(late) == prompt


def count_work_arrays(monkeypatch):
    """Count the FFT work pairs built (``QuadraturePlan.work_arrays`` calls)."""
    calls = []
    original = QuadraturePlan.work_arrays

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(QuadraturePlan, "work_arrays", counted)
    return calls


class TestWorkArraysOnFirstUse:
    def test_residual_builds_none(self, monkeypatch, section5, section5_solution):
        built = count_work_arrays(monkeypatch)
        residual_fide(section5_solution[0], section5)
        assert built == []

    def test_apply_builds_one(self, monkeypatch, section5, section5_solution):
        built = count_work_arrays(monkeypatch)
        apply_Q(section5_solution[0], section5)
        assert len(built) == 1

    @pytest.mark.parametrize("entry", ["picard", "fixed"])
    def test_solve_builds_one_also_when_read(self, monkeypatch, grid512, entry):
        built = count_work_arrays(monkeypatch)
        _, report = solve_entry(entry, paper_example_problem(), grid512)
        assert len(built) == 1 and report.iterations > 1
        report.residual_norm
        assert len(built) == 1


class TestKeptSolve:
    """``picard_solve`` keeps its last solve and returns it for an equal call."""

    def test_equal_call_applies_q_zero_times(self, monkeypatch):
        first = picard_solve(paper_example_problem(), LogGrid(math.e, 64))
        applied = count_applications(monkeypatch)
        again = picard_solve(paper_example_problem(), LogGrid(math.e, 64))
        assert applied == []
        assert again[0] is first[0] and again[1] is first[1]

    @pytest.mark.parametrize(
        "change",
        [
            {"phi": 0.5}, {"panels": 65}, {"tol": 1e-11}, {"cap": 199},
            # == treats the signs of zero as equal; the memo does not
            {"phi": -0.0},
        ],
        ids=["phi", "panels", "tol", "cap", "phi-sign"],
    )
    def test_changed_argument_solves_again(self, monkeypatch, change):
        def call(phi=0.0, panels=64, tol=solver.DEFAULT_TOL, cap=solver.DEFAULT_CAP):
            return picard_solve(paper_example_problem(phi), LogGrid(math.e, panels), tol, cap)

        first = call()
        applied = count_applications(monkeypatch)
        again = call(**change)
        assert len(applied) == again[1].iterations > 0
        assert again[0] is not first[0]

    def test_equal_grid_with_filled_powers_hits(self, monkeypatch):
        grid = LogGrid(math.e, 64)
        first = picard_solve(paper_example_problem(), grid)
        assert grid._powers  # the solve filled the grid's powers
        equal = LogGrid(math.e, 64)
        applied = count_applications(monkeypatch)
        again = picard_solve(paper_example_problem(), equal)
        assert applied == [] and again[0] is first[0] and again[1] is first[1]

    def test_keeps_one_solve(self, grid512):
        pinned = weakref.ref(picard_solve(paper_example_problem(), grid512)[0].weighted_values)
        gc.collect()
        assert pinned() is not None
        picard_solve(AFFINE, grid512)
        gc.collect()
        assert pinned() is None

    def test_failed_solve_is_not_kept(self, monkeypatch, grid512):
        applied = count_applications(monkeypatch)
        for _ in range(2):
            with pytest.raises(ConvergenceError, match="within 2 sweeps"):
                picard_solve(paper_example_problem(), grid512, cap=2)
        assert len(applied) == 4

    def test_warning_on_every_call(self, monkeypatch):
        problem = posed(affine_rhs(0.1, 0.0, 0.8, 0.0, math.e))  # A = 1.30, converges
        grid = LogGrid(math.e, 64)
        with pytest.warns(UserWarning, match="contraction constant 1.304 >= 1"):
            first = picard_solve(problem, grid)
        applied = count_applications(monkeypatch)
        with pytest.warns(UserWarning, match="contraction constant 1.304 >= 1"):
            assert picard_solve(problem, grid) == first
        assert applied == []


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

    @pytest.mark.parametrize("entry", ["picard", "fixed", "apply_Q", "residual"])
    @pytest.mark.parametrize(
        "table",
        [
            # (log t)^(-0.1) in class 0.9: its weighted limit is not F_u's in class 7/9
            lambda grid: log_power(grid, 0.9, -0.1),
            lambda grid: log_power(LogGrid(math.e, 128), ORDER.gamma, -0.1),
        ],
        ids=["weight-class", "panels"],
    )
    def test_rhs_table_off_the_solve_space_rejected(self, entry, table):
        grid = LogGrid(math.e, 256)
        problem = posed(table_rhs(table(grid)))
        u = critical_mode(grid, 0.5)
        call = {
            "picard": lambda: picard_solve(problem, grid),
            "fixed": lambda: solve_with_fixed_constant(problem, grid, u),
            "apply_Q": lambda: apply_Q(u, problem),
            "residual": lambda: residual_fide(u, problem),
        }[entry]
        with pytest.raises(
            GridMismatchError,
            match="custom-table rhs must live on the solve grid, in the weight class",
        ):
            call()

    def test_rhs_table_in_the_problem_class_solves(self):
        grid = LogGrid(math.e, 256)
        u, report = picard_solve(posed(table_rhs(log_power(grid, ORDER.gamma, -0.1))), grid)
        assert report.residual_norm <= 1e-9
        # the refined value of raw u(t_1) is about 0.124
        assert u.raw_tail()[0] == pytest.approx(0.1163, abs=1e-4)


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
