import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import reference_values as ref
from oracles import reference_rhs
import hhfrac.solver as solver_mod
import hhfrac.stability as stability_mod
from hhfrac.certificates import build_certificate, gronwall_bound
from hhfrac.config import load_config
from hhfrac.errors import CertificateRejected, DomainError, GridMismatchError
from hhfrac.grids import GridFunction, LogGrid, Order, log_power, weighted_norm
from hhfrac.problems import (
    ProblemSpec, affine_rhs, manufactured_problem, paper_example_problem, paper_example_rhs,
)
from hhfrac.solver import DEFAULT_TOL, picard_solve, solve_with_fixed_constant
from hhfrac.stability import (
    MODE_GENERALIZED_UH,
    MODE_GENERALIZED_UHR,
    MODE_UH,
    MODE_UHR,
    PerturbationSpec,
    run_experiments,
    run_uh_experiment,
    verdicts_to_csv,
)

ORDER = Order(1.0 / 3.0, 2.0 / 3.0)


EPSILONS = (1e-1, 1e-2, 1e-3, 1e-4)
ROOT = Path(__file__).resolve().parent.parent


def critical_profile(grid, coeff=1.0):
    return log_power(grid, ORDER.gamma, ORDER.gamma - 1.0, coeff)


def count_calls(monkeypatch, name):
    """Replace ``hhfrac.stability.<name>`` by a wrapper; returns its call list."""
    calls = []
    original = getattr(stability_mod, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(stability_mod, name, counted)
    return calls


class TestPerturbationSpec:
    def test_positive_epsilon_required(self):
        with pytest.raises(DomainError):
            PerturbationSpec("constant", 0.0)
        with pytest.raises(DomainError):
            PerturbationSpec("constant", -1e-3)

    def test_constant_realization_is_admissible(self, grid512):
        spec = PerturbationSpec("constant", 1e-3)
        h = spec.realize(grid512, ORDER.gamma)
        assert np.max(np.abs(h.raw_tail())) <= 1e-3 * (1.0 + 1e-12)

    def test_log_power_needs_profile(self):
        with pytest.raises(DomainError):
            PerturbationSpec("log-power", 1e-3)

    def test_supplied_table_admissibility_enforced(self, section5, grid512):
        # a table exceeding epsilon anywhere must be rejected at run time
        w = np.zeros(grid512.n_nodes)
        w[40] = 10.0 * grid512.log_nodes[40] ** (1.0 - ORDER.gamma)
        table = GridFunction(grid512, ORDER.gamma, w * 1e-3)
        spec = PerturbationSpec("supplied-table", 1e-3, table=table)
        with pytest.raises(DomainError, match="admissibility"):
            run_uh_experiment(section5, spec, grid512)

    def test_perturbation_grid_must_match(self, section5, grid512):
        other = LogGrid(math.e, 256)
        table = log_power(other, ORDER.gamma, 0.0, coeff=1e-4)
        spec = PerturbationSpec("supplied-table", 1e-3, table=table)
        with pytest.raises(GridMismatchError):
            run_uh_experiment(section5, spec, grid512)

    def test_perturbation_weight_class_must_match(self, section5, grid512, monkeypatch):
        # rejected before the unperturbed solve, not by the first re-solve
        solves = count_calls(monkeypatch, "picard_solve")
        table = log_power(grid512, 0.5, 0.0, coeff=1e-4)
        spec = PerturbationSpec("supplied-table", 1e-3, table=table)
        with pytest.raises(GridMismatchError, match="in the weight class of the problem"):
            run_uh_experiment(section5, spec, grid512)
        assert solves == []

    @pytest.mark.parametrize("offset, passes", [(0.0, True), (1e-9, False)])
    def test_weight_class_within_arithmetic_tolerance(self, grid512, offset, passes):
        # gamma of Order(0.3, 0.5) is 0.6499999999999999; a table at 0.65
        # adds to the problem's grid functions, so a run accepts it too
        order = Order(0.3, 0.5)
        problem = ProblemSpec(
            order=order, b=math.e, c1=2.0, c2=1.0, phi=1.0, rhs=paper_example_rhs()
        )
        table = log_power(grid512, 0.65 + offset, 0.0, coeff=1e-4)
        u = log_power(grid512, order.gamma, 0.0)
        spec = PerturbationSpec("supplied-table", 1e-3, table=table)
        if passes:
            assert order.gamma != 0.65
            u + table
            assert run_uh_experiment(problem, spec, grid512).passed
        else:
            with pytest.raises(GridMismatchError):
                u + table
            with pytest.raises(GridMismatchError, match="in the weight class of the problem"):
                run_uh_experiment(problem, spec, grid512)


class TestUlamHyers:
    def test_reference_problem_bounds(self, section5, grid512):
        for eps in (1e-2, 1e-3):
            verdict = run_uh_experiment(
                section5, PerturbationSpec("constant", eps), grid512
            )
            assert verdict.passed
            assert verdict.mode == MODE_UH
            assert verdict.certified_bound == pytest.approx(ref.C_F * eps, rel=1e-10)
            assert verdict.observed_deviation <= verdict.certified_bound
            # shared constant part: the weighted limits agree exactly
            assert verdict.weighted_limit_deviation == 0.0

    def test_deviation_scales_linearly(self, section5, grid512):
        v_big = run_uh_experiment(section5, PerturbationSpec("constant", 1e-2), grid512)
        v_small = run_uh_experiment(section5, PerturbationSpec("constant", 1e-3), grid512)
        ratio = v_big.observed_deviation / v_small.observed_deviation
        assert ratio == pytest.approx(10.0, rel=0.1)
        # halving epsilon halves the deviation up to the quadratic response
        # of the saturating nonlinearity (about 0.1 percent here)
        v_half = run_uh_experiment(section5, PerturbationSpec("constant", 5e-3), grid512)
        assert v_half.observed_deviation <= 0.5 * v_big.observed_deviation * 1.01

    def test_tiny_epsilon_trivially_passes(self, section5, grid512):
        verdict = run_uh_experiment(
            section5, PerturbationSpec("constant", 1e-9), grid512
        )
        assert verdict.passed
        assert verdict.observed_deviation <= 5e-9

    def test_manufactured_closed_form_response(self, grid512):
        # K_f = L_f = 0: the deviation is exactly I^alpha(h), and with the
        # shared constant part it stays below B epsilon nodewise
        problem = manufactured_problem(ORDER, math.e, 2.0, 1.0)
        eps = 1e-3
        verdict = run_uh_experiment(problem, PerturbationSpec("constant", eps), grid512)
        b_const = build_certificate(problem).b_const
        x = grid512.log_nodes
        closed_form = eps * x[-1] ** ORDER.alpha / math.gamma(ORDER.alpha + 1.0)
        assert verdict.observed_deviation == pytest.approx(closed_form, rel=1e-6)
        assert verdict.observed_deviation <= b_const * eps

    def test_integral_inequality_nodewise(self, section5, grid512):
        # |u~ - Z (log t)^(gamma-1) - I^alpha F_u~| <= B eps + slack, with
        # the constant part shared between the two solves
        from hhfrac.hadamard import hadamard_integral

        eps = 1e-3
        u, _ = picard_solve(section5, grid512)
        h = PerturbationSpec("constant", eps).realize(grid512, ORDER.gamma)
        u_tilde, _ = solve_with_fixed_constant(
            section5, grid512, critical_profile(grid512, u.weighted_limit), shift=h
        )
        f_tilde = reference_rhs(section5.rhs, ORDER, grid512, u_tilde)
        reconstructed = hadamard_integral(f_tilde, ORDER.alpha)
        defect = (
            u_tilde.raw_tail()
            - u.weighted_limit * grid512.log_nodes[1:] ** (ORDER.gamma - 1.0)
            - reconstructed.raw_tail()
        )
        b_const = build_certificate(section5).b_const
        assert np.max(np.abs(defect)) <= b_const * eps + 1e-8

    def test_gronwall_bound_dominates_deviation(self, section5, grid512):
        eps = 1e-3
        u, _ = picard_solve(section5, grid512)
        h = PerturbationSpec("constant", eps).realize(grid512, ORDER.gamma)
        u_tilde, _ = solve_with_fixed_constant(
            section5, grid512, critical_profile(grid512, u.weighted_limit), shift=h
        )
        deviation = np.abs(u_tilde.raw_tail() - u.raw_tail())
        rhs = section5.rhs
        b_const = build_certificate(section5).b_const
        k = rhs.K_f / ((1.0 - rhs.L_f) * math.gamma(ORDER.alpha))
        bound = gronwall_bound(
            grid512, np.full(grid512.n_nodes, b_const * eps), k=k, alpha=ORDER.alpha
        )
        assert np.all(deviation <= bound[1:] + 1e-9)

    def test_epsilon_one_labelled_generalized(self, grid512):
        # a contraction-certified problem with a unit perturbation realizes
        # the generalized mode
        problem = manufactured_problem(ORDER, math.e, 2.0, 1.0)
        verdict = run_uh_experiment(problem, PerturbationSpec("constant", 1.0), grid512)
        assert verdict.mode == MODE_GENERALIZED_UH
        assert verdict.passed

    def test_uh_pass_implies_generalized_pass(self, section5, grid512):
        # the generalized bound reuses C_f eps; a UH pass carries over
        verdict = run_uh_experiment(
            section5, PerturbationSpec("constant", 1e-3), grid512
        )
        assert verdict.passed
        assert verdict.observed_deviation <= verdict.certified_bound

    def test_requires_contraction(self, grid512):
        problem = ProblemSpec(
            order=ORDER, b=math.e, c1=2.0, c2=1.0, phi=0.0,
            rhs=affine_rhs(0.1, 0.0, 2.0, 0.0, math.e),
        )
        with pytest.raises(DomainError, match="contraction"):
            run_uh_experiment(problem, PerturbationSpec("constant", 1e-3), grid512)


class TestUlamHyersRassias:
    def test_critical_profile_nodewise(self, section5, grid512):
        phi = critical_profile(grid512)
        spec = PerturbationSpec("log-power", 1e-3, phi_profile=phi)
        with pytest.warns(UserWarning, match="not increasing"):
            verdict = run_experiments(
                section5, [spec], grid512, ref.LAMBDA_PHI_CRITICAL
            )[0]
        assert verdict.passed
        assert verdict.mode == MODE_UHR
        assert verdict.margin >= 0.0

    def test_constant_profile_reduces_to_uh_shape(self, section5, grid512):
        # phi = 1 turns the nodewise bound into C_f_phi eps
        phi = log_power(grid512, ORDER.gamma, 0.0)
        lam = math.log(section5.b) ** ORDER.alpha / math.gamma(ORDER.alpha + 1.0)
        spec = PerturbationSpec("log-power", 1e-3, phi_profile=phi)
        verdict = run_experiments(section5, [spec], grid512, lam)[0]
        assert verdict.passed
        uh = run_uh_experiment(section5, PerturbationSpec("constant", 1e-3), grid512)
        assert verdict.observed_deviation == pytest.approx(
            uh.observed_deviation, rel=1e-10
        )

    def test_epsilon_one_is_generalized_mode(self, grid512):
        problem = manufactured_problem(ORDER, math.e, 2.0, 1.0)
        phi = log_power(grid512, ORDER.gamma, 0.0)
        lam = math.log(math.e) ** ORDER.alpha / math.gamma(ORDER.alpha + 1.0)
        spec = PerturbationSpec("log-power", 1.0, phi_profile=phi)
        verdict = run_experiments(problem, [spec], grid512, lam)[0]
        assert verdict.mode == MODE_GENERALIZED_UHR
        assert verdict.passed

    def test_bad_lambda_rejected_before_solving(self, section5, grid512):
        phi = critical_profile(grid512)
        spec = PerturbationSpec("log-power", 1e-3, phi_profile=phi)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(CertificateRejected):
                run_experiments(section5, [spec], grid512, 0.5)


class TestDeterminismAndSerialization:
    def test_repeated_runs_identical(self, section5, grid512):
        spec = PerturbationSpec("constant", 1e-3)
        a = run_uh_experiment(section5, spec, grid512)
        b = run_uh_experiment(section5, spec, grid512)
        assert a == b

    def test_csv_rows(self, section5, grid512):
        verdicts = [
            run_uh_experiment(section5, PerturbationSpec("constant", eps), grid512)
            for eps in (1e-2, 1e-3)
        ]
        csv = verdicts_to_csv(verdicts)
        lines = csv.splitlines()
        assert lines[0] == "mode,epsilon,deviation,bound,margin,pass"
        assert len(lines) == 3
        assert lines[1].startswith("UH,0.01,")
        assert lines[1].endswith(",true")
        assert "\r" not in csv


class TestSharedUnperturbedSolve:
    def test_uh_list_solves_unperturbed_once(self, section5, grid512, monkeypatch):
        solves = count_calls(monkeypatch, "picard_solve")
        perturbations = [PerturbationSpec("constant", eps) for eps in EPSILONS]
        verdicts = run_experiments(section5, perturbations, grid512)
        assert len(solves) == 1
        assert [v.epsilon for v in verdicts] == list(EPSILONS)

    def test_uhr_list_verifies_lambda_phi_once(self, section5, grid512, monkeypatch):
        solves = count_calls(monkeypatch, "picard_solve")
        constants = count_calls(monkeypatch, "build_certificate")
        phi = critical_profile(grid512)
        perturbations = [
            PerturbationSpec("log-power", eps, phi_profile=phi) for eps in EPSILONS
        ]
        with pytest.warns(UserWarning, match="not increasing"):
            run_experiments(section5, perturbations, grid512, ref.LAMBDA_PHI_CRITICAL)
        assert len(solves) == 1
        assert len(constants) == 1

    def test_uh_verdicts_equal_one_experiment_per_epsilon(self, section5, grid512):
        perturbations = [PerturbationSpec("constant", eps) for eps in EPSILONS]
        assert run_experiments(section5, perturbations, grid512) == [
            run_uh_experiment(section5, p, grid512) for p in perturbations
        ]

    def test_uhr_verdicts_equal_one_experiment_per_epsilon(self, section5, grid512):
        phi = critical_profile(grid512)
        perturbations = [
            PerturbationSpec("log-power", eps, phi_profile=phi) for eps in EPSILONS
        ]
        lam = ref.LAMBDA_PHI_CRITICAL
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            shared = run_experiments(section5, perturbations, grid512, lam)
            single = [run_experiments(section5, [p], grid512, lam)[0] for p in perturbations]
        assert shared == single

    def test_rejected_lambda_phi_before_any_solve(self, section5, grid512, monkeypatch):
        solves = count_calls(monkeypatch, "picard_solve")
        phi = critical_profile(grid512)
        perturbations = [
            PerturbationSpec("log-power", eps, phi_profile=phi) for eps in EPSILONS
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(CertificateRejected):
                run_experiments(section5, perturbations, grid512, 0.5)
        assert solves == []

    def test_missing_contraction_before_any_solve(self, grid512, monkeypatch):
        solves = count_calls(monkeypatch, "picard_solve")
        problem = ProblemSpec(
            order=ORDER, b=math.e, c1=2.0, c2=1.0, phi=0.0,
            rhs=affine_rhs(0.1, 0.0, 2.0, 0.0, math.e),
        )
        perturbations = [PerturbationSpec("constant", eps) for eps in EPSILONS]
        with pytest.raises(DomainError, match="contraction"):
            run_experiments(problem, perturbations, grid512)
        assert solves == []

    def test_inadmissible_later_perturbation_before_any_solve(
        self, section5, grid512, monkeypatch
    ):
        solves = count_calls(monkeypatch, "picard_solve")
        w = np.zeros(grid512.n_nodes)
        w[40] = 10.0 * grid512.log_nodes[40] ** (1.0 - ORDER.gamma)
        table = GridFunction(grid512, ORDER.gamma, w * 1e-3)
        perturbations = [
            PerturbationSpec("constant", 1e-2),
            PerturbationSpec("supplied-table", 1e-3, table=table),
        ]
        with pytest.raises(DomainError, match="admissibility"):
            run_experiments(section5, perturbations, grid512)
        assert solves == []

    def test_table_on_another_grid_before_any_solve(self, section5, grid512, monkeypatch):
        solves = count_calls(monkeypatch, "picard_solve")
        table = log_power(LogGrid(math.e, 256), ORDER.gamma, 0.0, coeff=1e-4)
        perturbations = [PerturbationSpec("supplied-table", 1e-3, table=table)]
        with pytest.raises(GridMismatchError):
            run_experiments(section5, perturbations, grid512)
        assert solves == []

    @pytest.mark.parametrize("where", [(math.e, 32), (2.0, 512)])
    def test_profile_on_another_grid_before_any_certificate(
        self, section5, grid512, monkeypatch, where
    ):
        # another panel count, or the solve's panel count on another interval
        solves = count_calls(monkeypatch, "picard_solve")
        constants = count_calls(monkeypatch, "build_certificate")
        phi = log_power(LogGrid(*where), ORDER.gamma, 0.0)
        perturbations = [PerturbationSpec("log-power", 1e-3, phi_profile=phi)]
        with pytest.raises(GridMismatchError, match="phi profile must live on the solve grid"):
            run_experiments(section5, perturbations, grid512, 1.5)
        assert solves == [] and constants == []

    @pytest.mark.parametrize("case", ["two-profiles", "profile-missing", "no-perturbation"])
    def test_rassias_run_needs_one_profile_before_any_certificate(
        self, section5, grid512, monkeypatch, case
    ):
        # the run's one profile shapes every bound and verifies lambda_phi
        solves = count_calls(monkeypatch, "picard_solve")
        constants = count_calls(monkeypatch, "build_certificate")
        phi = log_power(grid512, ORDER.gamma, 0.0)
        perturbations = {
            "two-profiles": [
                PerturbationSpec("log-power", 1e-3, phi_profile=profile)
                for profile in (phi, critical_profile(grid512))
            ],
            "profile-missing": [
                PerturbationSpec("log-power", 1e-3, phi_profile=phi),
                PerturbationSpec("constant", 1e-3),
            ],
            "no-perturbation": [],
        }[case]
        with pytest.raises(DomainError, match="one phi profile, shared by every perturbation"):
            run_experiments(section5, perturbations, grid512, 1.5)
        assert solves == [] and constants == []

    def test_lambda_phi_verified_against_each_run_profile(self, section5, grid512, monkeypatch):
        # 1.15 passes phi = 1 (sharp about 1.1198) but not the critical profile
        solves = count_calls(monkeypatch, "picard_solve")
        resolves = count_calls(monkeypatch, "solve_with_fixed_constant")
        one, critical = (
            [PerturbationSpec("log-power", 1e-3, phi_profile=phi)]
            for phi in (log_power(grid512, ORDER.gamma, 0.0), critical_profile(grid512))
        )
        [verdict] = run_experiments(section5, one, grid512, 1.15)
        assert verdict.passed
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(CertificateRejected):
                run_experiments(section5, critical, grid512, 1.15)
        assert len(solves) == 1 and len(resolves) == 1

    @pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "configs").glob("*.cfg")))
    def test_cli_solves_unperturbed_once_and_certifies_once(self, name, monkeypatch, capsys):
        # the one certificate is in the configuration's mode: a uhr run
        # passes its profile and lambda_phi, a uh run neither
        from hhfrac.cli import main

        solves = count_calls(monkeypatch, "picard_solve")
        constants = count_calls(monkeypatch, "build_certificate")
        cfg = ROOT / "configs" / f"{name}.cfg"
        config = load_config(str(cfg), {"panels": "64"})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["stability", "--config", str(cfg), "--panels", "64"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + len(config.epsilons)
        assert len(solves) == 1
        [(_, phi, lam)] = constants
        assert lam == config.rassias_lambda_phi
        assert (phi is None) == (config.stability_mode == "uh")
        if phi is not None:
            expected = config.phi_profile(phi.grid)
            np.testing.assert_array_equal(phi.weighted_values, expected.weighted_values)


def count_solves(monkeypatch):
    """Replace ``hhfrac.solver._solve`` by a wrapper; returns the ``frozen``
    flag of each call: False for an unperturbed solve, True for a re-solve."""
    frozen = []
    original = solver_mod._solve

    def counted(*args, **kwargs):
        frozen.append(kwargs["frozen"])
        return original(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "_solve", counted)
    return frozen


class TestKeptUnperturbedSolve:
    """A run right after the caller's ``picard_solve`` of the same problem,
    grid, tol and cap reuses that solve, which the solver keeps."""

    @pytest.mark.parametrize("rassias", [False, True])
    def test_same_verdicts_without_the_unperturbed_solve(
        self, section5, grid512, monkeypatch, rassias
    ):
        phi = critical_profile(grid512)
        perturbations = [
            PerturbationSpec("log-power", eps, phi_profile=phi) if rassias
            else PerturbationSpec("constant", eps)
            for eps in EPSILONS
        ]
        lam = ref.LAMBDA_PHI_CRITICAL if rassias else None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cold = run_experiments(section5, perturbations, grid512, lam)
            monkeypatch.setattr(solver_mod, "_last_solve", None)
            picard_solve(section5, grid512)
            solves = count_solves(monkeypatch)
            kept = run_experiments(section5, perturbations, grid512, lam)
        assert solves == [True] * len(EPSILONS)
        assert kept == cold

    def test_uh_experiment_after_solve_only_resolves(self, section5, grid512, monkeypatch):
        picard_solve(section5, grid512)
        solves = count_solves(monkeypatch)
        run_uh_experiment(section5, PerturbationSpec("constant", 1e-3), grid512)
        assert solves == [True]

    def test_example_solves_unperturbed_once(self, monkeypatch, capsys):
        import hhfrac.cli as cli_mod

        solves = count_solves(monkeypatch)
        assert cli_mod.main(["example", "--panels", "64"]) == 0
        assert "\nUH,0.001," in capsys.readouterr().out
        assert solves.count(False) == 1


class TestWarmStart:
    """Every perturbed re-solve starts at the unperturbed solution u.

    The frozen-Z map is a contraction of modulus A, so the start moves the
    re-solved u~ by at most 2 tol A/(1-A) in the weighted norm and only
    saves sweeps.
    """

    PROBLEMS = {
        "section5": paper_example_problem(),
        # a != 0 gives F a nonzero weighted limit, fed by the start's
        "affine": ProblemSpec(
            order=ORDER, b=math.e, c1=2.0, c2=1.0, phi=1.0,
            rhs=affine_rhs(0.3, -0.2, 0.25, 0.3, math.e),
        ),
    }

    @staticmethod
    def shifts(grid, rassias):
        if rassias:
            phi = critical_profile(grid)
            specs = [PerturbationSpec("log-power", eps, phi_profile=phi) for eps in EPSILONS]
        else:
            specs = [PerturbationSpec("constant", eps) for eps in EPSILONS]
        return [p.realize(grid, ORDER.gamma) for p in specs]

    @pytest.mark.parametrize("n_panels", [512, 2048])
    @pytest.mark.parametrize("rassias", [False, True], ids=["UH", "UHR"])
    @pytest.mark.parametrize("name", PROBLEMS)
    def test_warm_start_moves_within_contraction_slack_and_saves_sweeps(
        self, name, rassias, n_panels
    ):
        problem = self.PROBLEMS[name]
        grid = LogGrid(math.e, n_panels)
        a_const = build_certificate(problem).a_const
        assert a_const < 1.0
        slack = 2.0 * DEFAULT_TOL * a_const / (1.0 - a_const)
        u, _ = picard_solve(problem, grid)
        cold_sweeps, warm_sweeps = [], []
        for h in self.shifts(grid, rassias):
            cold, cold_report = solve_with_fixed_constant(
                problem, grid, critical_profile(grid, u.weighted_limit), shift=h
            )
            warm, warm_report = solve_with_fixed_constant(problem, grid, u, shift=h)
            assert weighted_norm(warm - cold) <= slack
            assert warm.weighted_limit == cold.weighted_limit == u.weighted_limit
            cold_sweeps.append(cold_report.iterations)
            warm_sweeps.append(warm_report.iterations)
        assert all(w <= c for w, c in zip(warm_sweeps, cold_sweeps)), (warm_sweeps, cold_sweeps)
        assert sum(warm_sweeps) < sum(cold_sweeps)

    @pytest.mark.parametrize("rassias", [False, True], ids=["UH", "UHR"])
    def test_every_re_solve_starts_at_the_unperturbed_solution(
        self, section5, grid512, monkeypatch, rassias
    ):
        starts = []
        original = stability_mod.solve_with_fixed_constant

        def recorded(*args, **kwargs):
            starts.append(kwargs["start"])
            return original(*args, **kwargs)

        monkeypatch.setattr(stability_mod, "solve_with_fixed_constant", recorded)
        if rassias:
            phi = critical_profile(grid512)
            perturbations = [
                PerturbationSpec("log-power", eps, phi_profile=phi) for eps in EPSILONS
            ]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                run_experiments(section5, perturbations, grid512, ref.LAMBDA_PHI_CRITICAL)
        else:
            run_experiments(section5, [PerturbationSpec("constant", eps) for eps in EPSILONS],
                            grid512)
        u, _ = picard_solve(section5, grid512)
        assert len(starts) == len(EPSILONS)
        for start in starts:
            assert start.weighted_values.tobytes() == u.weighted_values.tobytes()


class TestPassSlack:
    """A verdict passes down to a margin of -10 tol C, C the run's constant."""

    @pytest.mark.parametrize("shape", [1.0, np.array([1.0, 2.0, 3.0])], ids=["uh", "uhr"])
    @pytest.mark.parametrize("slacks, passed", [(5.0, True), (20.0, False)])
    def test_slack_edge(self, shape, slacks, passed):
        constant, epsilon, tol = 3.0, 1e-3, DEFAULT_TOL
        bounds = constant * epsilon * shape
        deviation = bounds + np.array([0.0, slacks * tol * constant, 0.0])
        modes = (MODE_UH, MODE_GENERALIZED_UH)
        verdict = stability_mod._verdict(modes, epsilon, deviation, bounds, constant, tol, 0.0)
        assert verdict.margin == pytest.approx(-slacks * tol * constant, rel=1e-6)
        assert verdict.passed is passed


class TestVerdictsReadTheCertificate:
    """Every bound is the certificate's constant, as `hhfrac certify` prints it."""

    @staticmethod
    def configured(name):
        config = load_config(str(ROOT / "configs" / f"{name}.cfg"))
        grid = config.grid()
        return config, grid, config.problem(grid)

    def test_uh_bound_is_c_f_eps(self):
        config, grid, problem = self.configured("sweep_uh")
        perturbations = [PerturbationSpec("constant", eps) for eps in config.epsilons]
        verdicts = run_experiments(problem, perturbations, grid)
        c_f = build_certificate(problem).c_f
        assert [v.certified_bound for v in verdicts] == [c_f * eps for eps in config.epsilons]

    def test_uhr_bound_is_c_f_phi_eps_phi_at_worst_node(self):
        config, grid, problem = self.configured("sweep_uhr")
        phi = config.phi_profile(grid)
        perturbations = [
            PerturbationSpec("log-power", eps, phi_profile=phi) for eps in config.epsilons
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            verdicts = run_experiments(problem, perturbations, grid, config.lambda_phi)
            c_f_phi = build_certificate(problem, phi, config.lambda_phi).c_f_phi
        u, _ = picard_solve(problem, grid)
        for verdict, p in zip(verdicts, perturbations):
            u_tilde, _ = solve_with_fixed_constant(
                problem, grid, critical_profile(grid, u.weighted_limit),
                shift=p.realize(grid, problem.order.gamma),
            )
            bounds = c_f_phi * p.epsilon * phi.raw_tail()
            worst = np.argmin(bounds - np.abs(u_tilde.raw_tail() - u.raw_tail()))
            assert verdict.certified_bound == bounds[worst]
