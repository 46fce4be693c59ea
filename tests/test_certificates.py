import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_values as ref
import hhfrac.stability as stability_mod
from hhfrac.certificates import (
    build_certificate,
    gronwall_bound,
    uniqueness_constant,
)
from hhfrac.config import load_config
from hhfrac.errors import (
    CertificateRejected, ConvergenceError, DomainError, GridMismatchError, MLOverflowError,
)
from hhfrac.grids import LogGrid, Order, log_power, weighted_norm
from hhfrac.problems import ProblemSpec, RhsSpec, affine_rhs
from hhfrac.solver import picard_solve
from hhfrac.specfun import mittag_leffler
from hhfrac.stability import PerturbationSpec, run_experiments

ORDER = Order(1.0 / 3.0, 2.0 / 3.0)
ROOT = Path(__file__).resolve().parent.parent


def problem_with(b=math.e, phi=1.0, K=1.0 / 3.0, L=1.0 / 3.0,
                 delta=1.0 / 3.0, sigma=1.0 / 3.0, rho=1.0 / 3.0):
    rhs = RhsSpec(
        kind="paper-example", K_f=K, L_f=L,
        delta_star=delta, sigma_star=sigma, rho_star=rho,
    )
    return ProblemSpec(order=ORDER, b=b, c1=2.0, c2=1.0, phi=phi, rhs=rhs)


class TestAgainstReferenceValues:
    def test_uniqueness_constant(self, section5):
        assert uniqueness_constant(section5) == pytest.approx(
            ref.UNIQUENESS_A, rel=1e-10
        )

    def test_existence_constants(self, section5):
        cert = build_certificate(section5)
        assert cert.omega == pytest.approx(ref.OMEGA_LITERAL, rel=1e-10)
        assert cert.lambda_cap == pytest.approx(ref.LAMBDA_CAP, rel=1e-10)
        assert cert.ball_radius == pytest.approx(ref.BALL_RADIUS, rel=1e-10)

    def test_paper_arithmetic_variant(self, section5):
        assert build_certificate(section5).omega_paper_variant == pytest.approx(
            ref.OMEGA_PAPER_ARITHMETIC, rel=1e-10
        )

    def test_ulam_hyers_constant(self, section5):
        cert = build_certificate(section5)
        b_const, c_f = cert.b_const, cert.c_f
        assert b_const == pytest.approx(ref.B_CONST, rel=1e-10)
        assert c_f == pytest.approx(ref.C_F, rel=1e-10)

    def test_rassias_constant(self, section5, grid512):
        phi = log_power(grid512, ORDER.gamma, ORDER.gamma - 1.0)
        with pytest.warns(UserWarning, match="not increasing"):
            cert = build_certificate(section5, phi, ref.LAMBDA_PHI_CRITICAL)
        b_tilde, c_f_phi = cert.b_tilde, cert.c_f_phi
        assert b_tilde == pytest.approx(ref.B_TILDE, rel=1e-10)
        assert c_f_phi == pytest.approx(ref.C_F_PHI, rel=1e-10)


class TestStructure:
    def test_no_growth_means_zero_omega(self):
        problem = problem_with(sigma=0.0)
        cert = build_certificate(problem)
        assert cert.omega == 0.0
        assert cert.omega_paper_variant == 0.0
        assert cert.ball_radius == cert.lambda_cap

    def test_b_to_one_limits(self):
        problem = problem_with(b=1.0 + 1e-12)
        cert = build_certificate(problem)
        assert cert.omega == pytest.approx(0.0, abs=1e-3)
        assert cert.lambda_cap == pytest.approx(
            abs(problem.phi / 3.0) / math.gamma(ORDER.gamma), rel=1e-3
        )
        b_const, c_f = cert.b_const, cert.c_f
        assert b_const == pytest.approx(0.0, abs=1e-3)
        assert c_f == pytest.approx(0.0, abs=1e-3)

    def test_uniqueness_linear_in_K(self):
        a1 = uniqueness_constant(problem_with(K=0.2))
        a2 = uniqueness_constant(problem_with(K=0.4))
        assert a2 == pytest.approx(2.0 * a1, rel=1e-12)
        assert uniqueness_constant(problem_with(K=0.0)) == 0.0

    def test_no_lipschitz_in_v_means_cf_equals_b(self):
        cert = build_certificate(problem_with(K=0.0))
        b_const, c_f = cert.b_const, cert.c_f
        assert c_f == b_const

    def test_monotone_in_interval_length(self):
        # omega, lambda, A, B, C_f all grow with b; B_tilde decreases
        # (it carries the negative power (log b)^(gamma-1))
        bs = (1.5, 2.0, math.e)
        rows = []
        for b in bs:
            problem = problem_with(b=b)
            cert = build_certificate(problem)
            b_const, c_f = cert.b_const, cert.c_f
            rows.append((cert.omega, cert.lambda_cap, uniqueness_constant(problem), b_const, c_f,
                         cert.b_tilde))
        for i in range(5):
            values = [row[i] for row in rows]
            assert values == sorted(values)
        b_tildes = [row[5] for row in rows]
        assert b_tildes == sorted(b_tildes, reverse=True)

    def test_flag_thresholds_are_sharp(self):
        # existence_ok and uniqueness_ok are pure comparisons with 1
        good = build_certificate(problem_with())
        assert good.existence_ok and good.uniqueness_ok
        bad = build_certificate(problem_with(K=0.9, sigma=0.45))
        assert not bad.uniqueness_ok
        assert bad.ball_radius is None or bad.omega < 1.0

    def test_precondition_errors(self):
        with pytest.raises(DomainError):
            RhsSpec(kind="paper-example", K_f=0.5, L_f=1.0,
                    delta_star=0.1, sigma_star=0.1, rho_star=0.1)
        with pytest.raises(DomainError):
            RhsSpec(kind="paper-example", K_f=0.5, L_f=0.5,
                    delta_star=0.1, sigma_star=0.1, rho_star=1.0)


class TestGronwallBound:
    def test_zero_rate_limit(self):
        grid = LogGrid(math.e, 64)
        w = np.linspace(1.0, 2.0, grid.n_nodes)
        bound = gronwall_bound(grid, w, k=1e-12, alpha=0.5)
        assert np.max(np.abs(bound - w)) < 1e-10

    def test_alpha_one_is_exponential(self):
        # E_1(k log t) = t^k, so a constant profile is bounded by c t^k
        grid = LogGrid(math.e, 64)
        c, k = 2.0, 0.7
        bound = gronwall_bound(grid, np.full(grid.n_nodes, c), k=k, alpha=1.0 - 1e-12)
        expected = c * grid.nodes**k
        assert np.max(np.abs(bound - expected) / expected) < 1e-6

    def test_against_kernel_series_quadrature(self):
        # sum_n (k Gamma(a))^n / Gamma(n a) (log t/s)^(n a - 1) integrated
        # against w = 1 telescopes into E_a(k Gamma(a) (log t)^a) - 1
        from scipy import integrate

        grid = LogGrid(math.e, 16)
        alpha, k = 0.6, 0.8
        bound = gronwall_bound(grid, np.ones(grid.n_nodes), k=k, alpha=alpha)
        x_target = grid.log_nodes[-1]

        total = 0.0
        for n in range(1, 50):
            coeff = (k * math.gamma(alpha)) ** n / math.gamma(n * alpha)
            p = n * alpha - 1.0
            if p < 0.0:
                val, _ = integrate.quad(
                    lambda s: 1.0, 0.0, x_target, weight="alg", wvar=(0.0, p)
                )
            else:
                val, _ = integrate.quad(
                    lambda s: (x_target - s) ** p, 0.0, x_target
                )
            total += coeff * val
        assert 1.0 + total == pytest.approx(float(bound[-1]), rel=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(min_value=1e-6, max_value=1.0, exclude_min=True, exclude_max=True),
        k=st.floats(min_value=0.0, max_value=2.0, exclude_min=True),
        log_b=st.floats(min_value=0.1, max_value=2.0),
        panels=st.integers(min_value=1, max_value=600),
    )
    def test_matches_scalar_series_per_node(self, alpha, k, log_b, panels):
        grid = LogGrid(math.exp(log_b), panels)
        w = np.linspace(0.5, 2.0, grid.n_nodes)
        z = k * math.gamma(alpha) * grid.log_nodes**alpha
        try:
            mittag_leffler(alpha, float(z[-1]))
        except (MLOverflowError, ConvergenceError) as exc:
            # the scalar series at the last node fails the same way
            with pytest.raises(type(exc)):
                gronwall_bound(grid, w, k=k, alpha=alpha)
            return
        bound = gronwall_bound(grid, w, k=k, alpha=alpha)
        assert bound[0] == w[0]
        expected = w * np.array([mittag_leffler(alpha, float(zi)).value for zi in z])
        np.testing.assert_allclose(bound, expected, rtol=2e-15, atol=0.0)

    def test_overflow_at_last_node_raises(self):
        # E_(1/3) overflows at z = 50 (specfun's own overflow case)
        grid = LogGrid(math.e, 32)
        alpha = 1.0 / 3.0
        k = 50.0 / math.gamma(alpha)
        with pytest.raises(MLOverflowError):
            mittag_leffler(alpha, k * math.gamma(alpha))
        with pytest.raises(MLOverflowError):
            gronwall_bound(grid, np.ones(grid.n_nodes), k=k, alpha=alpha)

    def test_gamma_overflow_raises_ml_overflow(self):
        # Gamma(1e-310) ~ 1e310 exceeds double precision
        grid = LogGrid(math.e, 4)
        with pytest.raises(MLOverflowError, match="alpha=1e-310"):
            gronwall_bound(grid, np.ones(grid.n_nodes), k=1.0, alpha=1e-310)

    def test_requires_nondecreasing_profile(self):
        grid = LogGrid(math.e, 16)
        w = np.ones(grid.n_nodes)
        w[5] = 0.5
        with pytest.raises(DomainError):
            gronwall_bound(grid, w, k=1.0, alpha=0.5)

    def test_parameter_domains(self):
        grid = LogGrid(math.e, 16)
        w = np.ones(grid.n_nodes)
        with pytest.raises(DomainError):
            gronwall_bound(grid, w, k=0.0, alpha=0.5)
        with pytest.raises(DomainError):
            gronwall_bound(grid, w, k=1.0, alpha=1.5)


class TestRassiasVerification:
    def test_critical_profile_passes(self, section5, grid512):
        g, a = ORDER.gamma, ORDER.alpha
        phi = log_power(grid512, g, g - 1.0)
        lam = math.gamma(g) / math.gamma(g + a) * math.log(section5.b) ** a
        with pytest.warns(UserWarning):
            cert = build_certificate(section5, phi, lam)
        b_tilde, c_f_phi = cert.b_tilde, cert.c_f_phi
        assert c_f_phi == pytest.approx(
            b_tilde * lam**2
            * mittag_leffler(a, 0.5 * math.log(section5.b) ** a).value,
            rel=1e-12,
        )

    def test_constant_profile_passes(self, section5, grid512):
        a = ORDER.alpha
        phi = log_power(grid512, ORDER.gamma, 0.0)
        lam = math.log(section5.b) ** a / math.gamma(a + 1.0)
        cert = build_certificate(section5, phi, lam)
        b_tilde, c_f_phi = cert.b_tilde, cert.c_f_phi
        assert c_f_phi > 0.0

    def test_zero_lambda_rejected(self, section5, grid512):
        phi = log_power(grid512, ORDER.gamma, 0.0)
        with pytest.raises(CertificateRejected):
            build_certificate(section5, phi, 0.0)

    def test_insufficient_lambda_rejected(self, section5, grid512):
        a = ORDER.alpha
        phi = log_power(grid512, ORDER.gamma, 0.0)
        lam = 0.5 * math.log(section5.b) ** a / math.gamma(a + 1.0)
        with pytest.raises(CertificateRejected) as err:
            build_certificate(section5, phi, lam)
        assert err.value.violations

    def test_lambda_phi_just_below_sharp_rejected(self, section5, grid512):
        # the sharp constant passes within roundoff; 1e-7 below it the last
        # node exceeds by about 1.1e-7, beyond the 1e-9 comparison slack
        a = ORDER.alpha
        phi = log_power(grid512, ORDER.gamma, 0.0)
        sharp = math.log(section5.b) ** a / math.gamma(a + 1.0)
        assert build_certificate(section5, phi, sharp).lambda_phi == sharp
        with pytest.raises(CertificateRejected) as err:
            build_certificate(section5, phi, sharp * (1.0 - 1e-7))
        assert err.value.violations[-1] == grid512.n_panels

    def test_profile_on_another_interval_rejected(self, section5):
        # on [1, 2] phi = 1 passes a lambda_phi that [1, e] rejects
        lam = 0.9 / math.gamma(ORDER.alpha + 1.0)
        with pytest.raises(CertificateRejected):
            build_certificate(section5, log_power(LogGrid(section5.b, 512), ORDER.gamma, 0.0), lam)
        phi = log_power(LogGrid(2.0, 512), ORDER.gamma, 0.0)
        with pytest.raises(
            GridMismatchError, match=r"grid on \[1, 2\.0\] for a problem posed on \[1, 2\.718"
        ):
            build_certificate(section5, phi, lam)


class TestCertificateRecord:
    def test_text_serialization(self, section5):
        cert = build_certificate(section5)
        text = cert.as_text()
        assert "uniqueness_ok = true" in text
        assert "existence_ok = true" in text
        assert "omega_paper_variant = " in text
        assert "lambda_phi" not in text  # absent unless supplied
        assert text.endswith("\n")

    def test_rassias_fields_present_when_supplied(self, section5, grid512):
        phi = log_power(grid512, ORDER.gamma, ORDER.gamma - 1.0)
        with pytest.warns(UserWarning):
            cert = build_certificate(
                section5, phi_weight=phi, lambda_phi=ref.LAMBDA_PHI_CRITICAL
            )
        assert cert.lambda_phi == ref.LAMBDA_PHI_CRITICAL
        assert cert.c_f_phi == pytest.approx(ref.C_F_PHI, rel=1e-10)
        assert "c_f_phi = " in cert.as_text()

    def test_growth_series_evaluated_once(self, monkeypatch):
        import hhfrac.certificates as cert_mod

        config = load_config(str(ROOT / "configs" / "uhr_section5.cfg"))
        grid = config.grid()
        problem = config.problem(grid)
        phi = config.phi_profile(grid)
        calls = []

        def counting(alpha, z, *args, **kwargs):
            calls.append(z)
            return mittag_leffler(alpha, z, *args, **kwargs)

        monkeypatch.setattr(cert_mod, "mittag_leffler", counting)
        with pytest.warns(UserWarning):
            cert = build_certificate(problem, phi_weight=phi, lambda_phi=config.lambda_phi)
        assert len(calls) == 1

    def test_monotonicity_warning_names_the_caller(self, section5, grid512):
        phi = log_power(grid512, ORDER.gamma, ORDER.gamma - 1.0)
        with pytest.warns(UserWarning) as record:
            build_certificate(section5, phi_weight=phi, lambda_phi=ref.LAMBDA_PHI_CRITICAL)
        assert record[0].filename == __file__
        # run_experiments builds the certificate, so the warning names its
        # call of build_certificate, as in `hhfrac stability`'s stderr
        spec = PerturbationSpec("log-power", 1e-3, phi_profile=phi)
        with pytest.warns(UserWarning) as record:
            run_experiments(section5, [spec], grid512, ref.LAMBDA_PHI_CRITICAL)
        assert record[0].filename == stability_mod.__file__

    def test_existence_ok_reads_omega_alone(self):
        # the literal omega decides; omega_paper_variant is reported only
        problem = ProblemSpec(
            order=ORDER, b=math.e, c1=2.0, c2=1.0, phi=1.0,
            rhs=affine_rhs(0.1, 0.0, 0.58, 0.0, math.e),
        )
        cert = build_certificate(problem)
        assert cert.omega == pytest.approx(0.9331, abs=1e-4)
        assert cert.omega_paper_variant == pytest.approx(1.0181, abs=1e-4)
        assert cert.existence_ok
        assert cert.ball_radius is not None

    @pytest.mark.xfail(
        strict=True,
        reason="lambda_cap has no delta_star factor, so the ball radius does "
        "not bound a solution driven by a large delta_star",
    )
    def test_ball_radius_bounds_large_delta_star_solution(self):
        problem = ProblemSpec(
            order=ORDER, b=math.e, c1=2.0, c2=1.0, phi=1.0,
            rhs=affine_rhs(10.0, 0.0, 0.0, 0.0, math.e),
        )
        cert = build_certificate(problem)
        u, _ = picard_solve(problem, LogGrid(math.e, 512))
        # 8.33 against 1.71
        assert weighted_norm(u) <= cert.ball_radius

    @pytest.mark.parametrize("case", ["ulam-hyers", "rassias", "omega-at-least-1"])
    def test_text_lists_the_set_fields_in_field_order(self, case, section5, grid512):
        if case == "rassias":
            phi = log_power(grid512, ORDER.gamma, ORDER.gamma - 1.0)
            with pytest.warns(UserWarning):
                cert = build_certificate(section5, phi, ref.LAMBDA_PHI_CRITICAL)
        else:
            cert = build_certificate(section5 if case == "ulam-hyers" else problem_with(sigma=3.5))
        keys = [line.partition(" = ")[0] for line in cert.as_text().splitlines()]
        set_fields = [
            f.name for f in dataclasses.fields(cert) if getattr(cert, f.name) is not None
        ]
        assert keys == set_fields
        assert ("ball_radius" in keys) == (case != "omega-at-least-1")
        assert ("c_f_phi" in keys) == (case == "rassias")

    def test_ball_radius_only_with_existence(self):
        cert = build_certificate(problem_with(sigma=3.5))
        assert cert.omega >= 1.0
        assert cert.ball_radius is None
        assert "ball_radius" not in cert.as_text()
