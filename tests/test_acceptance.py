"""Acceptance criteria, one test per criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s`` or in the captured output) and asserts the stated bound at
its stated tolerance on the default 512-panel grid.
"""

import math

import numpy as np
import pytest

import reference_values as ref
from hhfrac.certificates import (
    build_certificate,
    uniqueness_constant,
)
from hhfrac.grids import GridFunction, LogGrid, Order, log_power, weighted_norm
from hhfrac.hadamard import (
    hadamard_derivative,
    hadamard_integral,
    hilfer_hadamard_derivative,
)
from hhfrac.problems import manufactured_problem, manufactured_solution
from hhfrac.solver import apply_Q, picard_solve
from hhfrac.specfun import mittag_leffler
from hhfrac.stability import PerturbationSpec, run_experiments, run_uh_experiment

G = math.gamma


def report(number: int, passed: bool, detail: str):
    print(f"criterion {number}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_uniqueness_constant(section5):
    a_const = uniqueness_constant(section5)
    passed = abs(a_const - 0.82) <= 0.01
    report(1, passed, f"A = {a_const:.6f}, target 0.82 +- 0.01")


def test_criterion_2_existence_constants(section5):
    cert = build_certificate(section5)
    omega, omega_pa = cert.omega, cert.omega_paper_variant
    ok_pa = abs(omega_pa - 0.88) <= 0.01
    ok_literal = abs(omega - ref.OMEGA_LITERAL) <= 1e-8 * ref.OMEGA_LITERAL
    ok_below_one = omega < 1.0 and omega_pa < 1.0
    report(
        2,
        ok_pa and ok_literal and ok_below_one,
        f"omega(paper arithmetic) = {omega_pa:.6f} (target 0.88 +- 0.01), "
        f"omega(literal) = {omega:.10f} vs reference {ref.OMEGA_LITERAL:.10f}",
    )


def _closed_form_error(n_panels: int, alpha: float, tag: str) -> float:
    gamma = Order(alpha, 2.0 / 3.0).gamma
    grid = LogGrid(math.e, n_panels)
    x = grid.log_nodes
    if tag == "constant":
        f = log_power(grid, 0.0, 0.0)
        truth = x[1:] ** alpha / G(alpha + 1.0)
    elif tag == "critical":
        f = log_power(grid, gamma, gamma - 1.0)
        truth = G(gamma) / G(gamma + alpha) * x[1:] ** (gamma + alpha - 1.0)
    else:
        f = log_power(grid, 0.0, 1.0)
        truth = G(2.0) / G(2.0 + alpha) * x[1:] ** (1.0 + alpha)
    win = grid.nodes[1:] >= 1.1
    raw = hadamard_integral(f, alpha).raw_tail()
    return float(np.max(np.abs(raw[win] - truth[win]) / np.abs(truth[win])))


def test_criterion_3_closed_forms_and_orders():
    worst_err = 0.0
    worst_order = math.inf
    details = []
    for alpha in (0.25, 1.0 / 3.0, 0.75):
        for tag in ("constant", "critical", "linear"):
            errs = [_closed_form_error(n, alpha, tag) for n in (128, 256, 512)]
            worst_err = max(worst_err, errs[-1])
            if max(errs) <= 1e-11:
                details.append(f"{tag}@{alpha:.3g}: exact")
            else:
                order = min(
                    math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)
                )
                worst_order = min(worst_order, order)
                details.append(f"{tag}@{alpha:.3g}: err {errs[-1]:.1e}, order {order:.2f}")
    passed = worst_err <= 1e-4 and worst_order >= 1.5
    report(3, passed, f"max rel err {worst_err:.2e}; " + "; ".join(details[:3]) + " ...")


def test_criterion_4_operator_identities():
    failures = []
    worst = 0.0
    for alpha in (0.25, 1.0 / 3.0, 0.75):
        order = Order(alpha, 2.0 / 3.0)
        g = order.gamma
        grid = LogGrid(math.e, 512)
        x = grid.log_nodes
        win = grid.nodes[1:] >= 1.1

        def track(name, err):
            nonlocal worst
            worst = max(worst, err)
            if err > 1e-3:
                failures.append(f"{name}@{alpha:.3g}: {err:.2e}")

        # semigroup on smooth data vanishing at 1
        rng = np.random.default_rng(13)
        coeffs = rng.uniform(-1.0, 1.0, 4)
        smooth = GridFunction.from_raw_callable(
            grid, 0.0,
            lambda t: sum(
                c * np.sin((k + 1) * math.pi * np.log(t) / math.log(grid.b))
                for k, c in enumerate(coeffs)
            ),
        )
        diff = (
            hadamard_integral(hadamard_integral(smooth, 0.4), alpha)
            - hadamard_integral(smooth, 0.4 + alpha)
        )
        track("semigroup", float(np.max(np.abs(diff.weighted_values[1:][win]))))

        # left inverse
        roundtrip = hadamard_derivative(hadamard_integral(smooth, alpha), alpha)
        track("left-inverse", float(np.max(np.abs(
            (roundtrip.raw_tail() - smooth.raw_tail())[win]
        ))))

        # Newton-Leibniz on (log t)^(gamma-1) + (log t)^2
        w = np.empty(grid.n_nodes)
        w[0] = 1.0
        w[1:] = 1.0 + x[1:] ** (3.0 - g)
        f = GridFunction(grid, g, w)
        nl = hadamard_integral(hadamard_derivative(f, alpha), alpha)
        track("newton-leibniz", float(np.max(np.abs(
            (nl.raw_tail() - f.raw_tail())[win]
        ))))

        # vanishing weighted limit at node 0 (exact by construction)
        track("vanishing-limit", abs(hadamard_integral(f, alpha).weighted_limit))

        # composition through the gamma-derivative
        w = np.empty(grid.n_nodes)
        w[0] = 0.7
        w[1:] = 0.7 + 1.3 * x[1:] ** (3.0 - g)
        f = GridFunction(grid, g, w)
        lhs = hadamard_integral(hadamard_derivative(f, g), g)
        rhs = hadamard_integral(hilfer_hadamard_derivative(f, order), alpha)
        track("composition-a", float(np.max(np.abs(
            (lhs.raw_tail() - rhs.raw_tail())[win]
        ))))

        # composition after the integral on smooth manufactured data
        f = log_power(grid, g, 2.0, 1.3)
        lhs = hadamard_derivative(hadamard_integral(f, alpha), g)
        rhs = hadamard_derivative(f, 2.0 / 3.0 * (1.0 - alpha))
        track("composition-b", float(np.max(np.abs(
            (lhs.raw_tail() - rhs.raw_tail())[win]
        ))))

    report(4, not failures, f"max identity error {worst:.2e}" +
           (f"; failures: {failures}" if failures else ""))


def test_criterion_5_manufactured_solve(grid512):
    order = Order(1.0 / 3.0, 2.0 / 3.0)
    problem = manufactured_problem(order, math.e, c1=2.0, c2=1.0, exponent=2.0)
    u, rep = picard_solve(problem, grid512)
    err = weighted_norm(u - manufactured_solution(problem, grid512))
    passed = rep.iterations <= 3 and err <= 1e-3 and rep.bc_defect <= 1e-6
    report(
        5, passed,
        f"iterations {rep.iterations} (<= 3), weighted error {err:.2e} (<= 1e-3), "
        f"bc defect {rep.bc_defect:.2e} (<= 1e-6)",
    )


def test_criterion_6_contraction_property(section5, grid512):
    a_const = uniqueness_constant(section5)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(20):
        wu = rng.uniform(-1.0, 1.0, grid512.n_nodes)
        wv = rng.uniform(-1.0, 1.0, grid512.n_nodes)
        u = GridFunction(grid512, section5.order.gamma, wu / np.max(np.abs(wu)))
        v = GridFunction(grid512, section5.order.gamma, wv / np.max(np.abs(wv)))
        ratio = weighted_norm(apply_Q(u, section5) - apply_Q(v, section5)) / weighted_norm(u - v)
        worst = max(worst, ratio)
    passed = worst <= a_const + 0.05
    report(6, passed, f"worst Lipschitz ratio {worst:.4f} vs A + 0.05 = {a_const + 0.05:.4f}")


def test_criterion_7_ulam_hyers(section5, grid512):
    cert = build_certificate(section5)
    b_const, c_f = cert.b_const, cert.c_f
    expected_cf = b_const * mittag_leffler(
        1.0 / 3.0, 0.5 * math.log(math.e) ** (1.0 / 3.0)
    ).value
    deviations = {}
    ok = abs(c_f - expected_cf) <= 1e-12
    for eps in (1e-2, 1e-3):
        verdict = run_uh_experiment(
            section5, PerturbationSpec("constant", eps), grid512
        )
        deviations[eps] = verdict.observed_deviation
        ok = ok and verdict.passed and verdict.observed_deviation <= c_f * eps
    ratio = deviations[1e-2] / deviations[1e-3]
    ok = ok and abs(ratio - 10.0) <= 1.0
    report(
        7, ok,
        f"C_f = {c_f:.6f}; deviations {deviations[1e-2]:.3e} / {deviations[1e-3]:.3e} "
        f"vs bounds {c_f * 1e-2:.3e} / {c_f * 1e-3:.3e}; scaling ratio {ratio:.3f}",
    )


def test_criterion_8_ulam_hyers_rassias(section5, grid512):
    order = section5.order
    g, a = order.gamma, order.alpha
    phi = log_power(grid512, g, g - 1.0)
    lam_phi = G(g) / G(g + a) * math.log(section5.b) ** a
    with pytest.warns(UserWarning, match="not increasing"):
        c_f_phi = build_certificate(section5, phi, lam_phi).c_f_phi
        verdict = run_experiments(
            section5,
            [PerturbationSpec("log-power", 1e-3, phi_profile=phi)],
            grid512,
            lam_phi,
        )[0]
    passed = verdict.passed and verdict.margin >= 0.0
    report(
        8, passed,
        f"lambda_phi = {lam_phi:.6f} verified; C_f_phi = {c_f_phi:.6f}; "
        f"worst node margin {verdict.margin:.3e}",
    )


def test_criterion_9_mittag_leffler_sanity():
    worst = 0.0
    for z in np.linspace(0.0, 20.0, 81):
        value = mittag_leffler(1.0, float(z)).value
        worst = max(worst, abs(value - math.exp(z)) / math.exp(z))
    exact_at_zero = all(
        mittag_leffler(alpha, 0.0).value == 1.0 for alpha in (0.2, 1.0 / 3.0, 0.9, 1.0)
    )
    passed = worst <= 1e-10 and exact_at_zero
    report(9, passed, f"max rel err of E_1 vs exp on [0,20]: {worst:.2e}; E_a(0) = 1 exactly")
