"""Closed forms and operator identities of the discrete Hadamard calculus.

Sup norms are measured over the nodes with t >= 1.1; the first nodes sit
inside the weighted boundary layer where the one-sided stencils and the
endpoint quadrature are only first-order accurate, and the closed-form
accuracy targets are specified on [1.1, b].
"""

import math

import numpy as np
import pytest

from hhfrac.errors import DomainError
from hhfrac.grids import GridFunction, LogGrid, Order, log_power, weighted_norm
from hhfrac.hadamard import (
    _panel_weights,
    hadamard_derivative,
    hadamard_integral,
    hilfer_hadamard_derivative,
)
from oracles import value_at_b

G = math.gamma
ALPHAS = (0.25, 1.0 / 3.0, 0.75)
BETA_TYPE = 2.0 / 3.0


def window(grid):
    return grid.nodes[1:] >= 1.1


def rel_err(result, truth_raw, grid):
    win = window(grid)
    raw = result.raw_tail()
    return np.max(np.abs(raw[win] - truth_raw[win]) / np.abs(truth_raw[win]))


def sup_err(values, grid):
    return float(np.max(np.abs(values[window(grid)])))


def trig(grid, seed=3):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, 4)
    logb = math.log(grid.b)

    def raw(t):
        x = np.log(t)
        return sum(c * np.sin((k + 1) * math.pi * x / logb) for k, c in enumerate(coeffs))

    return GridFunction.from_raw_callable(grid, 0.0, raw)


class TestIntegralClosedForms:
    """The integral maps (log t)^(c-1) to G(c)/G(c+mu) (log t)^(c+mu-1)."""

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_critical_mode_exact(self, alpha):
        g = Order(alpha, BETA_TYPE).gamma
        grid = LogGrid(math.e, 512)
        x = grid.log_nodes
        result = hadamard_integral(log_power(grid, g, g - 1.0), alpha)
        truth = G(g) / G(g + alpha) * x ** (g + alpha - 1.0)
        assert rel_err(result, truth[1:] * 0 + G(g) / G(g + alpha) * x[1:] ** (g + alpha - 1.0), grid) < 1e-12

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_constant_exact(self, alpha):
        grid = LogGrid(math.e, 512)
        x = grid.log_nodes
        result = hadamard_integral(log_power(grid, 0.0, 0.0), alpha)
        truth = x[1:] ** alpha / G(alpha + 1.0)
        assert rel_err(result, truth, grid) < 1e-12

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_linear_exact(self, alpha):
        grid = LogGrid(math.e, 512)
        x = grid.log_nodes
        result = hadamard_integral(log_power(grid, 0.0, 1.0), alpha)
        truth = G(2.0) / G(2.0 + alpha) * x[1:] ** (1.0 + alpha)
        assert rel_err(result, truth, grid) < 1e-12

    def test_general_log_power(self):
        # exponent above the critical one, stored in class gamma
        grid = LogGrid(math.e, 512)
        g = 7.0 / 9.0
        x = grid.log_nodes
        result = hadamard_integral(log_power(grid, g, 2.0), 0.6)
        truth = G(3.0) / G(3.6) * x[1:] ** 2.6
        assert rel_err(result, truth, grid) < 1e-3

    def test_mixed_family_order_at_least_1_5(self):
        # (log t)^(gamma-1) (1 + (log t)^2) is not integrated exactly
        alpha = 1.0 / 3.0
        g = Order(alpha, BETA_TYPE).gamma
        errs = []
        for n in (128, 256, 512):
            grid = LogGrid(math.e, n)
            x = grid.log_nodes
            w = np.empty(grid.n_nodes)
            w[0] = 1.0
            w[1:] = 1.0 + x[1:] ** 2
            result = hadamard_integral(GridFunction(grid, g, w), alpha)
            truth = (
                G(g) / G(g + alpha) * x[1:] ** (g + alpha - 1.0)
                + G(g + 2.0) / G(g + 2.0 + alpha) * x[1:] ** (g + alpha + 1.0)
            )
            errs.append(rel_err(result, truth, grid))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.5
        assert errs[-1] < 1e-4

    def test_vanishing_weighted_limit(self):
        # node-0 output of every integral is exactly 0 by construction
        grid = LogGrid(math.e, 64)
        g = 0.7
        for f in (log_power(grid, g, g - 1.0), log_power(grid, 0.0, 0.0)):
            assert hadamard_integral(f, 0.5).weighted_limit == 0.0

    def test_domain_errors(self):
        grid = LogGrid(math.e, 16)
        f = log_power(grid, 0.5, 0.0)
        with pytest.raises(DomainError):
            hadamard_integral(f, 0.0)
        with pytest.raises(DomainError):
            hadamard_integral(f, -0.5)
        # class 0 with a nonzero limit encodes 1/log t: not integrable
        bad = GridFunction(grid, 0.0, np.ones(17))
        with pytest.raises(DomainError):
            hadamard_integral(bad, 0.5)


class TestDerivativeClosedForms:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_critical_mode_exact(self, alpha):
        g = Order(alpha, BETA_TYPE).gamma
        grid = LogGrid(math.e, 512)
        x = grid.log_nodes
        result = hadamard_derivative(log_power(grid, g, g - 1.0), alpha)
        truth = G(g) / G(g - alpha) * x[1:] ** (g - alpha - 1.0)
        assert rel_err(result, truth, grid) < 1e-12
        # output lands in the class whose leading mode it is
        assert result.gamma_weight == pytest.approx(g - alpha)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_derivative_of_constant_not_zero(self, alpha):
        grid = LogGrid(math.e, 512)
        x = grid.log_nodes
        result = hadamard_derivative(log_power(grid, 0.0, 0.0), alpha)
        truth = x[1:] ** (-alpha) / G(1.0 - alpha)
        assert rel_err(result, truth, grid) < 2e-4

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_linear(self, alpha):
        grid = LogGrid(math.e, 512)
        x = grid.log_nodes
        result = hadamard_derivative(log_power(grid, 0.0, 1.0), alpha)
        truth = G(2.0) / G(2.0 - alpha) * x[1:] ** (1.0 - alpha)
        assert rel_err(result, truth, grid) < 5e-4

    def test_annihilates_own_critical_exponent(self):
        # D^mu (log t)^(mu-1) = 0: the Gamma pole kills the coefficient
        grid = LogGrid(math.e, 256)
        mu = 0.4
        result = hadamard_derivative(log_power(grid, mu, mu - 1.0), mu)
        assert weighted_norm(result) < 1e-13

    def test_needs_three_nodes(self):
        grid = LogGrid(math.e, 2)
        f = log_power(grid, 0.5, 1.0)
        hadamard_derivative(f, 0.3)  # 3 nodes: smallest admissible
        with pytest.raises(DomainError):
            hadamard_derivative(log_power(LogGrid(math.e, 1), 0.5, 1.0), 0.3)

    def test_order_range_checked(self):
        f = log_power(LogGrid(math.e, 16), 0.5, 1.0)
        for mu in (0.0, 1.0, 1.3):
            with pytest.raises(DomainError):
                hadamard_derivative(f, mu)

    def test_mode_below_output_classes_rejected(self):
        # (log t)^(0.2-1) differentiated by 0.7 leaves every weight class
        grid = LogGrid(math.e, 32)
        with pytest.raises(DomainError):
            hadamard_derivative(log_power(grid, 0.2, -0.8), 0.7)


class TestSemigroupAndInverses:
    @pytest.mark.parametrize("pair", [(0.3, 0.4), (0.25, 0.5), (1.0 / 3.0, 1.0 / 3.0)])
    def test_semigroup_smooth(self, pair):
        a, b = pair
        grid = LogGrid(math.e, 512)
        f = trig(grid)
        diff = hadamard_integral(hadamard_integral(f, b), a) - hadamard_integral(f, a + b)
        assert sup_err(diff.weighted_values[1:], grid) < 1e-4

    def test_semigroup_empirical_order(self):
        # || I^a I^b f - I^(a+b) f || <= C h^1.5 checked by dyadic fit
        errs = []
        for n in (128, 256, 512):
            grid = LogGrid(math.e, n)
            f = trig(grid)
            diff = (
                hadamard_integral(hadamard_integral(f, 0.4), 0.3)
                - hadamard_integral(f, 0.7)
            )
            errs.append(sup_err(diff.weighted_values[1:], grid))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.5

    def test_semigroup_critical_class(self):
        grid = LogGrid(math.e, 512)
        g = 7.0 / 9.0
        x = grid.log_nodes
        w = np.empty(grid.n_nodes)
        w[0] = 1.0
        w[1:] = 1.0 + x[1:] ** 2
        f = GridFunction(grid, g, w)
        diff = (
            hadamard_integral(hadamard_integral(f, 0.4), 1.0 / 3.0)
            - hadamard_integral(f, 0.4 + 1.0 / 3.0)
        )
        assert sup_err(diff.weighted_values[1:], grid) < 1e-3

    @pytest.mark.parametrize("mu", [0.3, 0.5, 0.7])
    def test_left_inverse(self, mu):
        grid = LogGrid(math.e, 512)
        f = trig(grid)
        roundtrip = hadamard_derivative(hadamard_integral(f, mu), mu)
        assert sup_err(roundtrip.raw_tail() - f.raw_tail(), grid) < 1e-3

    def test_newton_leibniz_vanishing_limit_term(self):
        # f = (log t)^(gamma-1) + (log t)^2: (I^(1-a) f)(1+) = 0, so
        # I^a D^a f = f
        alpha = 1.0 / 3.0
        g = Order(alpha, BETA_TYPE).gamma
        grid = LogGrid(math.e, 512)
        x = grid.log_nodes
        w = np.empty(grid.n_nodes)
        w[0] = 1.0
        w[1:] = 1.0 + x[1:] ** (3.0 - g)
        f = GridFunction(grid, g, w)
        roundtrip = hadamard_integral(hadamard_derivative(f, alpha), alpha)
        assert sup_err(roundtrip.raw_tail() - f.raw_tail(), grid) < 1e-3

    def test_newton_leibniz_active_limit_term(self):
        # f = (log t)^(a-1) + (log t)^2: (I^(1-a) f)(1+) = Gamma(a), and
        # I^a D^a f = f - (log t)^(a-1), i.e. exactly (log t)^2
        alpha = 1.0 / 3.0
        grid = LogGrid(math.e, 512)
        x = grid.log_nodes
        w = np.empty(grid.n_nodes)
        w[0] = 1.0
        w[1:] = 1.0 + x[1:] ** (3.0 - alpha)
        f = GridFunction(grid, alpha, w)
        roundtrip = hadamard_integral(hadamard_derivative(f, alpha), alpha)
        assert sup_err(roundtrip.raw_tail() - x[1:] ** 2, grid) < 1e-3


class TestHilferDerivative:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_annihilates_critical_mode(self, alpha):
        order = Order(alpha, BETA_TYPE)
        grid = LogGrid(math.e, 256)
        f = log_power(grid, order.gamma, order.gamma - 1.0)
        assert weighted_norm(hilfer_hadamard_derivative(f, order)) == 0.0

    @pytest.mark.parametrize("gamma_weight", [7.0 / 9.0, 0.0])
    def test_log_square(self, gamma_weight):
        order = Order(1.0 / 3.0, BETA_TYPE)
        grid = LogGrid(math.e, 512)
        x = grid.log_nodes
        f = log_power(grid, gamma_weight, 2.0)
        result = hilfer_hadamard_derivative(f, order)
        truth = G(3.0) / G(3.0 - order.alpha) * x[1:] ** (2.0 - order.alpha)
        assert rel_err(result, truth, grid) < 1e-3

    def test_type_zero_is_riemann_liouville(self):
        # beta = 0 reduces to D I^(1-alpha), the plain Hadamard derivative
        alpha = 0.4
        grid = LogGrid(math.e, 256)
        f = log_power(grid, 0.0, 2.0)
        a = hilfer_hadamard_derivative(f, Order(alpha, 0.0))
        b = hadamard_derivative(f, alpha)
        assert np.array_equal(a.weighted_values, b.weighted_values)

    def test_type_one_is_caputo(self):
        # beta = 1 gives I^(1-alpha) (t d/dt): on (log t)^2 the closed form
        # matches the order-alpha derivative of the same power
        alpha = 1.0 / 3.0
        grid = LogGrid(math.e, 512)
        x = grid.log_nodes
        result = hilfer_hadamard_derivative(log_power(grid, 0.0, 2.0), Order(alpha, 1.0))
        truth = G(3.0) / G(3.0 - alpha) * x[1:] ** (2.0 - alpha)
        assert rel_err(result, truth, grid) < 1e-3

    def test_left_inverse_of_integral(self):
        order = Order(1.0 / 3.0, BETA_TYPE)
        grid = LogGrid(math.e, 512)
        for f in (
            log_power(grid, order.gamma, 2.0, 1.3),
            log_power(grid, 0.0, 2.0, 1.3),
            log_power(grid, order.gamma, order.gamma, 0.7),
        ):
            roundtrip = hilfer_hadamard_derivative(
                hadamard_integral(f, order.alpha), order
            )
            assert sup_err(roundtrip.raw_tail() - f.raw_tail(), grid) < 1e-3

    def test_mode_below_critical_rejected(self):
        order = Order(1.0 / 3.0, BETA_TYPE)
        grid = LogGrid(math.e, 64)
        f = log_power(grid, 0.5, -0.5)  # leading exponent below gamma - 1
        with pytest.raises(DomainError):
            hilfer_hadamard_derivative(f, order)


class TestCompositionIdentities:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_via_gamma_derivative(self, alpha):
        # I^gamma D^gamma f = I^alpha D^(alpha,beta) f
        order = Order(alpha, BETA_TYPE)
        g = order.gamma
        grid = LogGrid(math.e, 512)
        x = grid.log_nodes
        w = np.empty(grid.n_nodes)
        w[0] = 0.7
        w[1:] = 0.7 + 1.3 * x[1:] ** (3.0 - g)
        f = GridFunction(grid, g, w)
        lhs = hadamard_integral(hadamard_derivative(f, g), g)
        rhs = hadamard_integral(hilfer_hadamard_derivative(f, order), alpha)
        assert sup_err(lhs.raw_tail() - rhs.raw_tail(), grid) < 1e-3

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_after_integral(self, alpha):
        # D^gamma I^alpha f = D^(beta(1-alpha)) f on smooth manufactured f
        order = Order(alpha, BETA_TYPE)
        grid = LogGrid(math.e, 512)
        f = log_power(grid, order.gamma, 2.0, 1.3)
        lhs = hadamard_derivative(hadamard_integral(f, alpha), order.gamma)
        rhs = hadamard_derivative(f, BETA_TYPE * (1.0 - alpha))
        assert sup_err(lhs.raw_tail() - rhs.raw_tail(), grid) < 1e-3

    def test_after_integral_with_critical_mode(self):
        # the same identity with the critical mode active loses roughly an
        # order of accuracy: the derivative of the integral sees a
        # fractional-power profile; kept as a looser regression guard
        alpha = 1.0 / 3.0
        order = Order(alpha, BETA_TYPE)
        g = order.gamma
        grid = LogGrid(math.e, 512)
        x = grid.log_nodes
        w = np.empty(grid.n_nodes)
        w[0] = 0.7
        w[1:] = 0.7 + 1.3 * x[1:] ** (3.0 - g)
        f = GridFunction(grid, g, w)
        lhs = hadamard_derivative(hadamard_integral(f, alpha), g)
        rhs = hadamard_derivative(f, BETA_TYPE * (1.0 - alpha))
        assert sup_err(lhs.raw_tail() - rhs.raw_tail(), grid) < 1e-2


def direct_integral_raw(f, mu):
    """Raw (I^mu f) at nodes 1..N by direct O(N^2) convolution of the weights."""
    grid, gw = f.grid, f.gamma_weight
    n = grid.n_panels
    x = grid.log_nodes[1:]
    w0 = f.weighted_limit
    g = (f.weighted_values[1:] - w0) * x ** (gw - 1.0)
    if n >= 3:
        g0 = 3.0 * g[0] - 3.0 * g[1] + g[2]
    elif n == 2:
        g0 = 2.0 * g[0] - g[1]
    else:
        g0 = g[0]
    a, d = _panel_weights(mu, grid.h, n)
    raw = (np.convolve(g, d)[:n] + g0 * a) / G(mu)
    if w0 != 0.0:
        raw += w0 * G(gw) / G(gw + mu) * x ** (gw + mu - 1.0)
    return raw


def four_power_weights(mu, h, n_panels):
    """The panel weights with (k-1)^mu and (k-1)^(mu+1) taken as powers of their own."""
    k = np.arange(1, n_panels + 1, dtype=float)
    diff = k**mu - (k - 1.0) ** mu
    m1 = h ** (mu + 1.0) * (k * diff / mu - (k ** (mu + 1.0) - (k - 1.0) ** (mu + 1.0)) / (mu + 1.0))
    a = h**mu * diff / mu - m1 / h
    b = m1 / h
    d = np.empty(n_panels)
    d[0] = b[0]
    d[1:] = a[:-1] + b[1:]
    return a, d


@pytest.mark.parametrize("n_panels", [1, 2, 3, 17, 512, 8192])
@pytest.mark.parametrize("mu", [1e-3, 0.2, 1.0 / 3.0, 5.0 / 9.0, 2.0 / 3.0, 0.999, 1.5, 2.25])
def test_panel_weights_bitwise_against_four_powers(mu, n_panels):
    # the lag-shifted powers k^p[:-1] stand in for (k-1)^p, bit for bit
    h = math.log(math.e * mu + 1.0) / n_panels
    expected = four_power_weights(mu, h, n_panels)
    for got, want in zip(_panel_weights.__wrapped__(mu, h, n_panels), expected):
        assert got.tobytes() == want.tobytes()


ORACLE_PANELS = (1, 2, 3, 5, 64, 513, 4096)
ORACLE_MUS = (0.2, 1.0 / 3.0, 2.0 / 3.0, 1.5)
# (weight class, weighted limit): class 0 admits only a zero limit
ORACLE_CLASSES = ((0.0, 0.0), (7.0 / 9.0, 0.0), (7.0 / 9.0, 0.8))


def oracle_function(n_panels, gamma_weight, limit):
    grid = LogGrid(math.e, n_panels)
    x = grid.log_nodes
    w = limit + np.sin(3.0 * x) + 0.5 * x**2
    w[0] = limit
    return GridFunction(grid, gamma_weight, w)


class TestAgainstDirectConvolution:
    """FFT convolution and the endpoint dot product against the direct sum."""

    @pytest.mark.parametrize("n_panels", ORACLE_PANELS)
    @pytest.mark.parametrize("mu", ORACLE_MUS)
    @pytest.mark.parametrize("cls", ORACLE_CLASSES)
    def test_integral_matches_direct(self, n_panels, mu, cls):
        f = oracle_function(n_panels, *cls)
        expected = direct_integral_raw(f, mu)
        result = hadamard_integral(f, mu)
        assert result.weighted_limit == 0.0
        tol = 1e-12 * np.max(np.abs(expected))
        assert np.max(np.abs(result.raw_tail() - expected)) <= tol

    @pytest.mark.parametrize("n_panels", ORACLE_PANELS)
    @pytest.mark.parametrize("mu", ORACLE_MUS)
    @pytest.mark.parametrize("cls", ORACLE_CLASSES)
    def test_value_at_b_is_last_node(self, n_panels, mu, cls):
        f = oracle_function(n_panels, *cls)
        raw = hadamard_integral(f, mu).raw_tail()
        tol = 1e-12 * np.max(np.abs(raw))
        assert abs(value_at_b(f, mu) - raw[-1]) <= tol

    @pytest.mark.parametrize("mu", [0.0, -0.5, math.nan])
    def test_same_error_for_bad_order(self, mu):
        f = oracle_function(8, 0.5, 0.0)
        messages = []
        for fn in (hadamard_integral, value_at_b):
            with pytest.raises(DomainError) as info:
                fn(f, mu)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_same_error_for_class_zero_limit(self):
        bad = GridFunction(LogGrid(math.e, 8), 0.0, np.ones(9))
        messages = []
        for fn in (hadamard_integral, value_at_b):
            with pytest.raises(DomainError, match="not Hadamard integrable") as info:
                fn(bad, 0.5)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
