import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hhfrac.errors import DomainError, GridMismatchError
from hhfrac.grids import GridFunction, LogGrid, Order, log_power, weighted_norm


class TestOrder:
    def test_gamma_formula(self):
        order = Order(alpha=1.0 / 3.0, beta_type=2.0 / 3.0)
        assert order.gamma == pytest.approx(7.0 / 9.0, abs=1e-15)

    @given(
        st.floats(min_value=1e-3, max_value=0.999),
        st.floats(min_value=0.0, max_value=0.999),
    )
    def test_gamma_between_alpha_and_one(self, alpha, beta_type):
        order = Order(alpha, beta_type)
        assert alpha - 1e-12 <= order.gamma < 1.0
        assert order.gamma == pytest.approx(
            alpha + beta_type * (1.0 - alpha), abs=1e-15
        )

    def test_boundary_types(self):
        assert Order(0.4, 0.0).gamma == pytest.approx(0.4)
        # the Caputo endpoint has gamma = 1, outside the weighted classes;
        # the operators handle it, the weighted solution space does not
        assert Order(0.4, 1.0).gamma == 1.0

    @pytest.mark.parametrize("alpha,beta_type", [(0.0, 0.5), (1.0, 0.5), (0.5, -0.1), (0.5, 1.1)])
    def test_invalid_rejected(self, alpha, beta_type):
        with pytest.raises(DomainError):
            Order(alpha, beta_type)


class TestLogGrid:
    def test_uniform_log_spacing(self):
        grid = LogGrid(math.e, 64)
        x = grid.log_nodes
        spacings = np.diff(x)
        assert np.max(np.abs(spacings - grid.h)) < 1e-15
        assert x[0] == 0.0
        assert x[-1] == pytest.approx(1.0, abs=1e-15)

    def test_nodes_strictly_increasing(self):
        grid = LogGrid(2.5, 100)
        t = grid.nodes
        assert t[0] == 1.0
        assert t[-1] == 2.5
        assert np.all(np.diff(t) > 0.0)

    def test_invalid_rejected(self):
        with pytest.raises(DomainError):
            LogGrid(1.0, 8)
        with pytest.raises(DomainError):
            LogGrid(2.0, 0)

    @pytest.mark.parametrize("b", [math.inf, math.nan])
    def test_non_finite_b_rejected(self, b):
        with pytest.raises(DomainError, match="finite b > 1"):
            LogGrid(b, 8)

    def test_node_arrays_reject_writes(self):
        grid = LogGrid(math.e, 8)
        for arr in (grid.log_nodes, grid.nodes):
            with pytest.raises(ValueError):
                arr[1] = 0.0
        assert grid.log_nodes[1] == grid.h

    def test_equality_hash_and_repr_ignore_node_cache(self):
        a, b = LogGrid(math.e, 8), LogGrid(math.e, 8)
        assert a == b
        assert hash(a) == hash(b)
        assert a != LogGrid(math.e, 16)
        assert repr(a) == "LogGrid(b=2.718281828459045, n_panels=8)"

    @pytest.mark.parametrize("n_panels", [1, 8, 8192])
    def test_powers_are_cached_read_only_and_ignored_by_equality(self, n_panels):
        grid, fresh = LogGrid(math.e, n_panels), LogGrid(math.e, n_panels)
        g = 7.0 / 9.0
        for p in (g - 1.0, 1.0 - g, 1.0 / 3.0, 0.0, 2.5):
            power = grid.x_power(p)
            assert power.tobytes() == (grid.log_nodes[1:] ** p).tobytes()
            assert grid.x_power(p) is power
            with pytest.raises(ValueError):
                power[0] = 0.0
        assert grid == fresh and hash(grid) == hash(fresh) and repr(grid) == repr(fresh)


class TestGridFunction:
    def test_length_checked(self):
        grid = LogGrid(math.e, 8)
        with pytest.raises(DomainError):
            GridFunction(grid, 0.5, np.zeros(5))

    def test_finite_checked(self):
        grid = LogGrid(math.e, 8)
        values = np.zeros(9)
        values[3] = np.inf
        with pytest.raises(DomainError):
            GridFunction(grid, 0.5, values)

    def test_weight_class_range(self):
        grid = LogGrid(math.e, 8)
        with pytest.raises(DomainError):
            GridFunction(grid, 1.0, np.zeros(9))
        with pytest.raises(DomainError):
            GridFunction(grid, -0.1, np.zeros(9))

    def test_immutable(self):
        f = log_power(LogGrid(math.e, 8), 0.5, 1.0)
        with pytest.raises(AttributeError):
            f.gamma_weight = 0.3
        with pytest.raises(ValueError):
            f.weighted_values[0] = 1.0

    def test_raw_recovery(self):
        grid = LogGrid(math.e, 32)
        g = 0.7
        f = GridFunction.from_raw_callable(grid, g, lambda t: np.log(t) ** 2)
        assert np.allclose(f.raw_tail(), grid.log_nodes[1:] ** 2)

    def test_grid_mismatch_rejected(self):
        a = log_power(LogGrid(math.e, 8), 0.5, 1.0)
        b = log_power(LogGrid(math.e, 16), 0.5, 1.0)
        c = log_power(LogGrid(2.0, 8), 0.5, 1.0)
        with pytest.raises(GridMismatchError):
            a + b
        with pytest.raises(GridMismatchError):
            a - c

    def test_weight_class_mismatch_rejected(self):
        grid = LogGrid(math.e, 8)
        with pytest.raises(GridMismatchError):
            log_power(grid, 0.5, 1.0) + log_power(grid, 0.6, 1.0)


class TestWeightedNorm:
    def test_zero_function(self):
        grid = LogGrid(math.e, 16)
        assert weighted_norm(GridFunction(grid, 0.5, np.zeros(17))) == 0.0

    def test_weight_cancels_on_critical_mode(self):
        grid = LogGrid(math.e, 16)
        g = 7.0 / 9.0
        f = log_power(grid, g, g - 1.0)
        assert weighted_norm(f) == pytest.approx(1.0, abs=1e-15)

    def test_modulated_critical_mode(self):
        # u = (log t)^(gamma-1) sin(log t): the norm is max_i |sin(log t_i)|
        grid = LogGrid(math.e, 64)
        g = 7.0 / 9.0
        x = grid.log_nodes
        w = np.sin(x)
        f = GridFunction(grid, g, w)
        assert weighted_norm(f) == pytest.approx(np.max(np.abs(np.sin(x))), abs=1e-15)

    @given(st.floats(min_value=-5.0, max_value=5.0))
    def test_absolute_homogeneity(self, scale):
        grid = LogGrid(math.e, 16)
        f = log_power(grid, 0.5, 1.0)
        assert weighted_norm(f * scale) == pytest.approx(
            abs(scale) * weighted_norm(f), rel=1e-12, abs=1e-300
        )


class TestLogPower:
    def test_unrepresentable_exponent_rejected(self):
        with pytest.raises(DomainError):
            log_power(LogGrid(math.e, 8), 0.5, -0.7)

    def test_critical_mode_is_constant_profile(self):
        grid = LogGrid(math.e, 8)
        f = log_power(grid, 0.5, -0.5, coeff=2.0)
        assert np.all(f.weighted_values == 2.0)
