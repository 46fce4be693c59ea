"""Written-out reference computations that several test modules compare against.

Each one spells out, with public operators and plain numpy, a value the
library derives in one place, so a test can pin the library's path bit for
bit without calling it.
"""

import numpy as np

from hhfrac.grids import GridFunction


def reference_rhs(rhs, order, grid, u, shift=None):
    """F_u = f(t, u, F_u) + shift on u's grid, in weight class gamma.

    The catalog's closed-form implicit solve at the raw interior values,
    and the right-hand side's weighted limit (plus the shift's) at 1+.
    """
    g = order.gamma
    s_raw = shift.raw_tail() if shift is not None else 0.0
    s_w0 = shift.weighted_limit if shift is not None else 0.0
    w = np.empty(grid.n_nodes)
    w[0] = rhs.weighted_limit(u.weighted_limit, g) + s_w0
    w[1:] = rhs.implicit_solution(grid.nodes[1:], u.raw_tail(), s_raw) * grid.log_nodes[1:] ** (
        1.0 - g
    )
    return GridFunction(grid, g, w)
