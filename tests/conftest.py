import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import hhfrac.solver as solver_mod
from hhfrac import LogGrid, Order, paper_example_problem, picard_solve


@pytest.fixture(autouse=True)
def empty_solve_memo(monkeypatch):
    """Each test starts with no kept solve, so counts of sweeps and solves do
    not depend on which test ran before."""
    monkeypatch.setattr(solver_mod, "_last_solve", None)


@pytest.fixture(scope="session")
def order5() -> Order:
    return Order(alpha=1.0 / 3.0, beta_type=2.0 / 3.0)


@pytest.fixture(scope="session")
def section5():
    return paper_example_problem(phi=1.0)


@pytest.fixture(scope="session")
def grid512() -> LogGrid:
    return LogGrid(math.e, 512)


@pytest.fixture(scope="session")
def section5_solution(section5, grid512):
    return picard_solve(section5, grid512)
