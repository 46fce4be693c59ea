"""Public-surface checks: the exports resolve, modules use each other only
through public names, and the benchmark's span recorder still finds the
names it reads."""

import ast
import importlib.util
import sys
from pathlib import Path

import hhfrac
from hhfrac import hadamard, solver, stability
from hhfrac.grids import LogGrid
from hhfrac.problems import paper_example_problem

PACKAGE = Path(hhfrac.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def test_every_export_resolves():
    missing = [name for name in hhfrac.__all__ if not hasattr(hhfrac, name)]
    assert missing == []


def test_no_private_imports_between_modules():
    # "from .module import _name" couples a module to a sibling's internals
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}:{node.lineno}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def test_library_imports_numpy_and_the_standard_library_only():
    # the test extra installs scipy and mpmath, so an import of either
    # would pass every other test
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.split(".")[0] not in {"hhfrac", "numpy", *sys.stdlib_module_names}
            ]
    assert offenders == []


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_reads_the_solver_contract():
    # the traced benchmark reads each solve's grid argument and report, and
    # the weight cache's counters
    originals = {
        (solver, "picard_solve"): solver.picard_solve,
        (stability, "run_experiments"): stability.run_experiments,
        (stability, "picard_solve"): stability.picard_solve,
        (stability, "solve_with_fixed_constant"): stability.solve_with_fixed_constant,
    }
    info = hadamard._panel_weights.cache_info
    before = info()
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        problem = paper_example_problem()
        grid = LogGrid(problem.b, 16)
        solver.picard_solve(problem, grid)
        stability.run_experiments(problem, [stability.PerturbationSpec("constant", 1e-3)], grid)
        now = info()
        snap = tracer.snapshot(now.hits - before.hits, now.misses - before.misses)
    finally:
        tracer.remove()
    assert snap["solver.solves"] == (3, "count")
    assert snap["solver.picard_sweeps"][0] > 0
    assert 16 in tracer.level_s
    for (module, name), original in originals.items():
        assert getattr(module, name) is original, name


def test_benchmark_operation_runs_traced(monkeypatch):
    # one traced sweep-small operation reads every library name the
    # benchmark uses: the workload's calls, the span targets and the weight
    # cache's counters
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    problem = workloads.build_problem(workloads.draw_problems(0, 1)[0])
    info = hadamard._panel_weights.cache_info
    before = info()
    tracer = spans.Tracer()
    tracer.install()
    try:
        defect = workloads.sweep_op(problem)[0]
        now = info()
        snap = tracer.snapshot(now.hits - before.hits, now.misses - before.misses)
    finally:
        tracer.remove()
    assert defect is None
    assert snap["solver.solves"][0] > 0
