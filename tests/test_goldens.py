"""Golden-output regression: CLI outputs against files captured earlier.

Each case runs ``python -m hhfrac.cli`` in a subprocess and compares its
exit status, stdout and stderr with ``tests/goldens/<case>.txt``.  The
``*-out-*`` cases also pass ``--out`` and compare the solution CSV written
there; they run at 64 panels to keep the files small.
Non-numeric text must match exactly; every number must satisfy
``|new - old| <= 1e-8 |old| + 1e-15``, which admits last-digit movement
from a change of summation order and nothing larger.

Warning lines on stderr are normalized: the source path and line number
are replaced by the module name and the echoed source line is dropped, so
the goldens depend on neither the checkout location nor the layout of the
module that warns.

To rewrite the goldens from the current code (only when an output change
is intended and recorded)::

    PYTHONPATH=src python tests/test_goldens.py --update
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))

REL_TOL = 1e-8
ABS_TOL = 1e-15

CASES = {"example": ["example"]}
for _cfg in CONFIGS:
    for _cmd in ("solve", "certify", "stability"):
        CASES[f"{_cmd}-{_cfg.stem}"] = [_cmd, "--config", f"configs/{_cfg.name}"]
# cases whose --out file is part of the golden
OUT_CASES = {"example-out": ["example", "--panels", "64"]}
for _cfg in CONFIGS:
    OUT_CASES[f"solve-out-{_cfg.stem}"] = [
        "solve", "--config", f"configs/{_cfg.name}", "--panels", "64",
    ]
CASES.update(OUT_CASES)

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
# "<path>/hhfrac/<module>.py:<line>: <Category>: <message>" and the echoed
# source line that follows it
_WARNING = re.compile(r"^\S*?hhfrac[/\\](\w+\.py):\d+: (\w+: .*\n)(?:  .*\n)?", re.M)


def run_case(name) -> str:
    """Run one CLI invocation and render it in the golden-file format."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        args = CASES[name] + (["--out", str(out)] if name in OUT_CASES else [])
        proc = subprocess.run(
            [sys.executable, "-m", "hhfrac.cli", *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        )
        stderr = _WARNING.sub(r"hhfrac/\1: \2", proc.stderr)
        text = f"exit = {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{stderr}"
        if name in OUT_CASES:
            written = out.read_text(encoding="utf-8") if out.exists() else "(none)\n"
            text += f"--- out\n{written}"
    return text


def _split(text: str):
    """Non-numeric text with numbers replaced by a marker, and the numbers."""
    numbers = [float(m) for m in _NUMBER.findall(text)]
    return _NUMBER.sub("#", text), numbers


def test_every_config_has_goldens():
    assert CONFIGS, "no shipped configs found"
    for name in CASES:
        assert (GOLDEN_DIR / f"{name}.txt").is_file(), f"missing golden {name}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    actual = run_case(name)
    exp_text, exp_nums = _split(expected)
    act_text, act_nums = _split(actual)
    assert act_text == exp_text, f"{name}: non-numeric output changed:\n{actual}"
    for new, old in zip(act_nums, exp_nums):
        assert abs(new - old) <= REL_TOL * abs(old) + ABS_TOL, (
            f"{name}: {new!r} differs from golden {old!r}"
        )


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit(__doc__)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN_DIR / f"{case}.txt").write_text(run_case(case), encoding="utf-8")
        print(f"wrote {case}")
