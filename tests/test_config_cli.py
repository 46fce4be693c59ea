import io
import math
import random
import warnings
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import hhfrac.cli as cli
from hhfrac.cli import SOLUTION_HEADER, _solution_csv, main
from hhfrac.config import ConfigError, load_config, parse_config
from hhfrac.grids import LogGrid
from hhfrac.problems import SolveReport, paper_example_problem
from hhfrac.solver import picard_solve
from hhfrac.stability import PerturbationSpec, run_experiments, verdicts_to_csv

SECTION5_CFG = """\
alpha = 1/3
beta = 2/3
b = e
c1 = 2
c2 = 1
phi = 1
rhs = paper-example
stability.epsilon = 1e-2,1e-3
"""

MANUFACTURED_CFG = """\
alpha = 1/3
beta = 2/3
b = e
c1 = 2
c2 = 1
phi = 0.8069090857251313
rhs = manufactured-log-power
rhs.exponent = 2
rhs.coeff = 1
"""


class TestConfigParsing:
    def test_section5_roundtrip(self):
        config = parse_config(SECTION5_CFG, source="s5.cfg")
        assert config.alpha == pytest.approx(1.0 / 3.0)
        assert config.beta_type == pytest.approx(2.0 / 3.0)
        assert config.b == math.e
        assert config.epsilons == (1e-2, 1e-3)
        problem = config.problem()
        assert problem.rhs.kind == "paper-example"
        assert problem.rhs.K_f == pytest.approx(1.0 / 3.0)

    def test_comments_and_blank_lines(self):
        text = "# heading\n\nalpha = 0.5   # inline\nbeta = 0\nb = 2\nc1 = 1\nc2 = 1\nrhs = paper-example\n"
        config = parse_config(text)
        assert config.alpha == 0.5

    def test_documented_keys_are_the_parsed_keys(self):
        # the module docstring is the full key list that the README points to
        import re

        from hhfrac import config as config_mod

        doc = config_mod.__doc__
        for key in config_mod._KEYS:
            assert re.search(rf"(?<![\w.]){re.escape(key)}(?![\w.])", doc), key
        for name in re.findall(r"\b(?:rhs|stability)\.\w+", doc):
            assert name in config_mod._KEYS, name

    def test_unknown_key_cites_line(self):
        text = "alpha = 0.5\nbeta = 0\nwhatever = 3\n"
        with pytest.raises(ConfigError, match=r"cfg:3: unknown key 'whatever'"):
            parse_config(text, source="cfg")

    def test_malformed_line_cites_line(self):
        with pytest.raises(ConfigError, match=r"cfg:2: expected"):
            parse_config("alpha = 0.5\nbeta\n", source="cfg")

    def test_bad_number_cites_key(self):
        text = SECTION5_CFG.replace("alpha = 1/3", "alpha = banana")
        with pytest.raises(ConfigError, match=r"cfg:1: alpha: not a number"):
            parse_config(text, source="cfg")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("alpha = 0.5\nalpha = 0.6\n", source="cfg")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required key 'rhs'"):
            parse_config("alpha = 0.5\nbeta = 0\nb = 2\nc1 = 1\nc2 = 1\n")

    def test_invariants_rechecked_with_lines(self):
        text = "alpha = 1/3\nbeta = 2/3\nb = e\nc1 = 1\nc2 = -1\nrhs = paper-example\n"
        with pytest.raises(ConfigError, match=r"cfg:4: c1: c1 \+ c2"):
            parse_config(text, source="cfg")

    def test_fraction_and_e_literals(self):
        config = parse_config(
            "alpha = 2/6\nbeta = 0.5\nb = e\nc1 = 1\nc2 = 1\nrhs = paper-example\n"
        )
        assert config.alpha == pytest.approx(1.0 / 3.0)

    def test_epsilon_positivity_checked(self):
        text = SECTION5_CFG.replace("1e-2,1e-3", "0")
        with pytest.raises(ConfigError, match="positive"):
            parse_config(text, source="cfg")

    def test_overrides_parse_like_file_entries(self):
        flagged = parse_config(SECTION5_CFG, overrides={"panels": "64", "tol": "1e-12"})
        written = parse_config(SECTION5_CFG + "panels = 64\ntol = 1e-12\n")
        assert flagged == written
        assert (flagged.panels, flagged.tol) == (64, 1e-12)

    def test_parsed_config_is_frozen(self):
        config = parse_config(SECTION5_CFG)
        with pytest.raises(FrozenInstanceError):
            config.panels = 4


class TestCli:
    def test_example_exit_and_values(self, capsys):
        assert main(["example", "--panels", "256"]) == 0
        out = capsys.readouterr().out
        record = {}
        for line in out.splitlines():
            if " = " in line:
                key, _, value = line.partition(" = ")
                record[key.strip()] = value.strip()
        assert record["K_f"] == repr(1.0 / 3.0)
        assert record["L_f"] == repr(1.0 / 3.0)
        assert 0.81 <= float(record["a_const"]) <= 0.83
        assert 0.87 <= float(record["omega_paper_variant"]) <= 0.89
        assert float(record["omega"]) < 1.0
        assert record["existence_ok"] == "true"
        assert record["uniqueness_ok"] == "true"
        assert "mode,epsilon,deviation,bound,margin,pass" in out
        assert ",true" in out.splitlines()[-1]

    def test_certify_config(self, tmp_path, capsys):
        cfg = tmp_path / "s5.cfg"
        cfg.write_text(SECTION5_CFG)
        assert main(["certify", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "uniqueness_ok = true" in out

    def test_solve_manufactured_emits_small_residuals(self, tmp_path, capsys):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(MANUFACTURED_CFG)
        out_csv = tmp_path / "solution.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(out_csv)]) == 0
        out = capsys.readouterr().out
        record = dict(
            line.partition(" = ")[::2] for line in out.splitlines() if " = " in line
        )
        assert float(record["residual_norm"]) <= 1e-3
        assert float(record["fide_residual"]) <= 1e-3
        assert float(record["bc_defect"]) <= 1e-6
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "t,log_t,weighted_value,raw_value,F_u"
        assert len(lines) == 512 + 2
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(math.e)
        # raw solution at b is (log b)^2 = 1
        assert float(last[3]) == pytest.approx(1.0, abs=1e-3)

    def test_stability_csv_and_exit(self, tmp_path, capsys):
        cfg = tmp_path / "s5.cfg"
        cfg.write_text(SECTION5_CFG)
        assert main(["stability", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "mode,epsilon,deviation,bound,margin,pass"
        assert len(lines) == 3
        assert all(line.endswith(",true") for line in lines[1:])

    def test_identical_config_identical_output(self, tmp_path):
        cfg = tmp_path / "s5.cfg"
        cfg.write_text(SECTION5_CFG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["stability", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["stability", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        sol1, sol2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(sol1)]) == 0
        assert main(["solve", "--config", str(cfg), "--out", str(sol2)]) == 0
        assert sol1.read_bytes() == sol2.read_bytes()

    def test_verify_fast_passes(self, capsys):
        assert main(["verify", "--level", "fast"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out.splitlines()[-1]

    def test_verify_full_gates_solver_orders(self, capsys):
        assert main(["verify", "--level", "full"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "71/71 checks passed"
        for name in ("solver-order-fide-residual", "solver-order-bc-defect"):
            [line] = [line for line in lines if name in line]
            assert line.startswith("ok ")

    def test_verify_full_fails_a_stalled_solver_order(self, monkeypatch, capsys):
        monkeypatch.setattr("hhfrac.verify.residual_fide", lambda u, problem: 1e-6)
        assert main(["verify", "--level", "full"]) == 1
        lines = capsys.readouterr().out.splitlines()
        [line] = [line for line in lines if "solver-order-fide-residual" in line]
        assert line.startswith("FAIL")
        assert line.endswith("order=0.00")
        assert lines[-1] == "70/71 checks passed"

    def test_uhr_stability_config(self, tmp_path, capsys):
        cfg = tmp_path / "uhr.cfg"
        cfg.write_text(
            SECTION5_CFG.replace("stability.epsilon = 1e-2,1e-3", "\n".join([
                "stability.epsilon = 1e-3",
                "stability.mode = uhr",
                "stability.phi = critical-log-power",
                "stability.lambda_phi = 1.2568054242093647",
            ]))
        )
        with pytest.warns(UserWarning, match="not increasing"):
            code = main(["stability", "--config", str(cfg)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("UHR,0.001,")

    @pytest.mark.filterwarnings("ignore:phi profile is not increasing")
    def test_uhr_without_lambda_phi_certifies_the_constant_stability_uses(
        self, tmp_path, capsys
    ):
        # sweep_uhr.cfg without its lambda_phi line: certify prints the
        # constant that stability's bounds are built from
        text = (Path(__file__).resolve().parent.parent / "configs" / "sweep_uhr.cfg").read_text()
        cfg = tmp_path / "uhr.cfg"
        cfg.write_text(
            "".join(
                line for line in text.splitlines(keepends=True)
                if not line.startswith("stability.lambda_phi")
            )
            + "panels = 64\n"
        )
        assert main(["certify", "--config", str(cfg)]) == 0
        record = dict(line.partition(" = ")[::2] for line in capsys.readouterr().out.splitlines())
        assert "lambda_phi" in record and "c_f_phi" in record
        assert main(["stability", "--config", str(cfg)]) == 0
        rows = capsys.readouterr().out
        config = load_config(str(cfg))
        grid = config.grid()
        phi = config.phi_profile(grid)
        perturbations = [
            PerturbationSpec("log-power", eps, phi_profile=phi) for eps in config.epsilons
        ]
        verdicts = run_experiments(
            config.problem(grid), perturbations, grid, float(record["lambda_phi"]),
            tol=config.tol, cap=config.cap,
        )
        assert rows == verdicts_to_csv(verdicts)

    def test_phi_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "s5.cfg"
        cfg.write_text(SECTION5_CFG)
        main(["certify", "--config", str(cfg)])
        base = capsys.readouterr().out
        main(["certify", "--config", str(cfg), "--phi", "2.5"])
        overridden = capsys.readouterr().out
        # lambda_cap carries phi; the uniqueness constant does not
        get = lambda text, key: float(
            [l for l in text.splitlines() if l.startswith(key)][0].split(" = ")[1]
        )
        assert get(overridden, "lambda_cap") > get(base, "lambda_cap")
        assert get(overridden, "a_const") == get(base, "a_const")

    def test_parse_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha = nope\n")
        assert main(["certify", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "certify", "stability"])
    def test_infinite_b_is_a_config_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text(SECTION5_CFG.replace("b = e", "b = inf"))
        assert main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {cfg}:3: b: b must be finite and exceed 1"]

    @pytest.mark.parametrize("key, value", [("inner_cap", "5"), ("inner_tol", "1e-12")])
    def test_removed_inner_solve_keys_are_unknown(self, tmp_path, capsys, key, value):
        # the implicit right-hand side is solved in closed form; no inner
        # iteration is left to tune
        cfg = tmp_path / "inner.cfg"
        cfg.write_text(SECTION5_CFG + f"{key} = {value}\n")
        assert main(["solve", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {cfg}:9: unknown key {key!r}"]

    def test_removed_perturbation_key_is_unknown(self, tmp_path, capsys):
        # the stability mode and stability.table decide the perturbation
        cfg = tmp_path / "perturbation.cfg"
        cfg.write_text(SECTION5_CFG + "stability.perturbation = constant\n")
        assert main(["stability", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {cfg}:9: unknown key 'stability.perturbation'"
        ]

    # a lambda_phi that fails its nodewise check does not hide the overflow:
    # certify and stability build the same certificate
    REJECTED_LAMBDA_PHI = (
        "stability.mode = uhr\nstability.phi = one\nstability.lambda_phi = 0.01\n"
    )

    @pytest.mark.parametrize("command, rassias", [
        pytest.param("certify", "", id="certify"),
        pytest.param("stability", "", id="stability"),
        pytest.param("certify", REJECTED_LAMBDA_PHI, id="certify-rejected-lambda-phi"),
        pytest.param("stability", REJECTED_LAMBDA_PHI, id="stability-rejected-lambda-phi"),
    ])
    def test_gronwall_overflow_is_one_error_line(self, tmp_path, capsys, command, rassias):
        # E_alpha(K_f/(1-L_f) (log b)^alpha) overflows for K_f/(1-L_f) = 6, b = 400
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(
            "alpha = 1/3\nbeta = 0\nb = 400\nc1 = 1\nc2 = 1\nphi = 1\n"
            "rhs = affine-in-uv\nrhs.a = 3\nrhs.c = 0.5\n" + rassias
        )
        assert main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: Mittag-Leffler partial sum overflows")

    def test_stability_solve_cap_is_one_failure_line(self, tmp_path, capsys):
        cfg = tmp_path / "cap.cfg"
        cfg.write_text(SECTION5_CFG.replace("stability.epsilon = 1e-2,1e-3", "cap = 2"))
        assert main(["stability", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(
            "solve failed: successive approximation did not converge within 2 sweeps"
        )

    def test_overflowing_solve_is_one_failure_line(self, tmp_path, capsys):
        # the iterates overflow in the second sweep; numpy's overflow
        # warnings on the way stay silent
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(
            SECTION5_CFG.replace("paper-example", "affine-in-uv")
            + "panels = 8\nrhs.a = 1e300\n"
        )
        with pytest.warns(UserWarning) as record:
            assert main(["solve", "--config", str(cfg)]) == 1
        [warning] = record
        assert str(warning.message) == (
            "contraction constant 1.63e+300 >= 1; successive approximation may diverge"
        )
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "solve failed: successive approximation diverged: sweep 2 left a non-finite iterate"
        ]

    def test_stability_rejected_lambda_phi_is_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "uhr.cfg"
        cfg.write_text(
            SECTION5_CFG
            + "stability.mode = uhr\nstability.phi = critical-log-power\n"
            + "stability.lambda_phi = 0.5\n"
        )
        with pytest.warns(UserWarning, match="not increasing"):
            code = main(["stability", "--config", str(cfg)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("certificate rejected: lambda_phi=0.5 fails at")

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            pytest.param(
                ["solve"], SECTION5_CFG + "cap = 0\n",
                "{cfg}:9: cap: cap must be at least 1", id="file-cap-0",
            ),
            pytest.param(
                ["solve"], SECTION5_CFG + "tol = -1\n",
                "{cfg}:9: tol: tol must be finite and positive", id="file-tol-negative",
            ),
            pytest.param(
                ["solve"], SECTION5_CFG + "panels = 4\n",
                "{cfg}:9: panels: need at least 5 panels", id="file-panels-4",
            ),
            pytest.param(
                ["solve", "--panels", "4"], SECTION5_CFG,
                "--panels: need at least 5 panels", id="flag-panels-4",
            ),
            pytest.param(
                ["stability", "--tol", "nan"], SECTION5_CFG,
                "--tol: tol must be finite and positive", id="flag-tol-nan",
            ),
            pytest.param(
                ["certify", "--panels", "1/2"], SECTION5_CFG,
                "--panels: expected an integer, got 0.5", id="flag-panels-fraction",
            ),
            pytest.param(
                ["certify", "--phi", "nan"], SECTION5_CFG,
                "--phi: phi must be finite", id="flag-phi-nan",
            ),
            pytest.param(
                ["stability"], SECTION5_CFG.replace("1e-2,1e-3", "1e-2,inf"),
                "{cfg}:8: stability.epsilon: need one or more finite positive epsilons",
                id="file-epsilon-inf",
            ),
            pytest.param(
                ["example", "--panels", "4"], None,
                "--panels: need at least 5 panels", id="example-panels-4",
            ),
            pytest.param(
                ["solve"], SECTION5_CFG + "rhs.g0 = 1\n",
                "{cfg}:9: rhs.g0: rhs kind 'paper-example' takes no parameter 'g0'",
                id="rhs-param-of-another-kind",
            ),
            pytest.param(
                ["solve"],
                SECTION5_CFG.replace("paper-example", "custom-table")
                + "panels = 8\nrhs.table = 0,0,0\n",
                "{cfg}:10: rhs.table: 3 values; 8 panels need 9",
                id="rhs-table-length",
            ),
            pytest.param(
                ["stability"],
                SECTION5_CFG + "panels = 8\nstability.table = 0,0,0\n",
                "{cfg}:10: stability.table: 3 values; 8 panels need 9",
                id="stability-table-length",
            ),
            pytest.param(
                ["solve"],
                SECTION5_CFG.replace("paper-example", "affine-in-uv") + "rhs.c = 1\n",
                "{cfg}:7: rhs: affine rhs needs |c| < 1, got 1.0",
                id="affine-c-1",
            ),
            pytest.param(
                ["solve"], MANUFACTURED_CFG.replace("exponent = 2", "exponent = 0.5"),
                "{cfg}:7: rhs: manufactured exponent must be >= 1, got 0.5",
                id="manufactured-exponent-half",
            ),
            pytest.param(
                ["solve"], MANUFACTURED_CFG.replace("exponent = 2", "exponent = 400"),
                "{cfg}:7: rhs: manufactured rhs with exponent 400.0 and coeff 1.0 "
                "overflows double precision",
                id="manufactured-exponent-400",
            ),
            pytest.param(
                ["solve"], MANUFACTURED_CFG.replace("exponent = 2", "exponent = nan"),
                "{cfg}:7: rhs: rhs parameter exponent must be finite, got nan",
                id="manufactured-exponent-nan",
            ),
            pytest.param(
                ["certify"], MANUFACTURED_CFG.replace("coeff = 1", "coeff = inf"),
                "{cfg}:7: rhs: rhs parameter coeff must be finite, got inf",
                id="manufactured-coeff-inf",
            ),
            pytest.param(
                ["solve"],
                SECTION5_CFG.replace("paper-example", "affine-in-uv") + "rhs.g0 = inf\n",
                "{cfg}:7: rhs: rhs parameter g0 must be finite, got inf",
                id="affine-g0-inf",
            ),
            pytest.param(
                ["stability"],
                SECTION5_CFG.replace("paper-example", "affine-in-uv") + "rhs.a = nan\n",
                "{cfg}:7: rhs: rhs parameter a must be finite, got nan",
                id="affine-a-nan",
            ),
            pytest.param(
                ["solve"],
                SECTION5_CFG.replace("paper-example", "affine-in-uv")
                + "rhs.g0 = 1e308\nrhs.g1 = 1e308\n",
                "{cfg}:7: rhs: rhs constants K_f, delta_star and sigma_star must be finite",
                id="affine-delta-overflow",
            ),
            pytest.param(
                ["solve"],
                SECTION5_CFG.replace("paper-example", "custom-table")
                + "panels = 8\nrhs.table = 0,1,nan,0,0,0,0,0,0\n",
                "{cfg}:10: rhs.table: table values must be finite",
                id="rhs-table-nan",
            ),
            pytest.param(
                ["stability"],
                SECTION5_CFG + "panels = 8\nstability.table = 0,1,nan,0,0,0,0,0,0\n",
                "{cfg}:10: stability.table: table values must be finite",
                id="stability-table-nan",
            ),
            pytest.param(
                ["certify"],
                SECTION5_CFG + "stability.mode = uhr\npanels = 8\n"
                + "stability.table = 0,0,0,0,0,0,0,0,0\n",
                "{cfg}:11: stability.table: only stability.mode = uh reads stability.table",
                id="uhr-supplied-table",
            ),
            # under uh, certify would print a c_f_phi that stability never reads
            pytest.param(
                ["certify"], SECTION5_CFG + "stability.lambda_phi = 1.2\n",
                "{cfg}:9: stability.lambda_phi: only stability.mode = uhr reads "
                "stability.lambda_phi",
                id="uh-lambda-phi",
            ),
            # a uh run reads no phi profile
            pytest.param(
                ["stability"],
                SECTION5_CFG + "stability.mode = uh\nstability.phi = critical-log-power\n",
                "{cfg}:10: stability.phi: only stability.mode = uhr reads stability.phi",
                id="uh-phi",
            ),
            # the mode is checked before the value
            pytest.param(
                ["stability"], SECTION5_CFG + "stability.lambda_phi = -1\n",
                "{cfg}:9: stability.lambda_phi: only stability.mode = uhr reads "
                "stability.lambda_phi",
                id="uh-lambda-phi-negative",
            ),
            *(
                pytest.param(
                    [command], SECTION5_CFG.replace("alpha = 1/3", "alpha = 5e-324"),
                    "{cfg}:1: alpha: Gamma(alpha) overflows double precision at "
                    "alpha=5e-324",
                    id=f"alpha-tiny-{command}",
                )
                for command in ("certify", "solve", "stability")
            ),
            *(
                pytest.param(
                    ["solve"], SECTION5_CFG.replace("beta = 2/3", f"beta = {beta}"),
                    f"{{cfg}}:2: beta: order requires 0 <= beta_type <= 1, got {shown}",
                    id=f"beta-{beta}",
                )
                for beta, shown in (("2", "2.0"), ("nan", "nan"))
            ),
            *(
                pytest.param(
                    [command],
                    SECTION5_CFG.replace("paper-example", "affine-in-uv")
                    + "rhs.a = 8.915\npanels = 8\n",
                    "Ulam constant C_f overflows double precision",
                    id=f"c-f-overflow-{command}",
                )
                for command in ("certify", "stability")
            ),
            *(
                pytest.param(
                    [command],
                    SECTION5_CFG + "stability.mode = uhr\nstability.lambda_phi = 1e300\n"
                    + "panels = 8\n",
                    "Ulam constant C_f_phi overflows double precision",
                    id=f"c-f-phi-overflow-{command}",
                )
                for command in ("certify", "stability")
            ),
            *(
                pytest.param(
                    ["stability"],
                    SECTION5_CFG + f"stability.mode = uhr\nstability.lambda_phi = {lam}\n",
                    "{cfg}:10: stability.lambda_phi: lambda_phi must be finite and positive",
                    id=f"lambda-phi-{lam}",
                )
                for lam in ("-1", "0", "inf")
            ),
        ],
    )
    def test_bad_input_is_one_cited_error_line(self, tmp_path, capsys, argv, text, message):
        cfg = tmp_path / "bad.cfg"
        if text is not None:
            cfg.write_text(text)
            argv = [argv[0], "--config", str(cfg), *argv[1:]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: " + message.format(cfg=cfg)]

    def test_flags_give_the_bytes_of_file_keys(self, tmp_path, capsys):
        plain, keyed = tmp_path / "plain.cfg", tmp_path / "keyed.cfg"
        plain.write_text(SECTION5_CFG)
        keyed.write_text(SECTION5_CFG + "panels = 64\ntol = 1e-12\n")
        flagged_csv, keyed_csv = tmp_path / "flagged.csv", tmp_path / "keyed.csv"
        argv = ["solve", "--config", str(plain), "--panels", "64", "--tol", "1e-12"]
        assert main(argv + ["--out", str(flagged_csv)]) == 0
        flagged_out = capsys.readouterr().out
        assert main(["solve", "--config", str(keyed), "--out", str(keyed_csv)]) == 0
        assert capsys.readouterr().out == flagged_out
        assert flagged_csv.read_bytes() == keyed_csv.read_bytes()

    def test_missing_config_file(self, capsys):
        assert main(["solve", "--config", "/nonexistent.cfg"]) == 2

    @staticmethod
    def assert_one_error_line(capsys, expected=None):
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")
        if expected is not None:
            assert line == "error: " + expected

    @pytest.mark.parametrize("target", ["directory", "under-a-file"])
    @pytest.mark.parametrize("command", ["solve", "certify", "stability", "example"])
    def test_unwritable_out_is_one_error_line(self, tmp_path, capsys, command, target):
        cfg = tmp_path / "s5.cfg"
        cfg.write_text(SECTION5_CFG.replace("stability.epsilon = 1e-2,1e-3", "panels = 16"))
        (tmp_path / "plain").write_text("")
        out = {"directory": tmp_path, "under-a-file": tmp_path / "plain" / "out.csv"}[target]
        # example has a built-in configuration
        args = ["--panels", "16"] if command == "example" else ["--config", str(cfg)]
        assert main([command, *args, "--out", str(out)]) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("command", ["solve", "certify", "stability"])
    def test_config_directory_is_one_error_line(self, tmp_path, capsys, command):
        assert main([command, "--config", str(tmp_path)]) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("command", ["solve", "certify", "stability"])
    def test_non_utf8_config_is_one_error_line(self, tmp_path, capsys, command):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(SECTION5_CFG.encode() + "# r\xe9sum\xe9\n".encode("latin-1"))
        assert main([command, "--config", str(cfg)]) == 2
        offset = len(SECTION5_CFG.encode()) + 3
        self.assert_one_error_line(
            capsys, f"{cfg}: not UTF-8 text: invalid continuation byte at byte {offset}"
        )

    def test_shipped_configs_parse(self):
        root = Path(__file__).resolve().parent.parent / "configs"
        paths = sorted(root.glob("*.cfg"))
        assert paths, "shipped example configurations missing"
        for path in paths:
            parse_config(path.read_text(), source=str(path))

    def test_supplied_table_perturbation_config(self, tmp_path, capsys):
        # a supplied perturbation given as weighted values on the grid
        import math as _math

        import numpy as np

        panels = 64
        gamma = 1.0 / 3.0 + 2.0 / 3.0 * (2.0 / 3.0)
        x = np.arange(panels + 1) * _math.log(_math.e) / panels
        eps = 1e-3
        w = np.zeros(panels + 1)
        w[1:] = 0.5 * eps * x[1:] ** (1.0 - gamma)
        cfg = tmp_path / "table.cfg"
        cfg.write_text(
            SECTION5_CFG.replace("stability.epsilon = 1e-2,1e-3", "\n".join([
                f"stability.epsilon = {eps}",
                "panels = 64",
                "stability.table = " + ",".join(repr(float(v)) for v in w),
            ]))
        )
        assert main(["stability", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].endswith(",true")

    def test_stability_table_is_the_perturbation(self, tmp_path, capsys):
        # a uh config that gives stability.table runs that table, not the
        # constant epsilon: its CSV is the library's supplied-table run
        from hhfrac.grids import GridFunction, log_power

        config = parse_config(SECTION5_CFG + "panels = 16\n")
        grid = config.grid()
        # h = 5e-4 log t, admissible for both epsilons
        w = log_power(grid, config.order.gamma, 1.0, 5e-4).weighted_values
        cfg = tmp_path / "table.cfg"
        cfg.write_text(
            SECTION5_CFG + "panels = 16\n"
            + "stability.table = " + ",".join(repr(float(v)) for v in w) + "\n"
        )
        assert main(["stability", "--config", str(cfg)]) == 0
        table = GridFunction(grid, config.order.gamma, w)
        perturbations = [
            PerturbationSpec("supplied-table", eps, table=table) for eps in config.epsilons
        ]
        problem = config.problem(grid)
        expected = verdicts_to_csv(run_experiments(problem, perturbations, grid))
        constant = verdicts_to_csv(run_experiments(
            problem, [PerturbationSpec("constant", eps) for eps in config.epsilons], grid
        ))
        out = capsys.readouterr().out
        assert out == expected
        assert out != constant

    def test_custom_table_rhs_config(self, tmp_path, capsys):
        # tabulated right-hand side equal to the manufactured one
        import math as _math

        import numpy as np

        from hhfrac.grids import Order
        from hhfrac.problems import manufactured_rhs

        panels = 128
        order = Order(1.0 / 3.0, 2.0 / 3.0)
        rhs = manufactured_rhs(order, _math.e, exponent=2.0)
        x = np.arange(panels + 1) * 1.0 / panels
        w = np.zeros(panels + 1)
        w[1:] = rhs.params["f_coeff"] * x[1:] ** (
            rhs.params["f_exponent"] + 1.0 - order.gamma
        )
        cfg = tmp_path / "table_rhs.cfg"
        cfg.write_text(
            MANUFACTURED_CFG.replace(
                "rhs = manufactured-log-power\nrhs.exponent = 2\nrhs.coeff = 1",
                "rhs = custom-table\npanels = 128\nrhs.table = "
                + ",".join(repr(float(v)) for v in w),
            )
        )
        assert main(["solve", "--config", str(cfg)]) == 0
        record = dict(
            line.partition(" = ")[::2]
            for line in capsys.readouterr().out.splitlines()
            if " = " in line
        )
        assert float(record["residual_norm"]) <= 1e-6


EXTREME_VALUES = (
    "5e-324", "-5e-324", "1e-300", "1e154", "1e300",
    "1.7976931348623157e308", "-1.7976931348623157e308",
)
# every numeric key but panels and cap, which size the work, with a base
# configuration whose rhs kind takes it
EXTREME_KEYS = {
    **dict.fromkeys(("alpha", "beta", "b", "c1", "c2", "phi", "tol",
                     "stability.epsilon"), SECTION5_CFG),
    **dict.fromkeys(("rhs.exponent", "rhs.coeff", "rhs.critical_coeff"), MANUFACTURED_CFG),
    **dict.fromkeys(("rhs.g0", "rhs.g1", "rhs.a", "rhs.c"),
                    SECTION5_CFG.replace("paper-example", "affine-in-uv")),
    "stability.lambda_phi": SECTION5_CFG + "stability.mode = uhr\n",
}


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("key", EXTREME_KEYS)
def test_extreme_values_never_escape_main(tmp_path, capsys, key):
    # an exception escaping main would be a traceback on the command line
    cfg = tmp_path / "extreme.cfg"
    base = [line for line in EXTREME_KEYS[key].splitlines() if not line.startswith(key + " ")]
    for value in EXTREME_VALUES:
        cfg.write_text("\n".join(base + ["panels = 8", f"{key} = {value}", ""]))
        for command in ("certify", "solve", "stability"):
            assert main([command, "--config", str(cfg)]) in (0, 1, 2)
            capsys.readouterr()


def run_quietly(argv):
    """(exit code, RuntimeWarnings) of ``main(argv)``; other warnings are dropped."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        code = main(argv)
    return code, [str(w.message) for w in record if issubclass(w.category, RuntimeWarning)]


def test_overflowing_prefactor_is_silent(tmp_path, capsys):
    # 1/(t (2 + t)) overflows its denominator at t = 1e300; 1/inf = 0 is right
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(SECTION5_CFG.replace("b = e", "b = 1e300").replace("c1 = 2", "c1 = 1e300")
                   + "panels = 16\n")
    for command, code in (("solve", 0), ("certify", 1), ("stability", 2)):
        assert run_quietly([command, "--config", str(cfg)]) == (code, [])
        capsys.readouterr()


# the reference data with c2 (I^(1-gamma) u)(b) overflowing at 37 panels
HUGE_DEFECT_CFG = SECTION5_CFG.replace("c2 = 1", "c2 = 1e300").replace(
    "paper-example", "affine-in-uv\nrhs.g0 = -1e300")
NOT_FINITE = "solve failed: the solve's report is not finite: "


def test_overflowing_boundary_defect_is_silent(tmp_path, capsys):
    # the defect reads inf without a numpy warning, and fails the solve
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(HUGE_DEFECT_CFG + "panels = 37\n")
    assert run_quietly(["solve", "--config", str(cfg)]) == (1, [])
    assert capsys.readouterr().err == NOT_FINITE + "bc_defect = inf\n"


def test_non_finite_report_fails_the_solve(tmp_path, capsys):
    # one solve failed: line, exit 1, an empty stdout and no CSV
    cfg, out = tmp_path / "huge.cfg", tmp_path / "u.csv"
    cfg.write_text(HUGE_DEFECT_CFG)
    assert main(["solve", "--config", str(cfg), "--panels", "37", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", NOT_FINITE + "bc_defect = inf\n")
    assert not out.exists()


def test_non_finite_report_fails_stability(tmp_path, capsys):
    # the unperturbed solve that solve rejects gives no verdicts either
    cfg, out = tmp_path / "huge.cfg", tmp_path / "verdicts.csv"
    cfg.write_text(HUGE_DEFECT_CFG)
    assert main(["stability", "--config", str(cfg), "--panels", "37", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", NOT_FINITE + "bc_defect = inf\n")
    assert not out.exists()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["residual_norm", "bc_defect", "fide_residual"])
def test_example_fails_on_a_non_finite_report(monkeypatch, capsys, name, value):
    def solve(*args, **kwargs):
        u, report = picard_solve(*args, **kwargs)
        fields = {"residual_norm": report.residual_norm, "bc_defect": report.bc_defect}
        fields[name] = value
        finished = (fields["residual_norm"], fields["bc_defect"], report.F_u)
        return u, SolveReport(report.iterations, report.final_update_norm, lambda: finished)

    monkeypatch.setattr(cli, "picard_solve", solve)
    if name == "fide_residual":
        monkeypatch.setattr(cli, "residual_fide", lambda u, problem: value)
    assert main(["example", "--panels", "64"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"{NOT_FINITE}{name} = {value!r}\n")


FUZZ_VALUES = (
    "0", "-0", "1", "-1", "0.5", "-0.5", "1/3", "2/3", "e", "2", "0.01",
    "1e-300", "-1e-300", "1e300", "-1e300", "nan", "inf", "-inf",
)
FUZZ_KEYS = (
    "alpha", "beta", "b", "c1", "c2", "phi", "tol", "cap",
    "rhs.exponent", "rhs.coeff", "rhs.critical_coeff",
    "rhs.g0", "rhs.g1", "rhs.a", "rhs.c", "rhs.table",
    "stability.mode", "stability.epsilon",
    "stability.phi", "stability.lambda_phi", "stability.table",
)
FUZZ_CHOICES = {
    "rhs": ("paper-example", "manufactured-log-power", "affine-in-uv", "custom-table"),
    "stability.mode": ("uh", "uhr"),
    "stability.phi": ("one", "critical-log-power"),
}


def fuzz_config(rng):
    """A configuration from the grammar's keys with extreme and ordinary values."""
    panels = rng.randint(8, 64)
    entries = {"alpha": "1/3", "beta": "2/3", "b": "e", "c1": "2", "c2": "1",
               "phi": "1", "rhs": rng.choice(FUZZ_CHOICES["rhs"]), "panels": str(panels)}
    for key in rng.sample(FUZZ_KEYS, rng.randint(1, 6)):
        if key in FUZZ_CHOICES:
            entries[key] = rng.choice(FUZZ_CHOICES[key])
        elif key.endswith("table"):
            count = panels + 1 if rng.random() < 0.8 else panels
            entries[key] = ",".join(rng.choice(FUZZ_VALUES[:14]) for _ in range(count))
        elif key == "cap":
            entries[key] = rng.choice(("1", "2", "200"))
        else:
            entries[key] = rng.choice(FUZZ_VALUES)
    return "".join(f"{key} = {value}\n" for key, value in entries.items())


def test_seeded_fuzz_ends_in_an_exit_code(tmp_path, capsys):
    # no traceback (an exception escaping main), no numpy warning, and one
    # of the documented exit codes, over 200 seeded configurations and all
    # three commands
    rng = random.Random(20)
    cfg = tmp_path / "fuzz.cfg"
    codes = []
    for _ in range(200):
        text = fuzz_config(rng)
        cfg.write_text(text)
        for command in ("solve", "certify", "stability"):
            code, numpy_warnings = run_quietly([command, "--config", str(cfg)])
            capsys.readouterr()
            assert code in (0, 1, 2) and numpy_warnings == [], f"{command}:\n{text}"
            codes.append(code)
    assert {0, 1, 2} <= set(codes)


def loop_solution_csv(u, f_grid):
    """The solution CSV written node by node with an indexed loop."""
    grid = u.grid
    x = grid.log_nodes
    t = grid.nodes
    lines = [SOLUTION_HEADER]
    lines.append(f"{float(t[0])!r},{float(x[0])!r},{u.weighted_limit!r},,")
    u_raw = u.raw_tail()
    f_raw = f_grid.raw_tail()
    for i in range(1, grid.n_nodes):
        lines.append(
            f"{float(t[i])!r},{float(x[i])!r},{float(u.weighted_values[i])!r},"
            f"{float(u_raw[i - 1])!r},{float(f_raw[i - 1])!r}"
        )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("panels", [5, 64, 513])
def test_solution_csv_matches_indexed_loop(panels, monkeypatch):
    # 64-row blocks: 5 panels fill part of one, 64 exactly one, 513 spill into a ninth
    monkeypatch.setattr("hhfrac.cli._CSV_BLOCK", 64)
    u, report = picard_solve(paper_example_problem(), LogGrid(math.e, panels))
    buffer = io.StringIO()
    _solution_csv(u, report.F_u, buffer)
    text = buffer.getvalue()
    assert text == loop_solution_csv(u, report.F_u)
    assert len(text.splitlines()) == panels + 2


def test_one_parser_per_process_carries_nothing_between_calls():
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    first = parser.parse_args(["solve", "--config", "a.cfg", "--panels", "8", "--out", "u.csv"])
    second = parser.parse_args(["solve", "--config", "b.cfg"])
    assert (first.panels, first.out) == ("8", "u.csv")
    assert (second.config, second.panels, second.out) == ("b.cfg", None, None)
    assert vars(parser.parse_args(["example"])) == {
        "command": "example", "phi": None, "panels": None, "out": None,
    }
