import json
import math

import pytest

from threshold_lab.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    load_config,
    main,
)
from threshold_lab.errors import ConfigError

SQUARE_WELL_CFG = """\
experiment = two_critical
masses = 1 1 1
kind = square_well
range = 1.0
lambda_factor = 0.8
seed = 1
"""


class TestConfigParsing:
    def test_minimal_config(self):
        cfg = load_config(SQUARE_WELL_CFG)
        assert cfg.experiment == "two_critical"
        assert cfg.seed == 1
        assert cfg.system.potential((1, 2)).kind == "square_well"

    def test_missing_experiment(self):
        with pytest.raises(ConfigError) as err:
            load_config("masses = 1 1 1\nkind = gaussian\nrange = 1\n")
        assert err.value.key == "experiment"

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            load_config("experiment = explode\nkind = gaussian\nrange = 1\n")

    def test_unknown_key_named_in_error(self):
        text = SQUARE_WELL_CFG + "rnage = 2.0\n"
        with pytest.raises(ConfigError) as err:
            load_config(text)
        assert err.value.key == "rnage"

    def test_bad_number(self):
        with pytest.raises(ConfigError) as err:
            load_config("experiment = two_critical\nkind = gaussian\nrange = 1\nlambda = abc\n")
        assert err.value.key == "lambda"

    def test_seed_override_changes_hash(self):
        a = load_config(SQUARE_WELL_CFG)
        b = load_config(SQUARE_WELL_CFG, seed_override=99)
        assert b.seed == 99
        assert a.config_hash != b.config_hash

    def test_per_pair_potentials(self):
        text = (
            "experiment = two_critical\nmasses = 1 1 1\nlambda = 1.0\n"
            "kind = gaussian\nrange = 1.0\n"
            "potential.12.kind = exponential\npotential.12.range = 2.0\n"
        )
        cfg = load_config(text)
        assert cfg.system.potential((1, 2)).kind == "exponential"
        assert cfg.system.potential((1, 3)).kind == "gaussian"

    def test_tabulated_potential(self):
        text = (
            "experiment = two_critical\nmasses = 1 1 1\nlambda = 1.0\n"
            "kind = tabulated\nrange = 1.0\ntable = 0:1 1:0.5 2:0\n"
        )
        cfg = load_config(text)
        assert cfg.system.potential((1, 2)).kind == "tabulated"


class TestMain:
    def test_square_well_two_critical(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(SQUARE_WELL_CFG)
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "out" / "two_critical.json").read_text())
        for pair_info in payload["pairs"].values():
            assert pair_info["lambda_star"] == pytest.approx(
                math.pi ** 2 / 4.0, rel=1e-4
            )
            assert pair_info["oracle_rel_diff"] <= 1e-4
        assert payload["R7_satisfied"] is True
        assert payload["config_hash"]

    def test_supercritical_lambda_reported_not_failed(self, tmp_path):
        text = SQUARE_WELL_CFG.replace("lambda_factor = 0.8", "lambda_factor = 1.5")
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(text)
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--quiet"])
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "out" / "two_critical.json").read_text())
        assert payload["R7_satisfied"] is False
        assert payload["eps_R7"] < 0.0

    def test_missing_config_file(self, capsys):
        assert main(["--config", "/nonexistent/cfg"]) == EXIT_CONFIG

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(SQUARE_WELL_CFG + "blargh = 3\n")
        assert main(["--config", str(cfg_path)]) == EXIT_CONFIG
        assert "blargh" in capsys.readouterr().err

    def test_outputs_embed_hash_and_seed(self, tmp_path):
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(
            "experiment = ims_audit\nmasses = 1 1 1\nkind = gaussian\n"
            "range = 1.0\nlambda = 2.0\nsamples = 4096\nseed = 5\n"
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == EXIT_OK
        csv_text = (out / "ims_gradient.csv").read_text()
        assert csv_text.startswith("# config_hash=")
        assert "seed=5" in csv_text.splitlines()[0]
        payload = json.loads((out / "ims_audit.json").read_text())
        assert payload["seed"] == 5

    def test_two_sweep_writes_spec_columns(self, tmp_path):
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(
            "experiment = two_sweep\nmasses = 1 1 1\nkind = gaussian\n"
            "range = 1.0\nsweep_points = 5\nseed = 2\n"
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == EXIT_OK
        lines = (out / "two_sweep.csv").read_text().splitlines()
        assert lines[1].split(",") == [
            "lambda", "mu0", "lambda_star", "E2", "r2", "epsilon_R7"
        ]
        payload = json.loads((out / "two_sweep.json").read_text())
        assert payload["verdict"] == "spreading-consistent"
        assert abs(payload["size_exponent"] - 1.0) <= 0.2

    def test_r6_violation_exit_2(self, tmp_path, capsys):
        # a tabulated profile dipping below zero breaks R6 (V >= 0)
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(
            "experiment = two_critical\nmasses = 1 1 1\nlambda = 1.0\n"
            "kind = tabulated\nrange = 1.0\ntable = 0:1 0.5:-0.6 1:0.8 2:0\n"
        )
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "violates R6" in err and "nonnegativity" in err
        assert not (tmp_path / "out").exists()

    def test_ops_audit_boundary_violation_reported(self, tmp_path):
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(
            "experiment = ops_audit\nmasses = 1 1 1\nkind = gaussian\n"
            "range = 1.0\nlambda_factor = 1.0\nz_points = 3\np_points = 4\nseed = 3\n"
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == EXIT_OK
        payload = json.loads((out / "ops_audit.json").read_text())
        assert payload["contraction"][0]["violated"] is True
        assert payload["contraction"][0]["neumann_bound"] is None

    def test_absorb_guard_exits_3(self, tmp_path, capsys):
        # offsets pushing the sweep past the two-body critical point abort
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(
            "experiment = absorb\nmasses = 1 1 1\nkind = gaussian\nrange = 1.0\n"
            "budget = 16\ncontrol_points = 4\nsweep_points = 4\n"
            "offsets_max = 0.5\nseed = 7\n"
        )
        from threshold_lab.cli import EXIT_HYPOTHESIS

        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--quiet"])
        assert code == EXIT_HYPOTHESIS
        assert "lambda" in capsys.readouterr().err

    def test_three_sweep_small_budget(self, tmp_path):
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(
            "experiment = three_sweep\nmasses = 1 1 1\nkind = gaussian\n"
            "range = 1.0\nbudget = 20\nsweep_points = 5\n"
            "offsets_max = 3e-2\noffsets_min = 1e-3\nseed = 7\n"
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == EXIT_OK
        lines = (out / "three_sweep.csv").read_text().splitlines()
        assert lines[1].split(",")[:8] == [
            "lambda", "E3", "k", "r2_x", "r2_y", "rho2", "eps_R7", "kinetic_norm"
        ]
        payload = json.loads((out / "three_sweep.json").read_text())
        assert payload["lambda_cr"] < payload["lambda_star"]
        assert payload["bracket"][0] < payload["lambda_cr"] < payload["bracket"][1]
        assert payload["cond_N"] >= 1.0
        assert payload["dropped_directions"] == 0

    def test_absorb_symmetric_moments_and_conditioning(self, tmp_path):
        # x^2 and y^2 are the same matrix on a symmetrized basis, so the
        # columns agree to the last digit; the conditioning is reported, and
        # reruns stay byte-identical with it
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(
            "experiment = absorb\nmasses = 1 1 1\nkind = gaussian\nrange = 1.0\n"
            "budget = 24\ncontrol_points = 4\nsweep_points = 4\n"
            "offsets_min = 1e-3\nseed = 7\n"
        )
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == EXIT_OK
            outs.append({name: (out / name).read_bytes()
                         for name in ("absorb.json", "absorb_three.csv")})
        assert outs[0] == outs[1]
        rows = outs[0]["absorb_three.csv"].decode().splitlines()[1:]
        header = rows[0].split(",")
        x, y = header.index("r2_x"), header.index("r2_y")
        assert len(rows) == 5
        assert all(r.split(",")[x] == r.split(",")[y] for r in rows[1:])
        three = json.loads(outs[0]["absorb.json"])["three_body"]
        assert three["cond_N"] >= 1.0
        assert three["dropped_directions"] == 0

    def test_identical_reruns_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(
            "experiment = two_sweep\nmasses = 1 1 1\nkind = gaussian\n"
            "range = 1.0\nsweep_points = 5\nseed = 2\n"
        )
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["--config", str(cfg_path), "--out", str(out),
                         "--quiet"]) == EXIT_OK
            outs.append((out / "two_sweep.csv").read_bytes())
        assert outs[0] == outs[1]
