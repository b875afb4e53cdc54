import json
import math
from pathlib import Path

import pytest

from threshold_lab.cli import (
    EXIT_CONFIG,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    EXPERIMENTS,
    OPTIONS,
    load_config,
    main,
)
from threshold_lab.errors import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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

    @pytest.mark.parametrize("line,key", [
        ("potential.21.kind = gaussian", "potential.21.kind"),   # not a canonical pair
        ("potential.12.range = 2.0", "potential.12.kind"),       # a range without a kind
        ("table = 0:1 1:0", None),                               # a table on a square well
    ], ids=["pair-21", "range-without-kind", "table-without-tabulated"])
    def test_unread_potential_key_rejected(self, line, key):
        with pytest.raises(ConfigError) as err:
            load_config(SQUARE_WELL_CFG + line + "\n")
        assert err.value.key == key

    def test_bad_number(self):
        with pytest.raises(ConfigError) as err:
            load_config("experiment = two_critical\nkind = gaussian\nrange = 1\nlambda = abc\n")
        assert err.value.key == "lambda"

    @pytest.mark.parametrize("key", ["control_gmax", "control_gmin", "theta", "delta"])
    def test_retired_option_is_unknown(self, key):
        with pytest.raises(ConfigError) as err:
            load_config(SQUARE_WELL_CFG + f"{key} = 0.1\n")
        assert err.value.key == key

    def test_options_parsed_to_their_types(self):
        cfg = load_config("experiment = three_sweep\nkind = gaussian\nrange = 1.0\n"
                          "budget = 20\nsweep_points = 5\noffsets_max = 1e-2\n")
        assert cfg.budget == 20
        assert cfg.options == {"sweep_points": 5, "offsets_max": 1e-2, "offsets_min": 2e-5}
        assert type(cfg.options["sweep_points"]) is int
        assert type(cfg.options["offsets_max"]) is float

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_options_follow_the_table(self, experiment):
        # an experiment loads its own options to their defaults when they are
        # absent, and rejects every option of another experiment's row
        text = f"experiment = {experiment}\nkind = gaussian\nrange = 1.0\n"
        row = OPTIONS[experiment]
        cfg = load_config(text)
        assert cfg.budget == row.get("budget", (None,))[0]
        assert cfg.options == {k: default for k, (default, _) in row.items()
                               if k != "budget"}
        foreign = {k: default for other in OPTIONS.values()
                   for k, (default, _) in other.items() if k not in row}
        assert foreign
        for key, value in foreign.items():
            with pytest.raises(ConfigError) as err:
                load_config(text + f"{key} = {value}\n")
            assert err.value.key == key

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
    def test_shipped_config_loads(self, path):
        # a renamed or retired key would otherwise break a shipped config unseen
        assert load_config(path.read_text()).experiment in EXPERIMENTS

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

    def test_pair_without_attraction_reported_null(self, tmp_path):
        # pair 13 has lambda* = inf: no threshold, no oracle run, no crash
        gauss = ("experiment = two_critical\nmasses = 1 1 1\nkind = gaussian\n"
                 "range = 1.0\nlambda_factor = 0.8\nseed = 1\n")
        zeroed = gauss + ("potential.13.kind = tabulated\npotential.13.range = 1.0\n"
                          "potential.13.table = 0:0 1:0\n")
        payloads = []
        for name, text in (("gauss", gauss), ("zeroed", zeroed)):
            cfg_path = tmp_path / f"{name}.cfg"
            cfg_path.write_text(text)
            assert main(["--config", str(cfg_path), "--out", str(tmp_path / name),
                         "--quiet"]) == EXIT_OK
            payloads.append(json.loads((tmp_path / name / "two_critical.json").read_text()))
        uniform, payload = payloads
        assert payload["pairs"]["13"] == {"mu0": 0.0, "lambda_star": None,
                                          "lambda_star_oracle": None,
                                          "oracle_rel_diff": None}
        for pair in ("12", "23"):
            assert payload["pairs"][pair] == uniform["pairs"][pair]
        assert payload["eps_R7"] == uniform["eps_R7"]
        assert payload["R7_satisfied"] is True

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

    @pytest.mark.parametrize("experiment,line", [
        ("two_sweep", "sweep_points = ten"),
        ("ims_audit", "samples = 0"),
        ("two_sweep", "sweep_points = 3"),
        ("three_sweep", "offsets_min = 0"),
        ("three_sweep", "budget = 2"),
        ("three_sweep", "seed = -1"),
        ("two_critical", "lambda_factor = 0"),
        ("two_critical", "lambda = nan"),
        ("two_critical", "range = nan"),
        ("two_critical", "masses = 1 1 inf"),
        ("two_critical", "masses = 1 1 -1"),
        ("two_critical", "lambda = 5.0\nlambda_factor = 0.8"),
        ("two_critical", "z_points = 3"),
        ("ims_audit", "budget = 0"),
    ], ids=["not-an-integer", "no-samples", "too-few-points", "zero-offset",
            "empty-growth-stage", "negative-seed", "zero-lambda-factor", "nan-lambda",
            "nan-range", "infinite-mass", "negative-mass", "lambda-and-lambda-factor",
            "option-not-read", "budget-not-read"])
    def test_bad_option_value_exit_2(self, tmp_path, capsys, experiment, line):
        # caught while parsing: no runner starts and no output directory is made
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(f"experiment = {experiment}\nmasses = 1 1 1\n"
                            f"kind = gaussian\nrange = 1.0\n{line}\n")
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        keys = [entry.split(" = ")[0] for entry in line.split("\n")]
        if len(keys) == 1:
            assert f"(key: {keys[0]})" in err
        else:
            assert all(key in err for key in keys)
        assert not (tmp_path / "out").exists()

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
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--quiet"])
        assert code == EXIT_HYPOTHESIS
        assert "lambda" in capsys.readouterr().err

    def test_three_sweep_guard_exits_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(
            "experiment = three_sweep\nmasses = 1 1 1\nkind = gaussian\n"
            "range = 1.0\nbudget = 16\nsweep_points = 4\n"
            "offsets_max = 0.5\nseed = 7\n"
        )
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--quiet"])
        assert code == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        assert "hypothesis violated" in err and "lambda = " in err
        assert not (tmp_path / "out" / "three_sweep.csv").exists()

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
