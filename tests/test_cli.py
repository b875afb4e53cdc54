import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from threshold_lab.cli import (
    EXIT_CONFIG,
    EXIT_HYPOTHESIS,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXPERIMENTS,
    OPTIONS,
    load_config,
    main,
    parse_keyvalues,
)
from threshold_lab.errors import ConfigError
from threshold_lab import threebody as t3
from threshold_lab import twobody as tb

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


SQUARE_WELL_CFG = """\
experiment = two_critical
masses = 1 1 1
kind = square_well
range = 1.0
lambda_factor = 0.8
seed = 1
"""


def read_json(path: Path) -> dict:
    """A JSON output of the CLI; NaN and Infinity, which JSON has not, fail."""
    def reject(constant):
        raise ValueError(f"{path.name} holds the non-JSON constant {constant}")
    return json.loads(path.read_text(), parse_constant=reject)


def assert_rows_match(path: Path, reference: Path):
    """A CSV or plot-data output against its reference: the two header lines
    exactly, every value within 1e-7 relative."""
    lines, ref_lines = path.read_text().splitlines(), reference.read_text().splitlines()
    assert lines[:2] == ref_lines[:2] and len(lines) == len(ref_lines)
    sep = "," if path.suffix == ".csv" else None
    for line, ref in zip(lines[2:], ref_lines[2:]):
        assert [float(v) for v in line.split(sep)] == pytest.approx(
            [float(v) for v in ref.split(sep)], rel=1e-7)


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
        ("table = 0:1 1:0", "table"),                            # a table on a square well
        ("lambda = 2.0", "lambda_factor"),                       # beside lambda_factor
        ("kind = foo", "kind"),
        ("potential.13.kind = foo", "potential.13.kind"),
        ("kind = tabulated\ntable = 0:1", "table"),              # one row
        ("kind = tabulated\ntable = 1:1 0:0", "table"),          # decreasing radii
        ("potential.13.kind = square_well\npotential.13.range = 1\npotential.13.table = 0:1 1:0",
         "potential.13.table"),
    ], ids=["pair-21", "range-without-kind", "table-without-tabulated", "lambda-and-factor",
            "unknown-kind", "unknown-pair-kind", "one-row-table", "decreasing-radii",
            "pair-table-without-tabulated"])
    def test_unread_potential_key_rejected(self, line, key):
        # the case's lines replace the keys they set in the square-well config
        kv = parse_keyvalues(SQUARE_WELL_CFG) | parse_keyvalues(line)
        with pytest.raises(ConfigError) as err:
            load_config("".join(f"{k} = {v}\n" for k, v in kv.items()))
        assert err.value.key == key

    def test_bad_number(self):
        with pytest.raises(ConfigError) as err:
            load_config("experiment = two_critical\nkind = gaussian\nrange = 1\nlambda = abc\n")
        assert err.value.key == "lambda"

    @pytest.mark.parametrize("key", ["control_gmax", "control_gmin", "theta", "delta",
                                     "control_points", "offsets_max", "offsets_min"])
    def test_retired_option_is_unknown(self, key):
        for experiment in ("two_critical", "absorb"):
            text = SQUARE_WELL_CFG.replace("two_critical", experiment)
            with pytest.raises(ConfigError) as err:
                load_config(text + f"{key} = 0.1\n")
            assert err.value.key == key

    def test_options_parsed_to_their_types(self):
        cfg = load_config("experiment = three_sweep\nkind = gaussian\nrange = 1.0\n"
                          "budget = 20\nsweep_points = 5\n")
        assert cfg.budget == 20
        assert cfg.options == {"sweep_points": 5}
        assert type(cfg.options["sweep_points"]) is int

    def test_readme_option_table_matches_schema(self):
        # each README row lists `name` (default, >= least) for an integer
        # option or `name` (default, > least) for a float one, or names the
        # experiment whose options it shares
        readme = (ROOT / "README.md").read_text()
        cells = dict(re.findall(r"^\| `(\w+)` \| (.+) \|$", readme, flags=re.M))
        documented = {}
        for experiment in EXPERIMENTS:
            shared = re.fullmatch(r"the `(\w+)` options", cells[experiment])
            if shared:
                documented[experiment] = documented[shared[1]]
                continue
            row = re.findall(r"`(\w+)` \(([^,]+), ([≥>]) ([^)]+)\)", cells[experiment])
            assert row or cells[experiment] == "none"
            documented[experiment] = {}
            for name, default, bound, least in row:
                kind = int if bound == "≥" else float
                documented[experiment][name] = (kind(default), kind(least))
        assert documented == OPTIONS
        assert all(type(documented[e][k][1]) is type(least)
                   for e, row in OPTIONS.items() for k, (_, least) in row.items())

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
        payload = read_json(tmp_path / "out" / "two_critical.json")
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
        payload = read_json(tmp_path / "out" / "two_critical.json")
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
            payloads.append(read_json(tmp_path / name / "two_critical.json"))
        uniform, payload = payloads
        assert payload["pairs"]["13"] == {"mu0": 0.0, "lambda_star": None,
                                          "lambda_star_oracle": None,
                                          "oracle_rel_diff": None}
        for pair in ("12", "23"):
            assert payload["pairs"][pair] == uniform["pairs"][pair]
        assert payload["eps_R7"] == uniform["eps_R7"]
        assert payload["R7_satisfied"] is True

    @pytest.mark.parametrize("masses,runs", [("1 1 1", 1), ("1 1 4", 2)])
    def test_one_oracle_run_per_distinct_pair(self, tmp_path, masses, runs):
        # the oracle is cached by (potential, frame); masses 1 1 4 give
        # pair 12 one frame and pairs 13 and 23 another
        tb.oracle_critical_coupling.cache_clear()
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(SQUARE_WELL_CFG.replace("masses = 1 1 1", f"masses = {masses}"))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == EXIT_OK
        assert tb.oracle_critical_coupling.cache_info().misses == runs
        payload = read_json(tmp_path / "out" / "two_critical.json")
        for info in payload["pairs"].values():
            assert info["oracle_rel_diff"] <= 1e-4

    @pytest.mark.parametrize("pairs", [
        "masses = 1 1 1\nkind = gaussian\nrange = 2.5\n",
        "masses = 1 1 1\nkind = exponential\nrange = 4.0\n",
        "masses = 1 1 1\nkind = gaussian\nrange = 0.2\n",
        "masses = 1 1 1\nkind = square_well\nrange = 0.15\n",
        "masses = 1 2 3\nkind = gaussian\nrange = 1.0\npotential.13.kind = tabulated\n"
        "potential.13.range = 1.5\npotential.13.table = 0:2 1:1 3:0\n",
    ], ids=["gaussian_0.43", "exponential_0.090", "gaussian_67", "square_well_110",
            "tabulated_0.45"])
    def test_oracle_finds_the_first_threshold(self, tmp_path, pairs):
        # lambda* below 0.5 or above 64; the exponential pair at range 4 holds
        # three zero-energy thresholds below coupling 1, and only the first
        # is lambda*
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text("experiment = two_critical\nlambda_factor = 0.8\nseed = 1\n" + pairs)
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == EXIT_OK
        payload = read_json(tmp_path / "out" / "two_critical.json")
        for info in payload["pairs"].values():
            assert info["oracle_rel_diff"] <= 1e-8

    def test_missing_config_file(self, capsys):
        assert main(["--config", "/nonexistent/cfg"]) == EXIT_CONFIG

    def test_config_file_not_utf8(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg"
        cfg_path.write_bytes(SQUARE_WELL_CFG.encode() + b"\xff\n")
        assert main(["--config", str(cfg_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

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
        payload = read_json(out / "ims_audit.json")
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
        payload = read_json(out / "two_sweep.json")
        assert payload["verdict"] == "spreading-consistent"
        assert abs(payload["size_exponent"] - 1.0) <= 0.2

    def test_two_sweep_builds_one_bs_matrix_per_point(self, tmp_path, monkeypatch):
        # the shipped two_sweep builds K(0) once, for lambda*, and K(kappa)
        # once at each of its 9 momenta (alpha = range = 1), with no root search
        zs, roots = [], []
        build, brentq = tb.bs_matrix, tb._brentq

        def recorded(V, frame, z, rule):
            zs.append(z)
            return build(V, frame, z, rule)

        def searched(*args, **kw):
            roots.append(args)
            return brentq(*args, **kw)

        monkeypatch.setattr(tb, "bs_matrix", recorded)
        monkeypatch.setattr(tb, "_brentq", searched)
        tb.bs_max_eigenvalue.cache_clear()
        assert main(["--config", str(CONFIGS / "two_sweep_gaussian.cfg"),
                     "--out", str(tmp_path / "out"), "--quiet"]) == EXIT_OK
        assert zs == [0.0, *np.geomspace(1e-1, 1e-4, 9).tolist()]
        assert roots == []

    @pytest.mark.parametrize("experiment,line", [
        ("two_sweep", "sweep_points = ten"),
        ("ims_audit", "samples = 0"),
        ("two_sweep", "sweep_points = 3"),
        ("three_sweep", "sweep_points = 3"),
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
        ("absorb", "budget = 150\nbudget = 9"),
    ], ids=["not-an-integer", "no-samples", "too-few-points", "three-sweep-too-few-points",
            "empty-growth-stage", "negative-seed", "zero-lambda-factor", "nan-lambda",
            "nan-range", "infinite-mass", "negative-mass", "lambda-and-lambda-factor",
            "option-not-read", "budget-not-read", "key-set-twice"])
    def test_bad_option_value_exit_2(self, tmp_path, capsys, experiment, line):
        # caught while parsing: no runner starts and no output directory is made
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(f"experiment = {experiment}\nmasses = 1 1 1\n"
                            f"kind = gaussian\nrange = 1.0\n{line}\n")
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        keys = {entry.split(" = ")[0] for entry in line.split("\n")}
        if len(keys) == 1:
            assert f"(key: {keys.pop()})" in err
        else:
            assert all(key in err for key in keys)
        assert not (tmp_path / "out").exists()

    def test_output_path_is_a_file_exit_2(self, tmp_path, capsys):
        # an --out that names an existing file, or a path under one, cannot
        # become the output directory: a config failure, not a traceback
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(SQUARE_WELL_CFG)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        for out in (taken, taken / "out"):
            assert main(["--config", str(cfg_path), "--out", str(out),
                         "--quiet"]) == EXIT_CONFIG
            assert "(key: out)" in capsys.readouterr().err
        assert taken.read_text() == "not a directory\n"

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
        assert "(key: table)" in err
        assert not (tmp_path / "out").exists()

    def test_r6_violation_names_the_pair_table(self):
        # three per-pair tables, only pair 13's dips below zero
        tables = {"12": "0:1 1:0.5 2:0", "13": "0:1 0.5:-0.6 1:0", "23": "0:1 2:0"}
        text = "experiment = two_critical\nmasses = 1 1 1\nlambda = 1.0\n" + "".join(
            f"potential.{pair}.kind = tabulated\npotential.{pair}.range = 1.0\n"
            f"potential.{pair}.table = {table}\n" for pair, table in tables.items())
        with pytest.raises(ConfigError) as err:
            load_config(text)
        assert err.value.key == "potential.13.table"
        assert "violates R6" in str(err.value)

    def test_negative_value_between_grid_points_exit_2(self, tmp_path, capsys):
        # a dip of width 2e-4 between positive samples: every table value is
        # checked, not a sample grid of the interpolant
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(
            "experiment = two_critical\nmasses = 1 1 1\nlambda = 1.0\nkind = tabulated\n"
            "range = 1.0\ntable = 0:1 1.0001:1 1.0002:-0.5 1.0003:1 10:0\n"
        )
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "V(1.0002) = -0.5" in err and "(key: table)" in err
        assert not (tmp_path / "out").exists()

    def test_non_monotone_table_passes_ims_identity(self, tmp_path):
        # a dip then a bump: the envelope is the non-increasing majorant of V,
        # so the cone-envelope identity holds on a valid non-monotone table
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(
            "experiment = ims_audit\nmasses = 1 1 1\nkind = tabulated\nrange = 1.0\n"
            "table = 0:1 1:0.1 2:0.6 3:0\nlambda = 1.0\nsamples = 20000\nseed = 0\n"
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == EXIT_OK
        payload = read_json(out / "ims_audit.json")
        assert payload["identity_passed"] is True
        assert payload["cone_envelope_excess"] <= 1e-12

    @pytest.mark.parametrize("experiment", ["two_critical", "ops_audit", "ims_audit"])
    def test_lambda_factor_without_attraction_exit_1(self, tmp_path, capsys, experiment):
        # lambda* = inf on every pair leaves lambda_factor nothing to scale
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(f"experiment = {experiment}\nmasses = 1 1 1\nkind = tabulated\n"
                            "range = 1.0\ntable = 0:0 1:0\nlambda_factor = 0.8\n")
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == EXIT_NUMERICAL
        assert "lambda_factor" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*.json"))

    def test_three_sweep_without_attraction_exit_1(self, tmp_path, capsys):
        # lambda* = inf on every pair gives the lambda_cr search no energy scale
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text("experiment = three_sweep\nmasses = 1 1 1\nkind = tabulated\n"
                            "range = 1.0\ntable = 0:0 1:0\nbudget = 12\nsweep_points = 4\n")
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "DegenerateInputError" in err and "no pair has attraction" in err
        assert not list((tmp_path / "out").iterdir())

    def test_ims_audit_with_lambda_solves_no_lambda_star(self, tmp_path, monkeypatch):
        # lambda* only scales lambda_factor, so a run given lambda solves none
        calls = []
        critical = tb.critical_coupling

        def counted(*args):
            calls.append(args)
            return critical(*args)

        monkeypatch.setattr(tb, "critical_coupling", counted)
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text("experiment = ims_audit\nmasses = 1 1 1\nkind = gaussian\n"
                            "range = 1.0\nlambda = 2.0\nsamples = 2000\nseed = 4\n")
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == EXIT_OK
        assert calls == []

    def test_ops_audit_pair_without_attraction_reported_null(self, tmp_path):
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(
            "experiment = ops_audit\nmasses = 1 1 1\nkind = gaussian\nrange = 1.0\n"
            "potential.12.kind = tabulated\npotential.12.range = 1.0\n"
            "potential.12.table = 0:0 1:0\nlambda = 1.0\nz_points = 3\np_points = 4\n"
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == EXIT_OK
        payload = read_json(out / "ops_audit.json")
        assert payload["lambda_star"] is None
        assert all(row["lambda_mu"] == 0.0 for row in payload["contraction"])

    def test_shipped_ops_audit_matches_reference(self, tmp_path):
        # the reference is the output of the full eigen-solve route; the
        # Lanczos fiber norms may move the two fiber-norm aggregates in their
        # last digits only (the proxy, a difference of two norms, magnifies
        # rounding)
        out = tmp_path / "out"
        assert main(["--config", str(CONFIGS / "ops_audit_gaussian.cfg"), "--out", str(out),
                     "--quiet"]) == EXIT_OK
        payload = read_json(out / "ops_audit.json")
        reference = read_json(ROOT / "tests" / "data" / "ops_audit_gaussian.json")
        fiber, ref_fiber = payload["fiber_audit"], reference["fiber_audit"]
        assert fiber.pop("sup_norm") == pytest.approx(ref_fiber.pop("sup_norm"), rel=1e-14)
        assert fiber.pop("continuity_proxy") == pytest.approx(
            ref_fiber.pop("continuity_proxy"), rel=1e-12)
        assert payload == reference

    def test_shipped_ims_audit_matches_reference(self, tmp_path):
        # the references were written by the audit on the (chi, phi) shape
        # grid, which draws nothing at random: a rerun must not move a byte
        out = tmp_path / "out"
        assert main(["--config", str(CONFIGS / "ims_audit_gaussian.cfg"), "--out", str(out),
                     "--quiet"]) == EXIT_OK
        data = ROOT / "tests" / "data"
        assert (out / "ims_audit.json").read_bytes() == \
            (data / "ims_audit_gaussian.json").read_bytes()
        assert (out / "ims_gradient.csv").read_bytes() == \
            (data / "ims_gradient_gaussian.csv").read_bytes()

    @pytest.mark.parametrize("name,outputs", [
        ("two_critical_square_well", ["two_critical.json"]),
        ("two_critical_exponential", ["two_critical.json"]),
        ("two_sweep_gaussian", ["two_sweep.json", "two_sweep.csv"]),
    ])
    def test_shipped_two_body_matches_reference(self, tmp_path, name, outputs):
        # the references are the shipped runs' outputs, which 1 and 2
        # OpenBLAS threads write alike: a rerun must not move a byte
        out = tmp_path / "out"
        assert main(["--config", str(CONFIGS / f"{name}.cfg"), "--out", str(out),
                     "--quiet"]) == EXIT_OK
        for output in outputs:
            reference = ROOT / "tests" / "data" / f"{name}{Path(output).suffix}"
            assert (out / output).read_bytes() == reference.read_bytes(), output

    def test_shipped_three_sweep_matches_reference(self, tmp_path):
        # the references are the shipped three_sweep's outputs.  Running on 2
        # OpenBLAS threads instead of 1 moved lambda_cr and the bracket by
        # 5e-14, cond_N by 1e-7, size_exponent by 1.1e-11 and the records by
        # 2.1e-9 (relative), each well inside its bound here
        out = tmp_path / "out"
        assert main(["--config", str(CONFIGS / "three_sweep_gaussian.cfg"), "--out", str(out),
                     "--quiet"]) == EXIT_OK
        data = ROOT / "tests" / "data"
        payload = read_json(out / "three_sweep.json")
        reference = read_json(data / "three_sweep_gaussian.json")
        for key in ("lambda_cr", "bracket", "lambda_star"):
            assert payload.pop(key) == pytest.approx(reference.pop(key), rel=1e-12), key
        assert payload.pop("cond_N") == pytest.approx(reference.pop("cond_N"), rel=1e-5)
        assert payload.pop("size_exponent") == pytest.approx(reference.pop("size_exponent"),
                                                             abs=1e-9)
        # verdict and dropped_directions exactly, beside the hash and the seed
        assert payload == reference
        assert_rows_match(out / "three_sweep.csv", data / "three_sweep_gaussian.csv")

    def test_shipped_absorb_matches_reference(self, tmp_path):
        # the references are the shipped absorb's outputs at 2 OpenBLAS
        # threads.  At 1 thread lambda_cr and the bracket moved by 5.3e-14,
        # cond_N by 9.6e-8, size_exponent by 1.1e-11 (absolute), the other
        # three-body fields and the three-body records by 2.1e-9 at most
        # (relative); the two-body control did not move
        out = tmp_path / "out"
        assert main(["--config", str(CONFIGS / "absorb_gaussian.cfg"), "--out", str(out),
                     "--quiet"]) == EXIT_OK
        data = ROOT / "tests" / "data"
        payload = read_json(out / "absorb.json")
        reference = read_json(data / "absorb_gaussian.json")
        three, ref_three = payload["three_body"], reference["three_body"]
        for key in ("lambda_cr", "bracket", "lambda_star"):
            assert three.pop(key) == pytest.approx(ref_three.pop(key), rel=1e-12), key
        assert three.pop("cond_N") == pytest.approx(ref_three.pop("cond_N"), rel=1e-5)
        assert three.pop("size_exponent") == pytest.approx(ref_three.pop("size_exponent"),
                                                           abs=1e-9)
        for key in ("bracket_width_rel", "sup_tail_at_r0", "rho2_ratio_last_decade",
                    "kinetic_max_over_median", "min_eps_R7"):
            assert three.pop(key) == pytest.approx(ref_three.pop(key), rel=1e-7), key
        # the verdicts, r0 and dropped_directions exactly, beside the two-body
        # control, the hash and the seed
        assert payload == reference
        assert (out / "absorb_control.csv").read_bytes() == \
            (data / "absorb_gaussian_control.csv").read_bytes()
        assert_rows_match(out / "absorb_three.csv", data / "absorb_gaussian_three.csv")
        assert_rows_match(out / "absorb_plot.dat", data / "absorb_gaussian_plot.dat")

    def test_ops_audit_boundary_violation_reported(self, tmp_path):
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(
            "experiment = ops_audit\nmasses = 1 1 1\nkind = gaussian\n"
            "range = 1.0\nlambda_factor = 1.0\nz_points = 3\np_points = 4\nseed = 3\n"
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == EXIT_OK
        payload = read_json(out / "ops_audit.json")
        assert payload["contraction"][0]["violated"] is True
        assert payload["contraction"][0]["neumann_bound"] is None

    # A light third particle leaves no Borromean window: lambda_cr lies above
    # lambda* (1.16 lambda* at budget 16), so the sweep above lambda_cr would
    # bind a pair and the R7 guard aborts it.
    NO_WINDOW_CFG = ("masses = 1 1 0.25\nkind = gaussian\nrange = 1.0\n"
                     "budget = 16\nsweep_points = 4\nseed = 7\n")

    def test_absorb_guard_exits_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text("experiment = absorb\n" + self.NO_WINDOW_CFG)
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--quiet"])
        assert code == EXIT_HYPOTHESIS
        assert "lambda" in capsys.readouterr().err

    def test_three_sweep_guard_exits_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text("experiment = three_sweep\n" + self.NO_WINDOW_CFG)
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--quiet"])
        assert code == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        assert "hypothesis violated" in err and "lambda = " in err
        assert not (tmp_path / "out" / "three_sweep.csv").exists()

    def test_three_sweep_unfittable_profile_exits_1(self, tmp_path, capsys):
        # no nonnegative sum on the Gaussian width ladder fits the square well
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(
            "experiment = three_sweep\nmasses = 1 1 1\nkind = square_well\n"
            "range = 1.0\nbudget = 12\nsweep_points = 4\nseed = 7\n"
        )
        out = tmp_path / "out"
        code = main(["--config", str(cfg_path), "--out", str(out), "--quiet"])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERICAL
        assert "FitError" in err and "residual" in err
        assert not (out / "three_sweep.csv").exists()
        assert not (out / "three_sweep.json").exists()

    def test_three_sweep_small_budget(self, tmp_path):
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(
            "experiment = three_sweep\nmasses = 1 1 1\nkind = gaussian\n"
            "range = 1.0\nbudget = 20\nsweep_points = 5\nseed = 7\n"
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == EXIT_OK
        lines = (out / "three_sweep.csv").read_text().splitlines()
        assert lines[1].split(",")[:8] == [
            "lambda", "E3", "k", "r2_x", "r2_y", "rho2", "eps_R7", "kinetic_norm"
        ]
        payload = read_json(out / "three_sweep.json")
        assert payload["lambda_cr"] < payload["lambda_star"]
        assert payload["bracket"][0] < payload["lambda_cr"] < payload["bracket"][1]
        assert payload["cond_N"] >= 1.0
        assert payload["dropped_directions"] == 0

    def test_unbound_sweep_point_exits_1(self, tmp_path, monkeypatch, capsys):
        # the third of 10 sweep points solves to E3 = 0: the run fails there,
        # naming the coupling, instead of writing the other 9 rows
        record_point = t3.record_point
        couplings = []

        def third_unbound(asm, coupling, eps_r7, tail_radii):
            couplings.append(coupling)
            if len(couplings) != 3:
                return record_point(asm, coupling, eps_r7, tail_radii)
            solve = asm.solve
            asm.solve = lambda lam: (0.0, solve(lam)[1])
            try:
                return record_point(asm, coupling, eps_r7, tail_radii)
            finally:
                del asm.solve

        monkeypatch.setattr(t3, "record_point", third_unbound)
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(
            "experiment = three_sweep\nmasses = 1 1 1\nkind = gaussian\n"
            "range = 1.0\nbudget = 20\nsweep_points = 10\nseed = 7\n"
        )
        out = tmp_path / "out"
        code = main(["--config", str(cfg_path), "--out", str(out), "--quiet"])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERICAL
        assert f"no three-body bound state at coupling {couplings[2]!r}" in err
        assert not (out / "three_sweep.csv").exists()

    def test_unconverged_root_search_exits_1(self, tmp_path, monkeypatch, capsys):
        # an iteration limit raises ConvergenceError, which the CLI reports as
        # a numerical error instead of ending in a traceback; the square
        # well's two_critical reaches _brentq through the shooting oracle
        brentq = tb._brentq
        monkeypatch.setattr(tb, "_brentq", lambda *args, **kw: brentq(*args, **kw, maxiter=1))
        tb.oracle_critical_coupling.cache_clear()
        code = main(["--config", str(CONFIGS / "two_critical_square_well.cfg"),
                     "--out", str(tmp_path / "out"), "--quiet"])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERICAL
        assert "numerical error" in err and "ConvergenceError" in err

    def test_absorb_symmetric_moments_and_conditioning(self, tmp_path):
        # x^2 and y^2 are the same matrix on a symmetrized basis, so the
        # columns agree to the last digit; the conditioning is reported, and
        # reruns stay byte-identical with it
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(
            "experiment = absorb\nmasses = 1 1 1\nkind = gaussian\nrange = 1.0\n"
            "budget = 24\nsweep_points = 4\nseed = 7\n"
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
        three = read_json(tmp_path / "a" / "absorb.json")["three_body"]
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
