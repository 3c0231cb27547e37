"""Scenario runner: deterministic reports, artifacts, exit codes."""

import hashlib
import json
import os
from importlib import resources

import pytest

from impstab.errors import ConfigError
from impstab.scenarios import (
    DEFAULT_OUT_DIR,
    load_scenario,
    resolve_out_dir,
    run_scenario,
)


def bundled(name: str) -> dict:
    ref = resources.files("impstab").joinpath("data", name + ".json")
    return json.loads(ref.read_text())


def assert_numeric_rows(path) -> None:
    """Every field of every row after the header reads as a float."""
    rows = path.read_text().splitlines()[1:]
    assert rows
    for row in rows:
        for field in row.split(","):
            float(field)


class TestBundledScenarios:
    def test_sound_scenario_passes(self, tmp_path):
        scenario = bundled("lin_contract_iiss")
        result = run_scenario(scenario, str(tmp_path / "out"))
        assert result["exit_code"] == 0
        report = result["report"]
        assert report["system"] == "lin-contract"
        assert {e["id"] for e in report["checks"]} == {"gain-falsify", "gain-spotcheck"}
        for entry in report["checks"]:
            assert entry["report"]["verdict"] == "pass"

    def test_report_byte_identical_across_runs(self, tmp_path):
        scenario = bundled("lin_contract_iiss")
        run_scenario(scenario, str(tmp_path / "a"))
        run_scenario(scenario, str(tmp_path / "b"))
        ra = (tmp_path / "a" / "report.json").read_bytes()
        rb = (tmp_path / "b" / "report.json").read_bytes()
        assert ra == rb
        assert b'"exit_code": 0' in ra

    def test_artifacts_written(self, tmp_path):
        out = tmp_path / "out"
        run_scenario(bundled("lin_contract_iiss"), str(out))
        assert (out / "report.json").exists()
        assert (out / "meta.json").exists()
        plot = out / "gain-spotcheck-plot.csv"
        traj = out / "gain-spotcheck-trajectory.csv"
        assert plot.exists() and traj.exists()
        header = plot.read_text().splitlines()[0]
        assert header == "t,state_norm,bound"
        assert_numeric_rows(plot)
        meta = json.loads((out / "meta.json").read_text())
        assert "created" in meta

    def test_unsound_scenario_flagged(self, tmp_path):
        out = tmp_path / "out"
        result = run_scenario(bundled("double_jump_falsify"), str(out))
        assert result["exit_code"] == 2
        (entry,) = result["report"]["checks"]
        assert entry["report"]["verdict"] == "violated"
        assert entry["report"]["witness"] is not None
        # the falsified trajectory is replayed into plot artifacts
        assert (out / "decay-falsify-plot.csv").exists()
        assert_numeric_rows(out / "decay-falsify-plot.csv")


# sha256 of every artifact but meta.json, each scenario at its own seed
BUNDLED_ARTIFACTS = {
    "lin_contract_iiss": {
        "report.json": "c565d31ca378b82067be1431b6f8782c4d297ce669009ab81dd8c7b13e12fcfd",
        "gain-spotcheck-plot.csv": (
            "035cc1ba0ae2c3d10f12d1f6344b2dcedf356ae930bde1fdac5272d23c577d87"
        ),
        "gain-spotcheck-trajectory.csv": (
            "a97c004d33b490cc6427fedd725a3a84af1159d3d07427aa858b6fc84658e898"
        ),
    },
    "double_jump_falsify": {
        "report.json": "f7817feeb3e0eff90f0e55a261de58af30041907058aff51f2c573f94e99cd12",
        "decay-falsify-plot.csv": (
            "15b6cc2cffc45746a6118d74cf18f5b678398e82f0892c50717b66ea6f494e33"
        ),
        "decay-falsify-trajectory.csv": (
            "954f92dff8bea5724d39dbee3902baa44004ee119d3685f0fb10587b1b586a97"
        ),
    },
}


@pytest.mark.parametrize("name", sorted(BUNDLED_ARTIFACTS))
def test_pinned_bundled_artifacts(tmp_path, name):
    """Every byte a bundled scenario writes, but its timestamped meta.json."""
    run_scenario(bundled(name), str(tmp_path))
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
        if path.name != "meta.json"
    }
    assert got == BUNDLED_ARTIFACTS[name]


def test_trajectory_csv_written_atomically(tmp_path, monkeypatch):
    """A run that fails while writing leaves no partial trajectory CSV and
    no temp file behind."""

    def fail(src, dst):
        raise OSError("disk went away")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk went away"):
        run_scenario(bundled("double_jump_falsify"), str(tmp_path))
    assert list(tmp_path.iterdir()) == []


class TestOutDirPrecedence:
    def test_explicit_beats_everything(self, monkeypatch):
        monkeypatch.setenv("IMPSTAB_OUT_DIR", "env-dir")
        assert resolve_out_dir("explicit", {"out_dir": "scen-dir"}) == "explicit"

    def test_scenario_beats_environment(self, monkeypatch):
        monkeypatch.setenv("IMPSTAB_OUT_DIR", "env-dir")
        assert resolve_out_dir(None, {"out_dir": "scen-dir"}) == "scen-dir"

    def test_environment_beats_default(self, monkeypatch):
        monkeypatch.setenv("IMPSTAB_OUT_DIR", "env-dir")
        assert resolve_out_dir(None, {}) == "env-dir"

    def test_default(self, monkeypatch):
        monkeypatch.delenv("IMPSTAB_OUT_DIR", raising=False)
        assert resolve_out_dir(None, {}) == DEFAULT_OUT_DIR

    def test_environment_used_end_to_end(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("IMPSTAB_OUT_DIR", str(target))
        scenario = {
            "name": "tiny",
            "seed": 1,
            "system": "lin-contract",
            "checks": [
                {
                    "id": "hold",
                    "kind": "check-guas",
                    "horizon": 1.0,
                    "certificate": {
                        "kind": "guas",
                        "beta": {"kind": "exp-decay", "amp": 2.0, "rate": 0.5},
                    },
                }
            ],
        }
        result = run_scenario(scenario)
        assert result["out_dir"] == str(target)
        assert (target / "report.json").exists()


class TestScenarioValidation:
    def test_unknown_check_kind(self, tmp_path):
        scenario = {
            "system": "zero",
            "checks": [
                {
                    "kind": "verify-guas",
                    "certificate": {
                        "kind": "guas",
                        "beta": {"kind": "exp-decay", "amp": 1.0, "rate": 1.0},
                    },
                }
            ],
        }
        with pytest.raises(ConfigError):
            run_scenario(scenario, str(tmp_path))

    def test_kind_certificate_mismatch(self, tmp_path):
        scenario = {
            "system": "zero",
            "checks": [
                {
                    "kind": "check-iiss",
                    "certificate": {
                        "kind": "guas",
                        "beta": {"kind": "exp-decay", "amp": 1.0, "rate": 1.0},
                    },
                }
            ],
        }
        with pytest.raises(ConfigError):
            run_scenario(scenario, str(tmp_path))

    def test_missing_certificate(self, tmp_path):
        scenario = {"system": "zero", "checks": [{"kind": "check-guas"}]}
        with pytest.raises(ConfigError):
            run_scenario(scenario, str(tmp_path))

    def test_malformed_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_scenario(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_scenario(arr)

    @pytest.mark.parametrize(
        "ranges, named",
        [({"steps": 0.1}, "'steps'"), ({"step": "x"}, "'x'"), ({"horizon": True}, "True"),
         ([1.0], "mapping")],
        ids=["unknown-key", "string-value", "bool-value", "not-an-object"],
    )
    def test_bad_search_ranges(self, tmp_path, ranges, named):
        """An unknown ranges key once raised TypeError from SearchRanges,
        and a string value a TypeError deep inside falsify."""
        scenario = {
            "system": "lin-contract",
            "checks": [
                {
                    "kind": "falsify-guas",
                    "budget": 2,
                    "ranges": ranges,
                    "certificate": {
                        "kind": "guas",
                        "beta": {"kind": "exp-decay", "amp": 1.0, "rate": 0.5},
                    },
                }
            ],
        }
        with pytest.raises(ConfigError, match=named):
            run_scenario(scenario, str(tmp_path))

    @pytest.mark.parametrize(
        "checks, named", [(5, "'checks'"), ({"a": 1}, "'checks'"), (["x"], "check 0")]
    )
    def test_malformed_checks(self, tmp_path, checks, named):
        """A number for the checks escaped as a bare TypeError, and a check
        that is not an object as an AttributeError."""
        with pytest.raises(ConfigError, match=named):
            run_scenario({"system": "zero", "checks": checks}, str(tmp_path))

    def test_unknown_builtin_system(self, tmp_path):
        with pytest.raises(ConfigError):
            run_scenario({"system": "mystery", "checks": []}, str(tmp_path))


class TestExitCodes:
    def test_inconclusive_maps_to_three(self, tmp_path):
        # a diverging run with an unreachable bound: no violation is
        # observed, the trajectory just ends early
        scenario = {
            "name": "early-stop",
            "system": {
                "name": "explode",
                "dim_x": 1,
                "dim_u": 1,
                "flow": ["4*x1"],
                "jump": ["x1"],
            },
            "family": {"name": "periodic", "period": 0.5},
            "checks": [
                {
                    "id": "loose",
                    "kind": "check-ubebs",
                    "x0": [1.0],
                    "horizon": 40.0,
                    "certificate": {
                        "kind": "ubebs",
                        "alpha": {"kind": "identity"},
                        "rho1": {"kind": "identity"},
                        "rho2": {"kind": "identity"},
                        "c": 1.0e15,
                    },
                }
            ],
        }
        result = run_scenario(scenario, str(tmp_path / "out"))
        assert result["exit_code"] == 3
        (entry,) = result["report"]["checks"]
        assert entry["report"]["verdict"] == "inconclusive"

    def test_violated_wins_over_inconclusive(self, tmp_path):
        scenario = {
            "name": "mixed",
            "system": "zero",
            "checks": [
                {
                    "id": "fails",
                    "kind": "check-guas",
                    "horizon": 2.0,
                    "certificate": {
                        "kind": "guas",
                        "beta": {"kind": "exp-decay", "amp": 1.0, "rate": 1.0},
                    },
                }
            ],
        }
        result = run_scenario(scenario, str(tmp_path / "out"))
        assert result["exit_code"] == 2
