"""Command-line entry points, exercised in process through main()."""

import json

import pytest

from impstab.certificates import Witness, replay_witness
from impstab.cli import main
from impstab.library import get_example
from impstab.systems import system_from_config

GUAS_OK = json.dumps({"kind": "guas", "beta": {"kind": "exp-decay", "amp": 3.0, "rate": 0.5}})
GUAS_TIGHT = json.dumps({"kind": "guas", "beta": {"kind": "exp-decay", "amp": 1.0, "rate": 1.0}})
IISS_REF = json.dumps(
    {
        "kind": "iiss",
        "mode": "strong",
        "alpha": {"kind": "identity"},
        "beta": {"kind": "exp-decay", "amp": 1.0, "rate": 0.6931471805599453},
        "rho1": {"kind": "identity"},
        "rho2": {"kind": "identity"},
    }
)
PERIODIC = json.dumps({"name": "periodic", "period": 0.5})


class TestSimulate:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(
            [
                "simulate",
                "--system",
                "lin-contract",
                "--x0",
                "2.0",
                "--horizon",
                "3",
                "--sigma",
                "1.0,2.0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "status: complete-to-horizon" in captured
        assert "jumps applied: 2" in captured

    def test_inline_system_config(self, capsys):
        cfg = json.dumps(
            {"name": "probe", "dim_x": 1, "dim_u": 1, "flow": ["-x1"], "jump": ["0.0"]}
        )
        assert main(["simulate", "--system", cfg, "--horizon", "1"]) == 0

    def test_unknown_system_fails_cleanly(self, capsys):
        assert main(["simulate", "--system", "not-a-system"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_map_error_reported_as_step_failure(self, capsys):
        system = json.dumps(
            {"name": "domain", "dim_x": 1, "dim_u": 1, "flow": ["sqrt(x1)"], "jump": ["0.0"]}
        )
        code = main(["simulate", "--system", system, "--x0", "-1.0", "--horizon", "1"])
        assert code == 0
        captured = capsys.readouterr()
        assert "status: step-failure" in captured.out
        assert "Traceback" not in captured.out + captured.err


class TestCheck:
    def test_valid_certificate_exit_zero(self, capsys):
        code = main(
            [
                "check",
                "--system",
                "lin-contract",
                "--x0",
                "2.0",
                "--horizon",
                "4",
                "--family",
                PERIODIC,
                "--certificate",
                GUAS_OK,
            ]
        )
        assert code == 0
        assert "guas-strong: pass" in capsys.readouterr().out

    def test_violated_certificate_exit_two(self, capsys):
        code = main(
            [
                "check",
                "--system",
                "zero",
                "--x0",
                "1.0",
                "--horizon",
                "2",
                "--certificate",
                GUAS_TIGHT,
            ]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "violated" in out
        assert "first violation at" in out

    def test_certificate_from_file(self, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text(GUAS_OK)
        code = main(
            [
                "check",
                "--system",
                "lin-contract",
                "--horizon",
                "2",
                "--certificate",
                str(path),
            ]
        )
        assert code == 0


class TestFalsify:
    def test_violation_found_and_witness_replayable(self, tmp_path, capsys):
        wit_path = tmp_path / "witness.json"
        code = main(
            [
                "falsify",
                "--system",
                "double-jump",
                "--certificate",
                GUAS_OK,
                "--family",
                json.dumps({"name": "periodic", "period": 0.1}),
                "--budget",
                "100",
                "--seed",
                "3",
                "--witness-out",
                str(wit_path),
            ]
        )
        assert code == 2
        assert "witness: trial" in capsys.readouterr().out
        wit = Witness.from_dict(json.loads(wit_path.read_text()))
        from impstab.certificates import certificate_from_config

        cert = certificate_from_config(json.loads(GUAS_OK))
        out = replay_witness(wit, cert, get_example("double-jump"))
        assert out["matches"]

    def test_sound_certificate_exit_zero(self, capsys):
        code = main(
            [
                "falsify",
                "--system",
                "lin-contract",
                "--certificate",
                IISS_REF,
                "--family",
                PERIODIC,
                "--budget",
                "24",
            ]
        )
        assert code == 0
        assert "pass after 24 trials" in capsys.readouterr().out


class TestGronwall:
    def test_frozen_bound_printed(self, capsys):
        code = main(
            ["gronwall", "--p", "1", "--q1", "1", "--q2", "2", "--sigma", "1.0", "--t", "1.0"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "8.154845485377136"

    def test_no_jumps(self, capsys):
        code = main(["gronwall", "--p", "2", "--q1", "0", "--q2", "9", "--t", "5"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "2.0"


class TestExamples:
    def test_list_shows_builtins(self, capsys):
        assert main(["examples", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("lin-contract", "pure-jump", "bilinear", "double-jump", "zero"):
            assert name in out

    def test_export_round_trips(self, tmp_path):
        out = tmp_path / "sys.json"
        assert main(["examples", "export", "lin-contract", "--out", str(out)]) == 0
        system = system_from_config(json.loads(out.read_text()))
        assert system.name == "lin-contract"
        assert system.flow(0.0, [2.0], [0.5]) == (-1.5,)

    def test_export_unknown_name(self, capsys):
        assert main(["examples", "export", "nope"]) == 1
        assert "unknown example" in capsys.readouterr().err


class TestRun:
    def test_bundled_scenario(self, tmp_path, capsys):
        code = main(
            ["run", "lin_contract_iiss", "--bundled", "--out-dir", str(tmp_path / "out")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gain-falsify (falsify-iiss): pass" in out
        assert (tmp_path / "out" / "report.json").exists()

    def test_scenario_file(self, tmp_path):
        scenario = {
            "name": "quick",
            "system": "zero",
            "checks": [
                {
                    "id": "fails",
                    "kind": "check-guas",
                    "horizon": 2.0,
                    "certificate": json.loads(GUAS_TIGHT),
                }
            ],
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code = main(["run", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 2

    def test_missing_file(self, capsys):
        assert main(["run", "/no/such/scenario.json"]) == 1
        assert "error:" in capsys.readouterr().err


class TestEpsDelta:
    def test_frozen_state_convergence_violated(self, capsys):
        code = main(
            [
                "eps-delta",
                "--system",
                "zero",
                "--family",
                json.dumps({"name": "empty"}),
                "--budget",
                "4",
                "--zero-input",
                "--horizon",
                "6",
            ]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "eps-delta-convergence: violated" in out
        assert "eps-delta-bounded: pass" in out


class TestErrors:
    def test_bad_certificate_json(self, capsys):
        code = main(
            [
                "check",
                "--system",
                "zero",
                "--certificate",
                json.dumps({"kind": "mystery"}),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
