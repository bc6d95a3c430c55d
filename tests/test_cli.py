"""Command line interface: subcommands, overrides, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smdpsynth.product
from smdpsynth import desk_config
from smdpsynth.cli import main


def _small_config_file(tmp_path, **overrides):
    cfg = desk_config(learn_episodes=1500, reach_episodes=1000, paths=5,
                      horizon=20, seed=2, **overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_json_dict()))
    return str(path)


def test_run_with_config_file(tmp_path, capsys):
    cfg_file = _small_config_file(tmp_path)
    out = tmp_path / "results"
    assert main(["run", cfg_file, "--out", str(out)]) == 0
    assert (out / "summary.json").exists()
    assert "wrote" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["out_dir"] == str(out)


def test_run_overrides_seed_and_reps(tmp_path):
    cfg_file = _small_config_file(tmp_path)
    out = tmp_path / "r"
    assert main(["run", cfg_file, "--seed", "9", "--reps", "2",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == 9
    assert len(summary["repetitions"]) == 2


def test_env_var_sets_output_dir(tmp_path, monkeypatch):
    cfg_file = _small_config_file(tmp_path, out_dir="ignored")
    env_out = tmp_path / "from_env"
    monkeypatch.setenv("SMDPSYNTH_OUT", str(env_out))
    assert main(["oracle", cfg_file]) == 0
    assert (env_out / "oracle.json").exists()

    flag_out = tmp_path / "from_flag"
    assert main(["oracle", cfg_file, "--out", str(flag_out)]) == 0
    assert (flag_out / "oracle.json").exists()


def test_oracle_reports_exact_sets(tmp_path, capsys):
    cfg_file = _small_config_file(tmp_path)
    out = tmp_path / "o"
    assert main(["oracle", cfg_file, "--out", str(out)]) == 0
    doc = json.loads((out / "oracle.json").read_text())
    assert len(doc["w"]) == 42 and len(doc["w_p"]) == 77
    assert doc["reach_at_initial"] == 1.0
    assert doc["reach"][str(doc["initial"])] == 1.0
    assert "|W| = 42" in capsys.readouterr().out


def test_paper_scale_conflicts_with_config(tmp_path):
    cfg_file = _small_config_file(tmp_path)
    with pytest.raises(SystemExit):
        main(["run", cfg_file, "--paper-scale"])


def test_bad_config_returns_error_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"formula": "G !c", "episodes": 3}))
    assert main(["run", str(path)]) == 2
    assert "unknown config fields" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    {"patience": 0}, {"gamma": 1.0},
    {"functional": {"kind": "quantile", "alpha": 2}},
])
def test_invalid_config_value_returns_error_code(tmp_path, capsys,
                                                 override):
    """Values rejected by the learner, reward or risk-functional settings
    end in `error:` and exit 2, not in a traceback."""
    doc = desk_config().to_json_dict()
    doc.update(override)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "r").exists()


def test_non_integer_count_returns_error_code(tmp_path, capsys):
    """A float horizon is refused at config time: exit 2, an `error:`
    line naming the field, and no bundle."""
    doc = desk_config().to_json_dict()
    doc["horizon"] = 2.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "horizon" in err
    assert not (tmp_path / "r").exists()


def test_non_real_level_returns_error_code(tmp_path, capsys):
    """A discount given as a string is refused at config time: exit 2, an
    `error:` line naming the field, and no bundle."""
    doc = desk_config().to_json_dict()
    doc["gamma_r"] = "0.9"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "gamma_r" in err
    assert not (tmp_path / "r").exists()


def test_unconverged_solver_returns_error_code(tmp_path, capsys,
                                              monkeypatch):
    cfg_file = _small_config_file(tmp_path)
    monkeypatch.setattr(smdpsynth.product, "MAX_SWEEPS", 1)
    assert main(["oracle", cfg_file, "--out", str(tmp_path / "o")]) == 2
    assert "error: max-reach value iteration did not converge" \
        in capsys.readouterr().err


def test_check_battery_passes(capsys):
    assert main(["check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(ln.startswith("ok") for ln in lines) == 5
    assert not any(ln.startswith("FAIL") for ln in lines)


# doubles the risk handed to the closed-form check, whose Q must then come
# out 20 instead of 10
BROKEN_RISK_CHECK = """
import sys
import smdpsynth.cli as cli

if not sys.flags.optimize:
    sys.exit("not running under -O")
real = cli.RiskModel


def doubled(**kw):
    kw["risk"] = [2 * r for r in kw["risk"]]
    return real(**kw)


cli.RiskModel = doubled
sys.exit(cli.main(["check"]))
"""


def test_check_battery_fails_under_optimize_flag():
    """`python -O` strips assert statements; the battery must still fail
    a check whose input is broken."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [x for x in [env.get("PYTHONPATH")] if x])
    proc = subprocess.run([sys.executable, "-O", "-c", BROKEN_RISK_CHECK],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 1, proc.stdout + proc.stderr
    fails = [ln for ln in lines if ln.startswith("FAIL")]
    assert len(fails) == 1
    assert fails[0].startswith("FAIL risk closed form: AssertionError")
    assert sum(ln.startswith("ok") for ln in lines) == 4


def _run_cli(*args, cwd):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [x for x in [env.get("PYTHONPATH")] if x])
    return subprocess.run([sys.executable, "-m", "smdpsynth", *args],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=300)


def _bad_input(tmp_path, case):
    if case == "negative seed":
        return ["run", "--seed", "-1", "--out", str(tmp_path / "r")]
    if case == "missing file":
        return ["run", str(tmp_path / "absent.json")]
    path = tmp_path / "cfg.json"
    if case == "malformed file":
        path.write_text('{"formula": "G !c", ')
        return ["run", str(path), "--out", str(tmp_path / "r")]
    doc = desk_config().to_json_dict()
    if case == "unknown atom":      # an atom the scenario does not label
        doc["formula"] = "G !d"
    else:                           # an initial state the scenario lacks
        doc["scenario"] = {
            "states": ["s0"], "actions": ["a"], "initial": "zz",
            "transitions": {"s0": {"a": {"s0": 1.0}}},
            "dwell": {"s0/a/s0": {"kind": "exponential", "rate": 1.0}},
            "labels": {"s0": ["c"]}}
    path.write_text(json.dumps(doc))
    return ["oracle" if case == "malformed scenario" else "run", str(path),
            "--out", str(tmp_path / "r")]


@pytest.mark.parametrize("case", ["negative seed", "missing file",
                                  "malformed file", "unknown atom",
                                  "malformed scenario"])
def test_bad_input_reports_error_without_traceback(tmp_path, case):
    """Bad command-line input ends in one `error:` line and exit status 2,
    before any output is written."""
    proc = _run_cli(*_bad_input(tmp_path, case), cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "r").exists()
