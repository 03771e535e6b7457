import json

import pytest
import yaml

from mvsparse.runtime.cli import EXIT_CONFIG, EXIT_OK, main
from mvsparse.runtime.config import RunConfig, config_to_dict, default_cameras, save_config


def write_small_cfg(path, mode="full", frames=6):
    cfg = RunConfig(mode=mode, frames=frames, seed=2, cameras=tuple(default_cameras()[:2]))
    scene = cfg.scene
    cfg = cfg.with_overrides(scene=type(scene)(arena=scene.arena, n_pedestrians=6))
    save_config(cfg, str(path))
    return cfg


def test_simulate_writes_report(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    out_path = tmp_path / "report.json"
    write_small_cfg(cfg_path)
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out_path)])
    assert code == EXIT_OK
    report = json.loads(out_path.read_text())
    assert report["mode"] == "full"
    assert report["completed_frames"] == 6
    assert "MODA" in capsys.readouterr().out


def test_simulate_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    out_path = tmp_path / "report.json"
    write_small_cfg(cfg_path, frames=20)
    code = main(
        ["simulate", "--config", str(cfg_path), "--frames", "4", "--seed", "9", "--out", str(out_path)]
    )
    assert code == EXIT_OK
    report = json.loads(out_path.read_text())
    assert report["frames"] == 4 and report["seed"] == 9


def test_report_compare(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_small_cfg(cfg_path)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(a)]) == EXIT_OK
    assert main(["simulate", "--config", str(cfg_path), "--mode", "blockcopy", "--out", str(b)]) == EXIT_OK
    capsys.readouterr()
    assert main(["report", "--compare", str(a), str(b)]) == EXIT_OK
    table = capsys.readouterr().out
    assert "moda" in table and "blockcopy" in table


def test_report_single_summary(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    out = tmp_path / "r.json"
    write_small_cfg(cfg_path)
    main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    capsys.readouterr()
    assert main(["report", str(out)]) == EXIT_OK
    assert "blocks/cam-frame" in capsys.readouterr().out


def test_init_config_round_trips(tmp_path):
    path = tmp_path / "default.yaml"
    assert main(["init-config", "--out", str(path)]) == EXIT_OK
    doc = yaml.safe_load(path.read_text())
    assert doc == config_to_dict(RunConfig())


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("mode: nonsense\n")
    assert main(["simulate", "--config", str(bad)]) == EXIT_CONFIG


def test_malformed_config_section_exits_with_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("scene:\n  arena:\n    bogus: 1\n")
    assert main(["simulate", "--config", str(bad)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_grid_too_large_for_wire_exits_with_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("block_size: 4\n")
    assert main(["simulate", "--config", str(bad)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_mistyped_config_value_exits_with_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("frames: 2.5\n")
    assert main(["simulate", "--config", str(bad)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "frames must be int" in err


def test_missing_report_args(capsys):
    assert main(["report"]) == EXIT_CONFIG


def test_negative_seed_exits_with_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    write_small_cfg(cfg_path)
    assert main(["simulate", "--config", str(cfg_path), "--seed", "-1"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows",
    ["0 0 5.0\n", "0 -1 5.0 6.0\n", f"0 {2**64} 5.0 6.0\n", None],
    ids=["three-fields", "negative-person", "person-past-64-bits", "missing-file"],
)
def test_bad_trajectory_file_exits_with_config_error(tmp_path, capsys, rows):
    traj = tmp_path / "traj.txt"
    if rows is not None:
        traj.write_text(rows)
    bad = tmp_path / "bad.yaml"
    bad.write_text(f"frames: 1\ntrajectories: {traj}\n")
    assert main(["simulate", "--config", str(bad)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
