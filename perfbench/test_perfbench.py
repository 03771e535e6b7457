"""Self-tests of the benchmark: wrapper coverage, the frame clock, the
correctness gate, the tail percentile and the comparison verdicts.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import hooks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# enough frames for one policy gradient step (frame 0 is a forced refresh
# and train_interval is 10)
FRAMES = 12


def traced_counts(name: str, frames: int = FRAMES) -> Counter:
    wl = WORKLOADS[name]
    cfg = wl.config(7, frames=frames)
    tracer = hooks.Tracer()
    tracer.install()
    try:
        if wl.runner == "loopback":
            worker.run_loopback(cfg)
        else:
            from mvsparse import run_sim

            run_sim(cfg)
        _, counts = tracer.collect()
    finally:
        tracer.close()
    return counts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrappers_fire_exactly_where_predicted(name):
    assert hooks.coverage_errors(name, traced_counts(name)) == []


def test_wrapper_on_defining_module_is_reported_silent(monkeypatch):
    # callers look ground_truth_view up in the simulation module, so a
    # wrapper on the defining module never fires
    spans = tuple(
        ("mvsparse.scene", attr, span) if span == "scene.gt_view" else (owner, attr, span)
        for owner, attr, span in hooks.SPANS
    )
    monkeypatch.setattr(hooks, "SPANS", spans)
    errors = hooks.coverage_errors("crowd_full", traced_counts("crowd_full", frames=2))
    assert errors == ["scene.gt_view: never fired on crowd_full"]


def test_idle_layer_that_fires_is_reported():
    counts = Counter({name: 1 for name in hooks.ACTIVE_ON})
    errors = hooks.coverage_errors("crowd_full", counts)
    assert "policy.act: fired 1 times on crowd_full, predicted idle" in errors
    assert "distributed.send: fired 1 times on crowd_full, predicted idle" in errors
    assert not any(e.startswith("tracker.") for e in errors)


def test_tracer_leaves_reports_unchanged_and_patches_undone():
    from mvsparse import run_sim
    from mvsparse.runtime import simulation

    cfg = WORKLOADS["sparse_default"].config(5, frames=4)
    original = simulation.ground_truth_view
    plain = run_sim(cfg)
    clock = hooks.FrameClock()
    tracer = hooks.Tracer()
    tracer.install()
    clock.arm()
    try:
        traced = run_sim(cfg)
        spans, counts = tracer.collect()
    finally:
        tracer.close()
        clock.close()
    assert traced == plain
    assert simulation.ground_truth_view is original
    assert len(clock.frame_times()) == 4
    assert counts["scene.projections"] == 4 * 4 * 2 * 20  # frames x cameras x (gt + render) x walkers
    frames = {span[4] for span in spans if span[0] == "simulation.server"}
    assert frames == {0, 1, 2, 3}
    layers = hooks.summarize(spans, counts, 4, 20)
    assert layers["protocol.encodes_per_update"] == 1.0
    assert layers["simulation.server_ms"] >= layers["tracker.update_ms"] > 0


def test_frame_clock_starts_on_the_arming_thread():
    import threading

    from mvsparse.runtime.simulation import SceneSource

    source = SceneSource(WORKLOADS["loopback"].config(5, frames=2))
    original = SceneSource.frame
    clock = hooks.FrameClock()
    clock.arm()
    try:
        camera = threading.Thread(target=source.frame, args=(0,))
        camera.start()
        camera.join()
        assert clock.start is None
        source.frame(0)
        assert clock.start is not None
    finally:
        clock.close()
    assert SceneSource.frame is original


def test_percentiles():
    assert run.percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.0
    assert run.percentile(list(range(1, 101)), 98) == 98


def test_scene_layout():
    layouts = {name: wl.layout(20) for name, wl in WORKLOADS.items()}
    assert layouts == {"sparse_default": (4, 125), "crowd_full": (2, 100), "loopback": (8, 100)}
    assert WORKLOADS["crowd_full"].layout(1) == (1, 20)
    seeds = [cfg.seed for cfg in WORKLOADS["sparse_default"].scenes(11, 20)]
    assert seeds[0] == 11 and len(set(seeds)) == 4


def _pass(seed, digest, frames=10, completed=None, errors=()):
    completed = frames if completed is None else completed
    return {"kind": "timed", "scene_seed": seed, "frames": frames, "completed": completed,
            "digest": digest, "errors": list(errors)}


def test_gate_counts_failed_frames():
    gate = run.Gate()
    gate.add_passes("run", [_pass(1, "a"), _pass(2, "b"), _pass(1, "a"), _pass(1, "c", frames=5)])
    assert (gate.correct, gate.attempted, gate.failed) == (True, 35, 0)

    gate.add_passes("run", [_pass(1, "a"), _pass(1, "x")])
    gate.add_passes("run", [_pass(3, "c", completed=4)])
    gate.add_passes("run", [_pass(4, "d", errors=["score out of range"])])
    assert not gate.correct
    assert (gate.attempted, gate.failed) == (75, 10 + 6 + 10)


def test_verdicts():
    seeds = range(10)
    parent = {s: 100.0 + s % 3 for s in seeds}
    faster = {s: 80.0 + s % 3 for s in seeds}
    slower = {s: 120.0 + s % 3 for s in seeds}
    noisy = {s: 100.0 + 40.0 * (s % 2) for s in seeds}
    assert compare.verdict(parent, faster, False, 0.1)["verdict"] == "improved"
    assert compare.verdict(parent, slower, False, 0.1)["verdict"] == "regressed"
    assert compare.verdict(parent, dict(parent), False, 0.1)["verdict"] == "unchanged"
    assert compare.verdict(noisy, dict(noisy), False, 0.1)["verdict"] == "unresolved"
    # fewer than ten pairs never claim a gain
    few = {s: v for s, v in faster.items() if s < 5}
    assert compare.verdict({s: parent[s] for s in few}, few, False, 0.1)["verdict"] == "unchanged"


def _record(seed=1, frame_ms=1.0, started=0.0, digest="d"):
    return {"workload": "crowd_full", "seed": seed, "seconds": 20, "trace": 0,
            "started_unix": started, "params": WORKLOADS["crowd_full"].params(),
            "metrics": {"frame_ms_p50": frame_ms},
            "passes": [{"kind": "timed", "digest": digest}],
            "environment": {"nproc": 2, "numpy": "2.4.6", "git_commit": "a", "source_sha256": "s"}}


def test_same_seed_runs_pair_in_run_order(tmp_path, capsys):
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": [
        {"name": "frame_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}]}))
    for side, base in (("parent", 100.0), ("change", 80.0)):
        (tmp_path / side).mkdir()
        for k in range(10):
            rec = _record(frame_ms=base + k % 3, started=float(k))
            (tmp_path / side / f"result-{k}.json").write_text(json.dumps(rec))
    keys = compare.keyed(compare.load_results(str(tmp_path / "parent")))
    assert sorted(keys) == [("crowd_full", 1, k) for k in range(10)]
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                         "--benchmark", str(bench)]) == 0
    row = capsys.readouterr().out.splitlines()[-1]
    assert " 10/10 " in row and "improved" in row


def test_compare_refuses_other_environment():
    rec = _record()
    other_commit = json.loads(json.dumps(rec))
    other_commit["environment"].update(git_commit="b", source_sha256="t")
    other_commit["passes"][0]["digest"] = "e"
    assert compare.mismatches([rec], [other_commit]) == []
    other_machine = json.loads(json.dumps(rec))
    other_machine["environment"]["nproc"] = 8
    assert compare.mismatches([rec], [other_machine])
    # one side's runs of one seed must give one report
    assert compare.mismatches([rec, _record(digest="e")], [rec])


def test_run_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text("{}")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "crowd_full", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_short_run_end_to_end():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "crowd_full", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # the measured scene, the short scene twice, and one frame per set-up probe
    assert result["attempted"] == 20 + 2 * workloads.REPEAT_FRAMES + run.SETUP_PROBES
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        k: m["unit"] for k, m in result["metrics"].items()
    }
    assert result["metrics"]["blocks_per_camera_frame"]["value"] == 45.0
