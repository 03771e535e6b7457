import hashlib
import json

import numpy as np
import pytest

from mvsparse.geometry import blocks_for_bbox, project_image_to_ground
from mvsparse.runtime.config import (
    ConfigError,
    RunConfig,
    camera_from_dict,
    camera_to_dict,
    config_digest,
    config_from_dict,
    config_to_dict,
    default_cameras,
    load_calibration,
    load_config,
    save_config,
)
from mvsparse.runtime.report import compare_table, dumps_report, load_report, write_report
from mvsparse.runtime.simulation import CameraRuntime, SceneSource, ServerEngine, run_sim
from mvsparse.metrics import oracle_select
from mvsparse.scene import Pedestrian, SceneFrame, ground_truth_view, project_pedestrian_box
from mvsparse.detector import DetectorConfig
from mvsparse.geometry import GroundPoint

import yaml


def small_cfg(**overrides):
    base = dict(
        mode="full",
        frames=12,
        seed=5,
        cameras=tuple(default_cameras()[:2]),
    )
    base.update(overrides)
    cfg = RunConfig(**{k: v for k, v in base.items() if k in RunConfig.__dataclass_fields__})
    scene = cfg.scene
    return cfg.with_overrides(scene=type(scene)(arena=scene.arena, n_pedestrians=8))


def camera_doc(camera_id):
    return {**camera_to_dict(default_cameras()[0]), "camera_id": camera_id}


class TestConfig:
    def test_yaml_round_trip(self, tmp_path):
        cfg = RunConfig(mode="oracle", frames=77, seed=3, k_views=2)
        path = tmp_path / "cfg.yaml"
        save_config(cfg, str(path))
        loaded = load_config(str(path))
        assert config_to_dict(loaded) == config_to_dict(cfg)
        assert config_digest(loaded) == config_digest(cfg)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"mode": "full", "frames": 5, "sneaky": 1})

    def test_unknown_subsection_keys_rejected(self):
        with pytest.raises(ConfigError, match="detector"):
            config_from_dict({"detector": {"sigma_px": 1.0, "bogus": 2}})

    @pytest.mark.parametrize(
        "doc",
        [
            {"scene": {"arena": {"bogus": 1}}},
            {"scene": None},
            {"detector": None},
            {"cameras": 5},
            {"block_size": 0},
            {"block_size": 4},
            {"cameras": [camera_doc(70000)]},
            {"cameras": [camera_doc(-1)]},
            {"seed": -1},
            {"seed": 1.5},
            {"frames": 2.5},
            {"k_views": 1.5},
            {"block_size": 100.5},
            {"tracker": {"max_misses": 2.5}},
            {"frames": True},
            {"dt": False},
            {"dt": "fast"},
            {"network": {"host": 127}},
            {"trajectories": 5},
        ],
        ids=[
            "nested-unknown-key",
            "null-scene",
            "null-section",
            "cameras-not-a-list",
            "block-size-zero",
            "grid-wider-than-wire",
            "camera-id-above-uint16",
            "camera-id-negative",
            "seed-negative",
            "seed-not-an-integer",
            "frames-float",
            "k-views-float",
            "block-size-float",
            "nested-int-field-float",
            "frames-bool",
            "float-field-bool",
            "float-field-string",
            "str-field-int",
            "optional-str-field-int",
        ],
    )
    def test_malformed_documents_are_config_errors(self, doc):
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_default_config_digest_is_pinned(self):
        # every report carries this digest; a schema refactor must not move it
        assert (
            config_digest(RunConfig())
            == "43114e41ae2a441dcd5e5dc011876a9464e03ca4aa64cd97b82f3a3a1aa735ce"
        )

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="warp")

    def test_bad_frames_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(frames=0)

    def test_mixed_image_sizes_rejected(self):
        cams = default_cameras()
        odd = camera_from_dict({**camera_to_dict(cams[0]), "image_size": [640, 480]})
        with pytest.raises(ConfigError, match="image size"):
            RunConfig(cameras=(odd, cams[1]))

    def test_calibration_file_schema(self, tmp_path):
        cam = default_cameras()[2]
        path = tmp_path / "cam2.yaml"
        with open(path, "w") as fh:
            yaml.safe_dump(camera_to_dict(cam), fh)
        loaded = load_calibration(str(path))
        assert loaded.camera_id == cam.camera_id
        assert np.allclose(loaded.rotation, cam.rotation)
        assert np.allclose(loaded.translation, cam.translation)
        assert loaded.image_size == cam.image_size

    def test_default_grid_is_paper_grid(self):
        assert RunConfig().grid.shape == (5, 9)
        assert RunConfig().grid.n_blocks == 45


class TestRunSimDeterminism:
    def test_bit_identical_reports(self):
        cfg = small_cfg(mode="mvsparse", frames=25)
        a = run_sim(cfg)
        b = run_sim(cfg)
        assert dumps_report(a) == dumps_report(b)

    def test_seed_changes_the_run(self):
        a = run_sim(small_cfg(mode="mvsparse", frames=20, seed=1))
        b = run_sim(small_cfg(mode="mvsparse", frames=20, seed=2))
        assert dumps_report(a) != dumps_report(b)


    # dumps_report SHA-256 of the default scene, seed 11, 40 frames. A
    # speedup must leave these unchanged; a change that is meant to move
    # the scores re-pins them and says why.
    PINNED_DIGESTS = {
        "full": "9464fb707c98fa930bac24da9eb24ab31b1dfecc10d74fddb51201e0beeed096",
        "mvsparse": "9139bc1fe6e87ba7fc7322d486867ecf8047da2960918cde1901e9bfeea35e09",
        "blockcopy": "671592a287ae97a6df276f258eb88049ed0f0daf2d2c5978826da158eb479ee6",
        "static_mask": "6aac8f24d9e796a714cb388a588c0b01baca199f70b93eff80bfc1825ac969f7",
        "oracle": "d5a0e59f34c9c30ef6bb795889f253eed1d14f32c6765e2cd38286a554e30f24",
    }

    @pytest.mark.parametrize("mode", sorted(PINNED_DIGESTS))
    def test_report_digest_is_pinned(self, mode):
        report = run_sim(RunConfig(mode=mode, frames=40, seed=11))
        digest = hashlib.sha256(dumps_report(report).encode()).hexdigest()
        assert digest == self.PINNED_DIGESTS[mode]


class TestModes:
    def test_full_mode_processes_exactly_45(self):
        report = run_sim(small_cfg(mode="full", frames=10))
        assert report["scores"]["blocks_per_camera_frame"] == 45.0
        assert set(report["series"]["blocks"]) == {45 * 2}

    def test_mvsparse_saturated_equals_full(self):
        # K = C and a forced refresh every frame pins all actions to one,
        # which must reproduce the full baseline bit for bit
        base = small_cfg(mode="full", frames=15)
        full = run_sim(base)
        policy = base.policy
        saturated = base.with_overrides(
            mode="mvsparse",
            k_views=len(base.cameras),
            policy=type(policy)(
                alpha=policy.alpha,
                momentum=policy.momentum,
                train_interval=policy.train_interval,
                full_refresh_interval=1,
                p_floor=policy.p_floor,
                motion_threshold=policy.motion_threshold,
                ig_match_eps=policy.ig_match_eps,
            ),
        )
        sat = run_sim(saturated)
        assert sat["scores"] == full["scores"]
        assert sat["series"] == full["series"]

    def test_oracle_single_walker_blocks_match_enumeration(self, tmp_path):
        # place one static walker where at least two cameras see it; the
        # oracle at K=1 must process exactly the best view's box blocks
        cfg = RunConfig(mode="oracle", frames=3, seed=0, k_views=1).with_overrides(
            detector=DetectorConfig(sigma_px=0.0, p_miss=0.0, fp_rate=0.0, min_box_height_px=36.0)
        )
        spot = None
        for x in np.linspace(1, 11, 30):
            for y in np.linspace(1, 35, 80):
                ped = Pedestrian(9, GroundPoint(x, y), (0, 0), GroundPoint(x, y))
                boxes = {}
                for cam in cfg.cameras:
                    proj = project_pedestrian_box(cam, ped)
                    if proj is not None and proj[0].h >= 36.0:
                        boxes[cam.camera_id] = proj[0]
                if len(boxes) >= 3:
                    spot = (x, y, boxes)
                    break
            if spot:
                break
        assert spot is not None
        x, y, boxes = spot
        traj = tmp_path / "one.txt"
        traj.write_text("".join(f"{t} 9 {x} {y}\n" for t in range(3)))
        cfg = cfg.with_overrides(trajectories=str(traj))
        # independent enumeration: the view whose grounded foot point lands
        # closest to the walker keeps it, contributing its box's blocks
        cams = {c.camera_id: c for c in cfg.cameras}
        best_cam = min(
            boxes,
            key=lambda cid: project_image_to_ground(cams[cid], boxes[cid].foot).distance_to(
                GroundPoint(x, y)
            ),
        )
        expected = len(blocks_for_bbox(cfg.grid, boxes[best_cam]))
        report = run_sim(cfg)
        assert report["scores"]["blocks_per_frame_total"] == pytest.approx(expected)

    def test_oracle_computes_ground_truth_once_per_camera_frame(self, monkeypatch):
        from mvsparse.runtime import simulation

        calls = []
        real = simulation.ground_truth_view

        def counted(scene, cam):
            calls.append((scene.frame_id, cam.camera_id))
            return real(scene, cam)

        monkeypatch.setattr(simulation, "ground_truth_view", counted)
        cfg = RunConfig(mode="oracle", frames=5, seed=11)
        run_sim(cfg)
        assert sorted(calls) == [(t, c) for t in range(5) for c in cfg.camera_ids]

    def test_static_mask_is_frozen(self):
        cfg = small_cfg(mode="static_mask", frames=14)
        cfg = cfg.with_overrides(static_mask_profile_frames=6)
        report = run_sim(cfg)
        series = report["series"]["blocks"]
        assert len(set(series)) == 1
        assert 0 < series[0] <= 45 * 2

    def test_blockcopy_runs_and_reports(self):
        report = run_sim(small_cfg(mode="blockcopy", frames=20))
        assert report["completed_frames"] == 20
        assert 0 < report["scores"]["blocks_per_camera_frame"] <= 45.0

    def test_trajectory_replay(self, tmp_path):
        traj = tmp_path / "walk.txt"
        rows = []
        for t in range(8):
            rows.append(f"{t} 0 {5.0 + 0.02 * t} 6.0\n")
            rows.append(f"{t} 1 {4.0} {8.0 + 0.02 * t}\n")
        traj.write_text("".join(rows))
        cfg = small_cfg(mode="full", frames=8).with_overrides(trajectories=str(traj))
        report = run_sim(cfg)
        assert report["completed_frames"] == 8
        assert report["scores"]["gt_total"] == 16

    @pytest.mark.parametrize(
        "rows",
        [
            "0 0 5.0\n",
            "0 -1 5.0 6.0\n",
            f"0 {2**64} 5.0 6.0\n",
            "-1 0 5.0 6.0\n",
            "0 0 5.0 6.0\n0 0 5.5 6.0\n",
            None,
        ],
        ids=[
            "three-fields",
            "negative-person",
            "person-past-64-bits",
            "negative-frame",
            "duplicate-identity",
            "missing-file",
        ],
    )
    def test_bad_trajectory_file_is_config_error(self, tmp_path, rows):
        traj = tmp_path / "traj.txt"
        if rows is not None:
            traj.write_text(rows)
        cfg = small_cfg(mode="full", frames=1).with_overrides(trajectories=str(traj))
        with pytest.raises(ConfigError, match="trajectories"):
            run_sim(cfg)

    def test_trajectory_too_short_is_config_error(self, tmp_path):
        traj = tmp_path / "short.txt"
        traj.write_text("0 0 5.0 6.0\n")
        cfg = small_cfg(mode="full", frames=8).with_overrides(trajectories=str(traj))
        with pytest.raises(ConfigError):
            run_sim(cfg)


class TestCameraRuntime:
    def test_detection_history_follows_the_detector_refresh_memory(self):
        # 40 frames cross the forced full refresh at frame 32
        cfg = small_cfg(mode="mvsparse", frames=40)
        source = SceneSource(cfg)
        runtimes = [CameraRuntime(cfg, cam) for cam in cfg.cameras]
        engine = ServerEngine(cfg)
        for t in range(cfg.frames):
            scene = source.frame(t)
            updates = {rt.camera.camera_id: rt.begin_frame(scene, t) for rt in runtimes}
            feedbacks = engine.process(t, updates, scene.ground_points())
            for rt in runtimes:
                rt.end_frame(t, feedbacks[rt.camera.camera_id])
                refreshed = {f for f in rt.view_state.last_refresh.flat if f >= 0}
                assert set(rt.agent.detection_history) == refreshed | {t}


    @pytest.mark.parametrize(
        "fp_rate", [DetectorConfig().fp_rate, 0.0], ids=["default", "no-false-positives"]
    )
    def test_candidate_pass_replays_the_committed_draws(self, fp_rate):
        # oracle mode has no agent, so the committed passes alone carry the
        # camera state from frame to frame
        cfg = small_cfg(mode="oracle", frames=15)
        cfg = cfg.with_overrides(detector=DetectorConfig(fp_rate=fp_rate))
        source = SceneSource(cfg)
        runtimes = [CameraRuntime(cfg, cam) for cam in cfg.cameras]
        ones = np.ones(cfg.grid.shape, dtype=np.uint8)
        for t in range(cfg.frames):
            scene = source.frame(t)
            gts = {rt.camera.camera_id: ground_truth_view(scene, rt.camera) for rt in runtimes}
            candidates = {}
            for rt in runtimes:
                cam_id = rt.camera.camera_id
                candidates[cam_id] = rt.candidate_detections(gts[cam_id], t).detections
                before = rt.view_state
                assert rt.begin_frame(scene, t, ones, gts[cam_id]).detections == candidates[cam_id]
                rt.view_state = before
            masks = oracle_select(
                [p for _, p in scene.ground_points()],
                {cam_id: list(dets) for cam_id, dets in candidates.items()},
                cfg.k_views,
                cfg.grid,
                cfg.match_radius,
            )
            for rt in runtimes:
                cam_id = rt.camera.camera_id
                committed = rt.begin_frame(scene, t, masks[cam_id], gts[cam_id]).detections
                # false positives land in the mask's own blocks, so only
                # without them is every fresh detection a candidate
                if fp_rate == 0.0:
                    assert all(d in candidates[cam_id] for d in committed if not d.stale)


class TestSceneSource:
    def test_frames_must_be_consumed_in_order(self):
        src = SceneSource(small_cfg())
        src.frame(0)
        src.frame(1)
        with pytest.raises(RuntimeError):
            src.frame(5)

    def test_replay_and_synthetic_agree_on_interface(self):
        src = SceneSource(small_cfg())
        s0 = src.frame(0)
        assert isinstance(s0, SceneFrame)
        assert s0.frame_id == 0


class TestReportIO:
    def test_write_and_load(self, tmp_path):
        report = run_sim(small_cfg(frames=6))
        path = tmp_path / "r.json"
        write_report(report, str(path))
        assert load_report(str(path)) == json.loads(dumps_report(report))

    def test_compare_table_mentions_metrics(self):
        a = run_sim(small_cfg(frames=6))
        b = run_sim(small_cfg(mode="blockcopy", frames=6))
        table = compare_table(a, b)
        assert "moda" in table
        assert "blocks_per_camera_frame" in table
        assert "full" in table and "blockcopy" in table

    def test_network_time_model(self):
        report = run_sim(small_cfg(frames=6))
        res = report["resources"]
        bw = small_cfg().network.bandwidth_bytes_per_s
        expected = 1000.0 * report["scores"]["bytes_per_frame"] / bw
        assert res["transmission_ms_per_frame"] == pytest.approx(expected)
        assert res["frame_network_ms"] == pytest.approx(expected + res["latency_ms"])
