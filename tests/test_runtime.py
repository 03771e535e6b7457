import builtins
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsparse.runtime.config import (
    MODES,
    ConfigError,
    RunConfig,
    config_digest,
    config_from_dict,
    config_to_dict,
    default_cameras,
    load_config,
    save_config,
)
from mvsparse.runtime.report import compare_table, dumps_report, load_report, write_report
from mvsparse.runtime.simulation import CameraRuntime, SceneSource, ServerEngine, run_sim
from mvsparse.metrics import oracle_select
from mvsparse.scene import Pedestrian, SceneFrame, ground_truth_view, project_pedestrian_box
from mvsparse.detector import DetectorConfig
from mvsparse.geometry import GroundPoint, camera_from_pose
from test_geometry import blocks_for_bbox, project_image_to_ground

import yaml


PLAIN_SUM = builtins.sum


def cpython312_sum(iterable, /, start=0):
    """Builtin ``sum`` as CPython 3.12 computes it (Python/bltinmodule.c,
    ``builtin_sum_impl``): integers exactly, and a float sum with Neumaier's
    compensation, added back once at the end."""
    it = iter(iterable)
    result = start
    if type(result) is int:
        for item in it:
            if type(item) in (int, bool):
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is not float:
        return PLAIN_SUM(it, result)
    total, c = result, 0.0
    for item in it:
        if type(item) is float:
            t = total + item
            if abs(total) >= abs(item):
                c += (total - t) + item
            else:
                c += (item - t) + total
            total = t
        elif type(item) in (int, bool) and -(2**63) <= item < 2**63:
            total += float(item)
        else:
            if c and math.isfinite(c):
                total += c
            return PLAIN_SUM(it, total + item)
    if c and math.isfinite(c):
        total += c
    return total


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


def camera_doc(**changes):
    """The default camera 0's calibration document with ``changes`` applied."""
    return {**config_to_dict(RunConfig())["cameras"][0], **changes}


@st.composite
def rigs(draw):
    """1-4 cameras from random mounting poses, with distinct ids and one
    shared image size."""
    size = (draw(st.integers(64, 4096)), draw(st.integers(64, 4096)))
    ids = draw(st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=4, unique=True))
    return tuple(
        camera_from_pose(
            cam_id,
            (draw(st.floats(-50, 50)), draw(st.floats(-50, 50)), draw(st.floats(1, 30))),
            draw(st.floats(-180, 180)),
            draw(st.floats(5, 85)),
            draw(st.floats(100, 3000)),
            size,
        )
        for cam_id in ids
    )


SCALAR_OVERRIDES = st.fixed_dictionaries(
    {},
    optional={
        "mode": st.sampled_from(MODES),
        "frames": st.integers(1, 10**6),
        "seed": st.integers(0, 2**63),
        "dt": st.floats(1e-4, 1.0),
        "block_size": st.integers(32, 512),
        "k_views": st.integers(1, 8),
        "cluster_eps": st.floats(0.01, 5.0),
        "compression_factor": st.floats(0.1, 100.0),
        "trajectories": st.sampled_from([None, "walkers.txt"]),
    },
)


class TestConfig:
    @settings(max_examples=60, deadline=None)
    @given(rigs(), SCALAR_OVERRIDES)
    def test_random_rigs_round_trip_through_yaml(self, cameras, overrides):
        cfg = RunConfig(cameras=cameras, **overrides)
        doc = yaml.safe_load(yaml.safe_dump(config_to_dict(cfg), sort_keys=False))
        loaded = config_from_dict(doc)
        assert config_to_dict(loaded) == config_to_dict(cfg)
        assert config_digest(loaded) == config_digest(cfg)

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
            {"cameras": [camera_doc(camera_id=70000)]},
            {"cameras": [camera_doc(camera_id=-1)]},
            {"cameras": [camera_doc(focal_px=700.0)]},
            {"cameras": [camera_doc(camera_id="0")]},
            {"cameras": [camera_doc(camera_id=1.7)]},
            {"cameras": [camera_doc(camera_id=True)]},
            {"cameras": [camera_doc(image_size=[1152.5, 640])]},
            {"cameras": [camera_doc(translation=[float("nan"), 18.0, 13.0])]},
            {"cameras": [camera_doc(intrinsics=[[float("inf"), 0, 576], [0, 700, 320], [0, 0, 1]])]},
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
            {"policy": {"train_interval": 0}},
            {"compression_factor": 0},
            {"network": {"bandwidth_bytes_per_s": 0}},
            {"detector": {"p_miss": 1.5}},
            {"detector": {"p_miss": float("nan")}},
            {"detector": {"v_min": -0.1}},
            {"detector": {"sigma_px": -1.0}},
            {"detector": {"fp_rate": -1}},
            {"detector": {"fp_rate": 708.5}},
            {"detector": {"fp_rate": float("inf")}},
            {"detector": {"min_box_height_px": -1.0}},
            {"tracker": {"measurement_noise": -1}},
            {"tracker": {"process_noise": -1.0}},
            {"tracker": {"init_velocity_var": -1.0}},
            {"tracker": {"max_misses": -1}},
            {"policy": {"p_floor": 0.7}},
            {"policy": {"p_floor": 0.5}},
            {"policy": {"p_floor": 0}},
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
            "camera-unknown-key",
            "camera-id-string",
            "camera-id-float",
            "camera-id-bool",
            "camera-image-size-float",
            "camera-translation-nan",
            "camera-intrinsics-inf",
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
            "train-interval-zero",
            "compression-factor-zero",
            "bandwidth-zero",
            "p-miss-above-one",
            "p-miss-nan",
            "v-min-negative",
            "sigma-px-negative",
            "fp-rate-negative",
            "fp-rate-past-708",
            "fp-rate-inf",
            "min-box-height-negative",
            "measurement-noise-negative",
            "process-noise-negative",
            "init-velocity-var-negative",
            "max-misses-negative",
            "p-floor-above-half",
            "p-floor-half",
            "p-floor-zero",
        ],
    )
    def test_malformed_documents_are_config_errors(self, doc):
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_fp_rate_bound_is_inclusive(self):
        assert config_from_dict({"detector": {"fp_rate": 708}}).detector.fp_rate == 708

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
        cam1 = config_to_dict(RunConfig())["cameras"][1]
        with pytest.raises(ConfigError, match="image size"):
            config_from_dict({"cameras": [camera_doc(image_size=[640, 480]), cam1]})

    def test_calibration_file_schema(self, tmp_path):
        # a rig of one calibration document, written and read as YAML
        cam = default_cameras()[2]
        path = tmp_path / "cam2.yaml"
        with open(path, "w") as fh:
            yaml.safe_dump(config_to_dict(RunConfig(cameras=(cam,)))["cameras"][0], fh)
        with open(path) as fh:
            (loaded,) = config_from_dict({"cameras": [yaml.safe_load(fh)]}).cameras
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
        "full": "a0033d3ed2404f7aba75ca8f5bb1113a9f4fdb5f5731f8b5504f4d79b855cfa5",
        "mvsparse": "d22ac6384b40cdcb2a10dbb703e49467db756dd473fb81cd687dfd3a21bdfe88",
        "blockcopy": "3a936bf8cadf48bef501fbddd9c6e21b8df7959dc3fe82afacadcc29c452fd57",
        "static_mask": "59e05531046a0bd9208c9d0d0fb72c582f7cbe1ddbedcf7aab905915b8acc32e",
        "oracle": "c858eb56fd620d00e9c536f0cc00069f3ffab9a18c38b28aec249c74fe9288c0",
    }

    @pytest.mark.parametrize("mode", sorted(PINNED_DIGESTS))
    def test_report_digest_is_pinned(self, mode):
        report = run_sim(RunConfig(mode=mode, frames=40, seed=11))
        digest = hashlib.sha256(dumps_report(report).encode()).hexdigest()
        assert digest == self.PINNED_DIGESTS[mode]

    @pytest.mark.parametrize("mode", sorted(PINNED_DIGESTS))
    def test_report_digest_holds_under_the_compensated_sum(self, mode, monkeypatch):
        # Python 3.12's sum() rounds float sums differently; a report must
        # not depend on the Python that ran it
        monkeypatch.setattr(builtins, "sum", cpython312_sum)
        report = run_sim(RunConfig(mode=mode, frames=40, seed=11))
        monkeypatch.undo()
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

    def test_report_totals_are_the_series_means(self):
        # the per-frame series are the run's only count of frames, blocks
        # and bytes; a run that completed no frame reports None ratios
        empty = ServerEngine(small_cfg()).report()
        assert empty["completed_frames"] == empty["scores"]["frames"] == 0
        for key in ("blocks_per_frame_total", "blocks_per_camera_frame", "bytes_per_frame"):
            assert empty["scores"][key] is None
        for mode in MODES:
            cfg = small_cfg(mode=mode, frames=5)
            report = run_sim(cfg)
            scores, series = report["scores"], report["series"]
            blocks, traffic = series["blocks"], series["bytes"]
            n = len(blocks)
            assert report["completed_frames"] == scores["frames"] == n == len(traffic) == 5
            assert scores["blocks_per_frame_total"] == sum(blocks) / n
            assert scores["blocks_per_camera_frame"] == sum(blocks) / (n * len(cfg.cameras))
            assert scores["bytes_per_frame"] == sum(traffic) / n
            assert report["resources"]["mb_per_frame"] == scores["bytes_per_frame"] / 1e6

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

    def test_trajectory_replays_each_frame_by_its_id(self, tmp_path):
        # run frame 1 has no records, so it replays no walkers
        traj = tmp_path / "gap.txt"
        traj.write_text("0 0 5.0 6.0\n2 1 4.0 8.0\n")
        cfg = small_cfg(mode="full", frames=3).with_overrides(trajectories=str(traj))
        report = run_sim(cfg)
        assert report["completed_frames"] == 3
        assert report["scores"]["gt_total"] == 2

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
                candidates[cam_id] = rt.candidate_detections(gts[cam_id], t)
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
