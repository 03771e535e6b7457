from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsparse import rng as rngmod
from mvsparse.detector import (
    Detection,
    DetectorConfig,
    DimensionMismatch,
    ViewState,
    fuse_ground_plane,
    simulate_view_detections,
)
from mvsparse.association import Cluster
from mvsparse.geometry import BBox, BlockGrid, GroundPoint, camera_from_pose
from mvsparse.scene import Pedestrian, SceneFrame, ground_truth_view
from test_geometry import blocks_for_bbox
from test_rng import reference_uniforms

PERFECT = DetectorConfig(sigma_px=0.0, p_miss=0.0, fp_rate=0.0, min_box_height_px=0.0)


def make_cam(cam_id=0):
    return camera_from_pose(cam_id, (-4.0, -4.0, 9.0), 45.0, 30.0, 750.0, (1152, 640))


def walker(pid, x, y, vx=0.0, vy=0.0):
    speed = (vx * vx + vy * vy) ** 0.5
    wp = GroundPoint(x + vx * 100, y + vy * 100) if speed else GroundPoint(x, y)
    return Pedestrian(pid, GroundPoint(x, y), (vx, vy), wp)


def gt_for(scene, cam):
    return ground_truth_view(scene, cam)


class TestSimulateViewDetections:
    def test_perfect_limit_reproduces_gt_boxes(self):
        cam = make_cam()
        grid = BlockGrid.for_image(1152, 640, 128)
        scene = SceneFrame(0, (walker(0, 4.0, 4.0), walker(1, 7.0, 9.0)))
        gt = gt_for(scene, cam)
        assert len(gt) == 2
        vs = ViewState.initial(cam, grid, seed=3)
        dets, _ = simulate_view_detections(vs, np.ones(grid.shape), gt, 0, PERFECT)
        assert len(dets) == 2
        got = {d.bbox for d in dets}
        assert got == {box for _, box, _ in gt}
        assert all(not d.stale for d in dets)

    def test_box_past_a_block_edge_by_a_sliver_is_fresh_in_that_block(self):
        # the box's pixel span reaches pixel column 128, so a fresh block
        # column 1 alone refreshes it
        cam = make_cam()
        grid = BlockGrid.for_image(1152, 640, 128)
        box = BBox(10, 100, 118.0000000001, 60)
        actions = np.zeros(grid.shape)
        actions[:, 1] = 1
        vs = ViewState.initial(cam, grid, seed=3)
        dets, _ = simulate_view_detections(vs, actions, ((0, box, 1.0),), 0, PERFECT)
        assert [(d.bbox, d.stale) for d in dets] == [(box, False)]

    def test_no_actions_ever_means_no_detections(self):
        cam = make_cam()
        grid = BlockGrid.for_image(1152, 640, 128)
        scene = SceneFrame(0, (walker(0, 4.0, 4.0),))
        vs = ViewState.initial(cam, grid, seed=3)
        zeros = np.zeros(grid.shape)
        for t in range(4):
            dets, vs = simulate_view_detections(vs, zeros, gt_for(scene, cam), t, PERFECT)
            assert len(dets) == 0

    def test_stale_replay_of_captured_box(self):
        cam = make_cam()
        grid = BlockGrid.for_image(1152, 640, 128)
        scene = SceneFrame(0, (walker(0, 4.0, 4.0),))
        gt = gt_for(scene, cam)
        vs = ViewState.initial(cam, grid, seed=3)
        zeros = np.zeros(grid.shape)
        for t in range(3):
            dets, vs = simulate_view_detections(vs, zeros, gt, t, PERFECT)
        dets3, vs = simulate_view_detections(vs, np.ones(grid.shape), gt, 3, PERFECT)
        assert len(dets3) == 1 and not dets3[0].stale
        captured = dets3[0].bbox
        for t in range(4, 7):
            dets, vs = simulate_view_detections(vs, zeros, gt, t, PERFECT)
            assert len(dets) == 1
            assert dets[0].stale
            assert dets[0].bbox == captured
            assert dets[0] == replace(dets3[0], stale=True)

    def test_refreshing_blocks_after_departure_clears_the_ghost(self):
        cam = make_cam()
        grid = BlockGrid.for_image(1152, 640, 128)
        here = SceneFrame(0, (walker(0, 4.0, 4.0),))
        gt_here = gt_for(here, cam)
        vs = ViewState.initial(cam, grid, seed=3)
        dets, vs = simulate_view_detections(vs, np.ones(grid.shape), gt_here, 0, PERFECT)
        assert len(dets) == 1
        # walker moves far away, its old blocks get re-executed: the stored
        # detection must not survive
        there = SceneFrame(1, (walker(0, 10.0, 14.0),))
        gt_there = gt_for(there, cam)
        dets, vs = simulate_view_detections(vs, np.ones(grid.shape), gt_there, 1, PERFECT)
        assert all(d.ground.distance_to(GroundPoint(10.0, 14.0)) < 0.5 for d in dets)
        # now nothing is processed and the walker is out of detector memory
        # for its old spot: no detection may appear there
        dets, vs = simulate_view_detections(vs, np.zeros(grid.shape), gt_there, 2, PERFECT)
        for d in dets:
            assert d.ground.distance_to(GroundPoint(4.0, 4.0)) > 1.0

    def test_full_actions_equivalent_regardless_of_history(self):
        cam = make_cam()
        grid = BlockGrid.for_image(1152, 640, 128)
        cfg = DetectorConfig(sigma_px=2.0, p_miss=0.2, fp_rate=0.5, min_box_height_px=0.0)
        scene = SceneFrame(0, (walker(0, 4.0, 4.0), walker(1, 7.0, 9.0), walker(2, 2.0, 8.0)))
        gt = gt_for(scene, cam)
        rng = np.random.default_rng(9)

        vs_a = ViewState.initial(cam, grid, seed=3)
        vs_b = ViewState.initial(cam, grid, seed=3)
        for t in range(5):
            random_actions = (rng.random(grid.shape) < 0.3).astype(np.uint8)
            _, vs_a = simulate_view_detections(vs_a, random_actions, gt, t, cfg)
            _, vs_b = simulate_view_detections(vs_b, np.ones(grid.shape), gt, t, cfg)
        dets_a, _ = simulate_view_detections(vs_a, np.ones(grid.shape), gt, 5, cfg)
        dets_b, _ = simulate_view_detections(vs_b, np.ones(grid.shape), gt, 5, cfg)
        assert dets_a == dets_b

    def test_monotone_information_under_more_actions(self):
        cam = make_cam()
        grid = BlockGrid.for_image(1152, 640, 128)
        scene0 = SceneFrame(0, (walker(0, 4.0, 4.0, vx=0.5), walker(1, 7.0, 9.0, vy=0.5)))
        scene1 = SceneFrame(1, tuple(
            Pedestrian(p.person_id, GroundPoint(p.position.x + p.velocity[0], p.position.y + p.velocity[1]),
                       p.velocity, p.waypoint) for p in scene0.pedestrians))
        rng = np.random.default_rng(11)
        vs_small = ViewState.initial(cam, grid, seed=5)
        vs_big = ViewState.initial(cam, grid, seed=5)
        small0 = (rng.random(grid.shape) < 0.4).astype(np.uint8)
        big0 = np.maximum(small0, (rng.random(grid.shape) < 0.4).astype(np.uint8))
        _, vs_small = simulate_view_detections(vs_small, small0, gt_for(scene0, cam), 0, PERFECT)
        _, vs_big = simulate_view_detections(vs_big, big0, gt_for(scene0, cam), 0, PERFECT)
        small1 = (rng.random(grid.shape) < 0.4).astype(np.uint8)
        big1 = np.maximum(small1, (rng.random(grid.shape) < 0.4).astype(np.uint8))
        dets_small, _ = simulate_view_detections(vs_small, small1, gt_for(scene1, cam), 1, PERFECT)
        dets_big, _ = simulate_view_detections(vs_big, big1, gt_for(scene1, cam), 1, PERFECT)
        gt_pos = {p.person_id: p.position for p in scene1.pedestrians}
        # every identity reported under the smaller action set is reported
        # under the larger one, at an error no worse
        for d_small in dets_small:
            err_small = min(d_small.ground.distance_to(g) for g in gt_pos.values())
            candidates = [d for d in dets_big if d.ground.distance_to(d_small.ground) < 2.0]
            assert candidates
            err_big = min(
                min(d.ground.distance_to(g) for g in gt_pos.values()) for d in candidates
            )
            assert err_big <= err_small + 1e-9

    def test_staleness_positional_error_bound(self):
        cam = make_cam()
        grid = BlockGrid.for_image(1152, 640, 128)
        speed, dt = 1.0, 1.0 / 30.0
        vs = ViewState.initial(cam, grid, seed=3)
        scene = SceneFrame(0, (walker(0, 4.0, 4.0, vx=speed),))
        dets, vs = simulate_view_detections(vs, np.ones(grid.shape), gt_for(scene, cam), 0, PERFECT)
        zeros = np.zeros(grid.shape)
        pos = GroundPoint(4.0, 4.0)
        for k in range(1, 12):
            pos = GroundPoint(4.0 + speed * dt * k, 4.0)
            moved = SceneFrame(k, (Pedestrian(0, pos, (speed, 0.0), GroundPoint(100, 4)),))
            dets, vs = simulate_view_detections(vs, zeros, gt_for(moved, cam), k, PERFECT)
            if not dets:
                break
            assert dets[0].stale
            err = dets[0].ground.distance_to(pos)
            assert err <= speed * dt * k + 0.2  # projection discretization slack

    def test_false_positives_only_in_fresh_blocks(self):
        cam = make_cam()
        grid = BlockGrid.for_image(1152, 640, 128)
        cfg = DetectorConfig(sigma_px=0.0, p_miss=0.0, fp_rate=8.0, min_box_height_px=36.0)
        empty = SceneFrame(0, ())
        actions = np.zeros(grid.shape, dtype=np.uint8)
        actions[2, 3] = 1
        actions[4, 7] = 1
        vs = ViewState.initial(cam, grid, seed=3)
        dets, _ = simulate_view_detections(vs, actions, gt_for(empty, cam), 0, cfg)
        assert dets  # with rate 8 the draw is essentially never zero
        for d in dets:
            cx = d.bbox.x + d.bbox.w / 2
            cy = d.bbox.y + d.bbox.h / 2
            block = (int(cy // 128), int(cx // 128))
            assert actions[block] == 1

    def test_noise_model_matches_the_config(self):
        # 4000 fresh draws of one box well inside the image: the miss rate is
        # p_miss and each edge moves by a normal of std sigma_px
        cam = make_cam()
        grid = BlockGrid.for_image(1152, 640, 128)
        cfg = DetectorConfig(fp_rate=0.0)
        box = gt_for(SceneFrame(0, (walker(0, 4.0, 4.0),)), cam)[0][1]
        assert box.x > 50 and box.y > 50 and box.x + box.w < 1100 and box.y + box.h < 590
        gt = tuple((pid, box, 1.0) for pid in range(1000))
        vs = ViewState.initial(cam, grid, seed=3)
        lefts = []
        for t in range(4):
            dets, vs = simulate_view_detections(vs, np.ones(grid.shape), gt, t, cfg)
            lefts += [d.bbox.x - box.x for d in dets]
        assert abs(1.0 - len(lefts) / 4000 - cfg.p_miss) < 0.01
        assert abs(np.mean(lefts)) < 0.1 * cfg.sigma_px
        assert abs(np.std(lefts) / cfg.sigma_px - 1.0) < 0.05

    def test_dimension_mismatch(self):
        cam = make_cam()
        grid = BlockGrid.for_image(1152, 640, 128)
        vs = ViewState.initial(cam, grid, seed=3)
        with pytest.raises(DimensionMismatch):
            simulate_view_detections(vs, np.ones((3, 3)), gt_for(SceneFrame(0, ()), cam), 0, PERFECT)

    def test_min_height_filters_far_walkers(self):
        cam = make_cam()
        grid = BlockGrid.for_image(1152, 640, 128)
        scene = SceneFrame(0, (walker(0, 4.0, 4.0),))
        gt = gt_for(scene, cam)
        taller_than_box = gt[0][1].h + 1
        cfg = DetectorConfig(sigma_px=0.0, p_miss=0.0, fp_rate=0.0, min_box_height_px=taller_than_box)
        vs = ViewState.initial(cam, grid, seed=3)
        dets, _ = simulate_view_detections(vs, np.ones(grid.shape), gt, 0, cfg)
        assert len(dets) == 0


class TestFuseGroundPlane:
    def _det(self, cam_id, x, y):
        from mvsparse.detector import Detection
        from mvsparse.geometry import BBox

        return Detection(cam_id, BBox(0, 0, 10, 20), GroundPoint(x, y), False)

    def test_singleton_cluster_keeps_its_point(self):
        assert fuse_ground_plane([Cluster([self._det(0, 3.0, 4.0)])]) == [GroundPoint(3.0, 4.0)]

    def test_two_member_mean(self):
        fused = fuse_ground_plane([Cluster([self._det(0, 0.0, 0.0), self._det(1, 0.2, 0.0)])])
        assert fused == [GroundPoint(0.1, 0.0)]

    def test_empty_cluster_list(self):
        assert fuse_ground_plane([]) == []


def _reference_ground(cam, box):
    """Per-detection ground solve, as the detector did it before the stack."""
    d_cam = np.linalg.solve(cam.intrinsics, np.array([box.x + box.w / 2.0, box.y + box.h, 1.0]))
    d_world = cam.rotation.T @ d_cam
    if abs(d_world[2]) < 1e-12:
        return None
    s = -cam.translation[2] / d_world[2]
    if s <= 0:
        return None
    hit = cam.translation + s * d_world
    return GroundPoint(hit[0], hit[1])


def reference_simulate_view_detections(vs, actions, gt, frame_id, cfg):
    """The detector one entity at a time: the scalar reference draws per
    fresh walker, cell sets for the block tests and a ground solve per
    detection. The array detector must give the same detections and state."""
    cam = vs.camera
    fresh = np.asarray(actions).astype(bool)
    last_refresh = vs.last_refresh.copy()
    last_refresh[fresh] = frame_id
    stale = {}
    for pid, (captured, det) in vs.stale_detections.items():
        if all(last_refresh[b] <= captured for b in blocks_for_bbox(vs.grid, det.bbox)):
            stale[pid] = (captured, det)
    detections = []
    for pid, box, visibility in gt:
        if visibility < cfg.v_min or box.h < cfg.min_box_height_px:
            continue
        if any(fresh[b] for b in blocks_for_bbox(vs.grid, box)):
            u = reference_uniforms(vs.seed, (rngmod.DETECT, cam.camera_id, frame_id), pid, 5)
            missed = u[0] < cfg.p_miss
            noise = rngmod.normals(np.array([u[1:]]))[0] * cfg.sigma_px
            if missed:
                continue
            noisy = BBox(
                box.x + noise[0],
                box.y + noise[1],
                max(2.0, box.w + (noise[2] - noise[0])),
                max(2.0, box.h + (noise[3] - noise[1])),
            ).clamped(cam.width, cam.height)
            if noisy is None:
                continue
            ground = _reference_ground(cam, noisy)
            if ground is None:
                continue
            det = Detection(cam.camera_id, noisy, ground, stale=False)
            detections.append(det)
            stale[pid] = (frame_id, det)
        elif pid in stale:
            detections.append(replace(stale[pid][1], stale=True))
    if cfg.fp_rate > 0:
        fresh_blocks = np.argwhere(fresh)
        if len(fresh_blocks):
            key = (rngmod.DETECT_FP, cam.camera_id, frame_id)
            count = rngmod.poisson_quantile(reference_uniforms(vs.seed, key, 0, 1)[0], cfg.fp_rate)
            for k in range(1, count + 1):
                ub, ux, uy, uw, uh = reference_uniforms(vs.seed, key, k, 5)
                r, c = fresh_blocks[min(int(ub * len(fresh_blocks)), len(fresh_blocks) - 1)]
                x0, y0, x1, y1 = vs.grid.block_extent(int(r), int(c))
                cx = x0 + (x1 - x0) * ux
                cy = y0 + (y1 - y0) * uy
                w = 16.0 + (48.0 - 16.0) * uw
                h = cfg.min_box_height_px + 70.0 * uh
                box = BBox(cx - w / 2.0, cy - h / 2.0, w, h).clamped(cam.width, cam.height)
                if box is None:
                    continue
                ground = _reference_ground(cam, box)
                if ground is None:
                    continue
                detections.append(Detection(cam.camera_id, box, ground, stale=False))
    new_state = ViewState(cam, vs.grid, vs.seed, last_refresh, stale)
    return tuple(detections), new_state


_walkers = st.lists(
    st.tuples(st.floats(-2.0, 14.0), st.floats(-2.0, 20.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    max_size=12,
)
_configs = st.builds(
    DetectorConfig,
    v_min=st.sampled_from([0.0, 0.25, 0.9]),
    sigma_px=st.sampled_from([0.0, 2.0, 40.0]),
    p_miss=st.sampled_from([0.0, 0.3]),
    fp_rate=st.sampled_from([0.0, 0.5, 4.0]),
    min_box_height_px=st.sampled_from([0.0, 36.0]),
)


@settings(max_examples=150, deadline=None)
@given(
    _walkers,
    _configs,
    st.integers(0, 2**40),
    st.integers(0, 3),
    st.lists(st.sampled_from([0.0, 0.2, 0.6, 1.0]), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_array_detector_equals_the_reference(walkers, cfg, seed, cam_id, densities, action_seed):
    # walkers near the arena corner leave the view or cross the image
    # borders, and large jitter pushes boxes past them
    cam = camera_from_pose(cam_id, (-4.0, -4.0, 9.0), 45.0, 30.0, 750.0, (1152, 640))
    grid = BlockGrid.for_image(1152, 640, 128)
    arng = np.random.default_rng(action_seed)
    got_vs = want_vs = ViewState.initial(cam, grid, seed)
    for t, density in enumerate(densities):
        peds = tuple(
            walker(pid, x + vx * t, y + vy * t, vx, vy) for pid, (x, y, vx, vy) in enumerate(walkers)
        )
        gt = gt_for(SceneFrame(t, peds), cam)
        actions = (arng.random(grid.shape) < density).astype(np.uint8)
        got, got_vs = simulate_view_detections(got_vs, actions, gt, t, cfg)
        want, want_vs = reference_simulate_view_detections(want_vs, actions, gt, t, cfg)
        assert got == want
        assert np.array_equal(got_vs.last_refresh, want_vs.last_refresh)
        assert got_vs.stale_detections == want_vs.stale_detections
