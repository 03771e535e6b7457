import numpy as np
import pytest

from mvsparse.geometry import GroundPoint, camera_from_pose
from mvsparse.scene import (
    Arena,
    BACKGROUND,
    DuplicateIdentity,
    ParseError,
    Pedestrian,
    SceneConfig,
    SceneFrame,
    ground_truth_view,
    init_scene,
    load_trajectories,
    project_pedestrian_box,
    render_view_image,
    step_scene,
)
from test_geometry import intersection_area, project_image_to_ground


def arena_contains(arena: Arena, p: GroundPoint) -> bool:
    return arena.x_min <= p.x <= arena.x_max and arena.y_min <= p.y <= arena.y_max


def make_ped(pid, x, y, wx, wy, speed=1.0):
    pos, wp = GroundPoint(x, y), GroundPoint(wx, wy)
    dist = pos.distance_to(wp)
    vel = (0.0, 0.0) if dist < 1e-12 else (speed * (wx - x) / dist, speed * (wy - y) / dist)
    return Pedestrian(pid, pos, vel, wp)


class TestStepScene:
    def test_linear_motion(self):
        cfg = SceneConfig()
        scene = SceneFrame(0, (make_ped(0, 0, 0, 10, 0, speed=1.0),))
        nxt = step_scene(scene, 0.5, np.random.default_rng(0), cfg)
        assert nxt.pedestrians[0].position == GroundPoint(0.5, 0.0)
        assert nxt.frame_id == 1

    def test_arrival_resamples_waypoint_without_moving(self):
        cfg = SceneConfig()
        scene = SceneFrame(0, (make_ped(0, 3.0, 3.0, 3.0, 3.05),))
        nxt = step_scene(scene, 0.5, np.random.default_rng(1), cfg)
        ped = nxt.pedestrians[0]
        assert ped.position == GroundPoint(3.0, 3.0)
        assert ped.waypoint != GroundPoint(3.0, 3.05)
        assert arena_contains(cfg.arena, ped.waypoint)

    def test_empty_scene(self):
        nxt = step_scene(SceneFrame(4, ()), 0.5, np.random.default_rng(2), SceneConfig())
        assert nxt.frame_id == 5
        assert nxt.pedestrians == ()

    def test_deterministic_for_fixed_seed(self):
        cfg = SceneConfig(n_pedestrians=8)

        def run():
            rng = np.random.default_rng(42)
            scene = init_scene(cfg, rng)
            out = []
            for _ in range(50):
                scene = step_scene(scene, 1 / 30, rng, cfg)
                out.append([(p.position.x, p.position.y) for p in scene.pedestrians])
            return out

        assert run() == run()

    def test_continuity_bound(self):
        cfg = SceneConfig(n_pedestrians=12)
        rng = np.random.default_rng(5)
        scene = init_scene(cfg, rng)
        dt = 1 / 30
        for _ in range(200):
            nxt = step_scene(scene, dt, rng, cfg)
            for a, b in zip(scene.pedestrians, nxt.pedestrians):
                assert a.position.distance_to(b.position) <= cfg.max_speed * dt + 1e-9
            scene = nxt

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            step_scene(SceneFrame(0, ()), 0.0, np.random.default_rng(0), SceneConfig())


class TestGroundTruthView:
    def test_single_pedestrian_fully_visible(self):
        cam = camera_from_pose(0, (0, 0, 5), 0.0, 30.0, 700.0, (1152, 640))
        scene = SceneFrame(0, (make_ped(0, 8.0, 0.0, 9.0, 0.0),))
        view = ground_truth_view(scene, cam)
        assert len(view) == 1
        pid, box, vis = view[0]
        assert pid == 0
        assert vis == 1.0
        assert box.w > 0 and box.h > 0

    def test_occlusion_reduces_far_visibility(self):
        cam = camera_from_pose(0, (0, 0, 5), 0.0, 25.0, 700.0, (1152, 640))
        near = make_ped(0, 8.0, 0.0, 9.0, 0.0)
        far = make_ped(1, 10.5, 0.0, 11.0, 0.0)
        view = ground_truth_view(SceneFrame(0, (near, far)), cam)
        vis = {pid: v for pid, _, v in view}
        assert vis[1] < 1.0
        assert vis[1] < vis[0]
        # independent oracle: rectangle overlap of the two projected boxes
        box_near = project_pedestrian_box(cam, near)[0]
        box_far = project_pedestrian_box(cam, far)[0]
        expected = 1.0 - intersection_area(box_near, box_far) / box_far.area
        assert vis[1] == pytest.approx(expected, abs=0.05)

    def test_pedestrian_behind_camera_omitted(self):
        cam = camera_from_pose(0, (0, 0, 5), 0.0, 30.0, 700.0, (1152, 640))
        scene = SceneFrame(0, (make_ped(0, -5.0, 0.0, -6.0, 0.0),))
        assert ground_truth_view(scene, cam) == ()

    def test_equal_depth_walkers_do_not_occlude(self):
        cam = camera_from_pose(0, (0, 0, 5), 0.0, 30.0, 700.0, (1152, 640))
        scene = SceneFrame(0, (make_ped(0, 8.0, 0.3, 9, 0.3), make_ped(1, 8.0, -0.3, 9, -0.3)))
        view = ground_truth_view(scene, cam)
        assert all(v == 1.0 for _, _, v in view)

    def test_foot_point_consistent_with_ground_position(self):
        cam = camera_from_pose(0, (-4, -4, 9), 45.0, 30.0, 750.0, (1152, 640))
        rng = np.random.default_rng(7)
        cfg = SceneConfig(n_pedestrians=15)
        scene = init_scene(cfg, rng)
        view = ground_truth_view(scene, cam)
        pos = {p.person_id: p.position for p in scene.pedestrians}
        assert view
        for pid, box, _ in view:
            ground = project_image_to_ground(cam, box.foot)
            assert ground.distance_to(pos[pid]) < 0.2

    def test_duplicate_person_ids_rejected(self):
        with pytest.raises(ValueError):
            SceneFrame(0, (make_ped(0, 1, 1, 2, 2), make_ped(0, 3, 3, 4, 4)))


class TestRenderViewImage:
    def test_renders_walkers_on_flat_background(self):
        cam = camera_from_pose(0, (0, 0, 5), 0.0, 30.0, 700.0, (1152, 640))
        empty = render_view_image(SceneFrame(0, ()), cam)
        assert empty.rects == ()  # all background
        scene = SceneFrame(0, (make_ped(0, 8.0, 0.0, 9.0, 0.0),))
        img = render_view_image(scene, cam)
        assert (img.width, img.height) == (1152, 640)
        assert sum(
            (x1 - x0) * (y1 - y0) for v, x0, y0, x1, y1 in img.rects if v != BACKGROUND
        ) > 0
        for _, x0, y0, x1, y1 in img.rects:
            assert 0 <= x0 < x1 <= 1152 and 0 <= y0 < y1 <= 640

    def test_nearest_walker_painted_last(self):
        cam = camera_from_pose(0, (0, 0, 5), 0.0, 30.0, 700.0, (1152, 640))
        scene = SceneFrame(0, (make_ped(0, 6.0, 0.0, 7, 0), make_ped(1, 9.0, 0.0, 10, 0)))
        far_first = [v for v, *_ in render_view_image(scene, cam).rects]
        assert far_first == [80 + 37, 80]

    def test_deterministic(self):
        cam = camera_from_pose(0, (0, 0, 5), 0.0, 30.0, 700.0, (1152, 640))
        scene = SceneFrame(0, (make_ped(0, 8.0, 0.5, 9.0, 0.5), make_ped(1, 6.0, -1.0, 7, -1)))
        assert render_view_image(scene, cam) == render_view_image(scene, cam)


class TestLoadTrajectories:
    def test_two_line_file(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("0 1 1.0 2.0\n1 1 1.1 2.0\n")
        frames = load_trajectories(str(path))
        assert len(frames) == 2
        assert frames[0].frame_id == 0 and len(frames[0].pedestrians) == 1
        assert frames[1].pedestrians[0].position == GroundPoint(1.1, 2.0)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert load_trajectories(str(path)) == []

    def test_duplicate_identity(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("0 1 1.0 2.0\n0 1 1.5 2.5\n")
        with pytest.raises(DuplicateIdentity):
            load_trajectories(str(path))

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 1.0 2.0\n0 2 oops 2.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_trajectories(str(path))

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("0 1 1.0\n")
        with pytest.raises(ParseError, match="4 fields"):
            load_trajectories(str(path))

    def test_frames_sorted_and_comments_skipped(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text("# header\n5 1 0.0 0.0\n\n2 1 1.0 1.0\n")
        frames = load_trajectories(str(path))
        assert [f.frame_id for f in frames] == [2, 5]


class TestArena:
    def test_clamp_and_contains(self):
        arena = Arena(0, 12, 0, 36)
        assert arena.clamp(-1, 40) == (0, 36)
        assert arena_contains(arena, GroundPoint(5, 5))
        assert not arena_contains(arena, GroundPoint(-0.1, 5))
