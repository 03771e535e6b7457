import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvsparse import scene as scene_mod
from mvsparse.geometry import BBox, GroundPoint, camera_from_pose
from mvsparse.runtime.config import default_cameras
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
        nxt = step_scene(scene, 0.5, 0, cfg)
        assert nxt.pedestrians[0].position == GroundPoint(0.5, 0.0)
        assert nxt.frame_id == 1

    def test_arrival_resamples_waypoint_without_moving(self):
        cfg = SceneConfig()
        scene = SceneFrame(0, (make_ped(0, 3.0, 3.0, 3.0, 3.05),))
        nxt = step_scene(scene, 0.5, 1, cfg)
        ped = nxt.pedestrians[0]
        assert ped.position == GroundPoint(3.0, 3.0)
        assert ped.waypoint != GroundPoint(3.0, 3.05)
        assert arena_contains(cfg.arena, ped.waypoint)

    def test_empty_scene(self):
        nxt = step_scene(SceneFrame(4, ()), 0.5, 2, SceneConfig())
        assert nxt.frame_id == 5
        assert nxt.pedestrians == ()

    def test_deterministic_for_fixed_seed(self):
        cfg = SceneConfig(n_pedestrians=8)

        def run():
            scene = init_scene(cfg, 42)
            out = []
            for _ in range(50):
                scene = step_scene(scene, 1 / 30, 42, cfg)
                out.append([(p.position.x, p.position.y) for p in scene.pedestrians])
            return out

        assert run() == run()

    def test_continuity_bound(self):
        cfg = SceneConfig(n_pedestrians=12)
        scene = init_scene(cfg, 5)
        dt = 1 / 30
        for _ in range(200):
            nxt = step_scene(scene, dt, 5, cfg)
            for a, b in zip(scene.pedestrians, nxt.pedestrians):
                assert a.position.distance_to(b.position) <= cfg.max_speed * dt + 1e-9
            scene = nxt

    def test_a_walkers_path_does_not_depend_on_the_other_walkers(self):
        # walkers 0-6 of a 7-walker and a 20-walker scene, bit for bit,
        # through waypoint redraws of both the shared and the extra walkers
        small_cfg, large_cfg = SceneConfig(n_pedestrians=7), SceneConfig(n_pedestrians=20)
        small, large = init_scene(small_cfg, 11), init_scene(large_cfg, 11)
        redraws = 0
        for _ in range(300):
            assert large.pedestrians[:7] == small.pedestrians
            nxt = step_scene(small, 1 / 30, 11, small_cfg)
            redraws += sum(a.waypoint != b.waypoint for a, b in zip(small.pedestrians, nxt.pedestrians))
            small, large = nxt, step_scene(large, 1 / 30, 11, large_cfg)
        assert large.pedestrians[:7] == small.pedestrians
        assert redraws > 0

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            step_scene(SceneFrame(0, ()), 0.0, 0, SceneConfig())


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
        cfg = SceneConfig(n_pedestrians=15)
        scene = init_scene(cfg, 7)
        view = ground_truth_view(scene, cam)
        pos = {p.person_id: p.position for p in scene.pedestrians}
        assert view
        for pid, box, _ in view:
            ground = project_image_to_ground(cam, box.foot)
            assert ground.distance_to(pos[pid]) < 0.2

    def test_duplicate_person_ids_rejected(self):
        with pytest.raises(ValueError):
            SceneFrame(0, (make_ped(0, 1, 1, 2, 2), make_ped(0, 3, 3, 4, 4)))


def reference_ground_truth_view(scene, cam):
    """``ground_truth_view`` on a raster, as the program counted occlusion
    before span cells: paint each depth group's pixel spans onto a
    camera-sized boolean canvas in turn, and read a walker's covered
    fraction as the mean of its span's region before its own group is
    painted (an empty region counts as covered)."""
    projected = scene_mod._project_all(scene, cam)
    if not projected:
        return ()
    canvas = np.zeros((cam.height, cam.width), dtype=bool)
    visibility = {}
    by_depth = sorted(projected, key=lambda e: e[2])
    i = 0
    while i < len(by_depth):
        j = i
        while j < len(by_depth) and by_depth[j][2] <= by_depth[i][2] + 1e-12:
            j += 1
        group = by_depth[i:j]
        for pid, box, _ in group:
            x0, y0, x1, y1 = box.pixel_bounds(cam.width, cam.height)
            region = canvas[y0:y1, x0:x1]
            visibility[pid] = 1.0 - (float(region.mean()) if region.size else 1.0)
        for pid, box, _ in group:
            x0, y0, x1, y1 = box.pixel_bounds(cam.width, cam.height)
            canvas[y0:y1, x0:x1] = True
        i = j
    return tuple((pid, box, visibility[pid]) for pid, box, _ in projected)


def assert_views_equal(got, want):
    assert got == want
    assert all(type(vis) is float for _, _, vis in got)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_span_cell_occlusion_equals_the_canvas_on_a_crowd(seed):
    cfg = SceneConfig(n_pedestrians=60)
    scene = init_scene(cfg, seed)
    cams = default_cameras()
    for _ in range(25):
        for cam in cams:
            want = reference_ground_truth_view(scene, cam)
            assert_views_equal(ground_truth_view(scene, cam), want)
        scene = step_scene(scene, 0.1, seed, cfg)


# depths that tie within 1e-12, singly and in chains (a walker ties the
# group's first member, not the one before it), and nearer or farther ones
_depth = st.one_of(
    st.builds(
        float.__add__,
        st.sampled_from([2.0, 3.0]),
        st.sampled_from([0.0, 4e-13, 8e-13, 1e-12, 1.2e-12, 2e-12]),
    ),
    st.floats(0.5, 40.0),
)


@st.composite
def _box_sets(draw):
    """(image size, (person id, box, depth) entries). Boxes reach past the
    image border, some have empty pixel spans, and shrunken copies of
    nearer boxes make walkers that are wholly covered. No span ends left of
    or above the image: the canvas's slice would wrap that negative end
    around (``test_a_span_ending_left_of_the_image_is_empty``), and a
    projected box always starts inside the image."""
    w, h = draw(st.sampled_from([(1152, 640), (64, 48), (9, 7)]))
    lattice = st.builds(
        BBox,
        st.integers(-2, w + 2).map(float),
        st.integers(-2, h + 2).map(float),
        st.integers(1, w).map(float),
        st.integers(1, h).map(float),
    )
    free = st.builds(
        BBox,
        st.floats(-0.2 * w, 1.1 * w),
        st.floats(-0.2 * h, 1.1 * h),
        st.floats(0.01, 0.8 * w),
        st.floats(0.01, 0.8 * h),
    )
    entries = draw(st.lists(st.tuples(st.one_of(lattice, free), _depth), max_size=12))
    for i in draw(st.lists(st.integers(0, 11), max_size=3)) if entries else ():
        box, depth = entries[i % len(entries)]
        inner = BBox(box.x + 1.0, box.y + 1.0, max(0.5, box.w - 2.0), max(0.5, box.h - 2.0))
        entries.append((inner, depth + 1.0))
    entries = [
        (b, d) for b, d in entries if math.ceil(b.x + b.w) >= 0 and math.ceil(b.y + b.h) >= 0
    ]
    return (w, h), [(pid, box, depth) for pid, (box, depth) in enumerate(entries)]


@settings(max_examples=400, deadline=None)
@given(_box_sets())
@example(((1152, 640), []))
@example(((64, 48), [(0, BBox(70.0, 3.0, 5.0, 5.0), 2.0), (1, BBox(-5.5, 3.0, 5.0, 5.0), 1.0)]))
@example(
    (
        (64, 48),
        [
            (0, BBox(0.0, 0.0, 30.0, 30.0), 2.0),
            (1, BBox(10.0, 10.0, 30.0, 30.0), 2.0 + 8e-13),
            (2, BBox(20.0, 20.0, 30.0, 30.0), 2.0 + 1.6e-12),
            (3, BBox(12.0, 12.0, 4.0, 4.0), 5.0),
        ],
    )
)
def test_span_cell_occlusion_equals_the_canvas(case):
    (w, h), entries = case
    cam = camera_from_pose(0, (0, 0, 5), 0.0, 30.0, 700.0, (w, h))
    empty = SceneFrame(0, ())
    with mock.patch.object(scene_mod, "_project_all", return_value=entries):
        assert_views_equal(ground_truth_view(empty, cam), reference_ground_truth_view(empty, cam))


def test_a_span_ending_left_of_the_image_is_empty():
    # its pixel span is (0, 3, -4, 8): it has no pixels and hides none,
    # where the canvas would read and paint columns 0 to 59
    cam = camera_from_pose(0, (0, 0, 5), 0.0, 30.0, 700.0, (64, 48))
    left, behind = BBox(-9.0, 3.0, 5.0, 5.0), BBox(2.0, 2.0, 8.0, 8.0)
    entries = [(0, left, 1.0), (1, behind, 2.0)]
    with mock.patch.object(scene_mod, "_project_all", return_value=entries):
        assert ground_truth_view(SceneFrame(0, ()), cam) == ((0, left, 0.0), (1, behind, 1.0))


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
