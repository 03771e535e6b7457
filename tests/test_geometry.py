import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsparse.geometry import (
    BBox,
    BehindCamera,
    BlockGrid,
    CameraModel,
    GroundPoint,
    ImagePoint,
    RayParallelToGround,
    blocks_for_bbox,
    camera_from_pose,
    project_ground_to_image,
    project_image_to_ground,
)


class TestProjectGroundToImage:
    def test_optical_axis_point_maps_to_principal_point(self, unit_camera):
        q = project_ground_to_image(unit_camera, GroundPoint(0.0, 0.0))
        assert q.u == pytest.approx(0.0, abs=1e-12)
        assert q.v == pytest.approx(0.0, abs=1e-12)

    def test_similar_triangles_at_depth_ten(self, unit_camera):
        q = project_ground_to_image(unit_camera, GroundPoint(1.0, 0.0))
        assert q.u == pytest.approx(0.1, abs=1e-12)
        assert q.v == pytest.approx(0.0, abs=1e-12)

    def test_behind_camera(self):
        cam = CameraModel(0, np.eye(3), np.eye(3), np.array([0.0, 0.0, 1.0]), (64, 64))
        with pytest.raises(BehindCamera):
            project_ground_to_image(cam, GroundPoint(0.0, 0.0))


class TestProjectImageToGround:
    def test_round_trip_ground_image_ground(self, unit_camera):
        rng = np.random.default_rng(0)
        for _ in range(200):
            g = GroundPoint(rng.uniform(-3, 3), rng.uniform(-3, 3))
            q = project_ground_to_image(unit_camera, g)
            back = project_image_to_ground(unit_camera, q)
            assert back.distance_to(g) < 1e-6

    def test_round_trip_image_ground_image_on_real_camera(self):
        cam = camera_from_pose(0, (0.0, 0.0, 5.0), 0.0, 40.0, 700.0, (1152, 640))
        rng = np.random.default_rng(1)
        for _ in range(200):
            q = ImagePoint(rng.uniform(0, 1151), rng.uniform(0, 639))
            try:
                g = project_image_to_ground(cam, q)
            except (RayParallelToGround, BehindCamera):
                continue
            q2 = project_ground_to_image(cam, g)
            assert math.hypot(q2.u - q.u, q2.v - q.v) < 1e-6

    def test_horizontal_ray(self):
        cam = camera_from_pose(0, (0.0, 0.0, 5.0), 0.0, 0.0, 700.0, (1152, 640))
        with pytest.raises(RayParallelToGround):
            project_image_to_ground(cam, ImagePoint(576.0, 320.0))

    def test_center_pixel_45_degree_pitch(self):
        # camera 5 m up, pitched 45 degrees down: optical axis meets the
        # ground exactly 5 m ahead of the footprint (tan 45 = 1)
        cam = camera_from_pose(0, (0.0, 0.0, 5.0), 0.0, 45.0, 700.0, (1152, 640))
        g = project_image_to_ground(cam, ImagePoint(576.0, 320.0))
        assert g.x == pytest.approx(5.0, abs=1e-9)
        assert g.y == pytest.approx(0.0, abs=1e-9)


class TestCameraModel:
    def test_rejects_non_orthonormal_rotation(self):
        bad = np.eye(3)
        bad[0, 1] = 1e-6
        with pytest.raises(ValueError):
            CameraModel(0, np.eye(3), bad, np.zeros(3), (8, 8))

    def test_rejects_singular_intrinsics(self):
        K = np.eye(3)
        K[0, 0] = 0.0
        with pytest.raises(ValueError):
            CameraModel(0, K, np.eye(3), np.zeros(3), (8, 8))

    def test_rejects_bad_image_size(self):
        with pytest.raises(ValueError):
            CameraModel(0, np.eye(3), np.eye(3), np.zeros(3), (0, 8))

    def test_pose_rotations_orthonormal_under_composition(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = camera_from_pose(
                0, (0, 0, 5), rng.uniform(-180, 180), rng.uniform(5, 80), 700, (64, 64)
            ).rotation
            b = camera_from_pose(
                1, (0, 0, 5), rng.uniform(-180, 180), rng.uniform(5, 80), 700, (64, 64)
            ).rotation
            c = a @ b
            assert np.allclose(c.T @ c, np.eye(3), atol=1e-9)


class TestBlockGrid:
    def test_paper_grid_is_5_by_9(self, paper_grid):
        assert paper_grid.shape == (5, 9)
        assert paper_grid.n_blocks == 45

    def test_partial_edge_blocks_are_grid_cells(self):
        grid = BlockGrid.for_image(1200, 650, 128)
        assert grid.shape == (6, 10)
        counts = grid.block_pixel_counts()
        assert counts[0, 0] == 128 * 128
        assert counts[5, 0] == 10 * 128  # 650 - 5*128 = 10 rows of pixels
        assert counts[0, 9] == 128 * 48  # 1200 - 9*128 = 48 cols of pixels
        assert counts[5, 9] == 10 * 48

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BlockGrid.for_image(0, 640, 128)


class TestBlocksForBBox:
    def test_single_block_containment(self, paper_grid):
        assert blocks_for_bbox(paper_grid, BBox(0, 0, 127, 127)) == {(0, 0)}

    def test_interval_arithmetic_six_blocks(self, paper_grid):
        got = blocks_for_bbox(paper_grid, BBox(100, 100, 101, 201))
        assert got == {(r, c) for r in range(3) for c in range(2)}

    def test_full_frame_covers_all_45_blocks(self, paper_grid):
        got = blocks_for_bbox(paper_grid, BBox(0, 0, 1152, 640))
        assert len(got) == 45

    def test_never_empty_for_intersecting_box(self, paper_grid):
        rng = np.random.default_rng(3)
        for _ in range(300):
            x = rng.uniform(-50, 1150)
            y = rng.uniform(-50, 630)
            box = BBox(x, y, rng.uniform(1, 400), rng.uniform(1, 400))
            if box.clamped(1152, 640) is None:
                continue
            assert blocks_for_bbox(paper_grid, box)

    def test_monotone_under_enlargement(self, paper_grid):
        rng = np.random.default_rng(4)
        for _ in range(300):
            x = rng.uniform(0, 1000)
            y = rng.uniform(0, 500)
            w = rng.uniform(5, 150)
            h = rng.uniform(5, 150)
            small = blocks_for_bbox(paper_grid, BBox(x, y, w, h))
            grow = rng.uniform(0, 80, size=4)
            big = blocks_for_bbox(
                paper_grid, BBox(x - grow[0], y - grow[1], w + grow[0] + grow[2], h + grow[1] + grow[3])
            )
            assert small <= big


class TestBBox:
    def test_area_and_foot(self):
        box = BBox(10, 20, 30, 40)
        assert box.area == 1200
        assert box.foot == ImagePoint(25, 60)

    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ValueError):
            BBox(0, 0, 0, 10)

    def test_intersection_area(self):
        a = BBox(0, 0, 10, 10)
        assert a.intersection_area(BBox(5, 5, 10, 10)) == 25
        assert a.intersection_area(BBox(20, 20, 5, 5)) == 0


def _reference_pixel_bounds(box: BBox, width: int, height: int) -> tuple[int, int, int, int]:
    """The numpy floor/ceil form the pixel rasterizers used before."""
    return (
        max(0, int(np.floor(box.x))),
        max(0, int(np.floor(box.y))),
        min(width, int(np.ceil(box.x + box.w))),
        min(height, int(np.ceil(box.y + box.h))),
    )


# negative, integer-valued and beyond-the-image corners and extents
_corner = st.one_of(st.floats(-3000.0, 3000.0), st.integers(-3000, 3000).map(float))
_extent = st.one_of(st.floats(1e-9, 3000.0), st.integers(1, 3000).map(float))


@settings(max_examples=1000, deadline=None)
@given(_corner, _corner, _extent, _extent, st.integers(1, 2000), st.integers(1, 2000))
def test_pixel_bounds_equals_numpy_floor_ceil(x, y, w, h, width, height):
    box = BBox(x, y, w, h)
    bounds = box.pixel_bounds(width, height)
    assert bounds == _reference_pixel_bounds(box, width, height)
    assert all(type(v) is int for v in bounds)
