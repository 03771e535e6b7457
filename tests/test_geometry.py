import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvsparse.geometry import (
    BBox,
    BehindCamera,
    BlockGrid,
    CameraModel,
    GeometryError,
    GroundPoint,
    ImagePoint,
    SpanCells,
    bbox_block_mask,
    block_range,
    camera_from_pose,
    image_to_ground,
    project_world_point,
)

# Scalar references the tests compare the program against; the program
# itself works on cell ranges and stacked solves.


class RayParallelToGround(GeometryError):
    """Pixel ray never meets the z=0 plane."""


def project_ground_to_image(cam: CameraModel, p: GroundPoint) -> ImagePoint:
    """Pinhole projection of the ground point (p.x, p.y, 0)."""
    return project_world_point(cam, np.array([p.x, p.y, 0.0]))


def project_image_to_ground(cam: CameraModel, q: ImagePoint) -> GroundPoint:
    """One pixel's ground hit through ``image_to_ground``. Raises
    RayParallelToGround when the ray never meets the plane and BehindCamera
    when the intersection lies behind the camera."""
    hits, s = image_to_ground(cam, np.array([[q.u, q.v]]))
    if np.isnan(s[0]):
        raise RayParallelToGround(f"camera {cam.camera_id}: ray through ({q.u}, {q.v}) is horizontal")
    if s[0] <= 0:
        raise BehindCamera(f"camera {cam.camera_id}: ground intersection behind camera (s={s[0]:.3f})")
    return GroundPoint(hits[0, 0], hits[0, 1])


def blocks_for_bbox(grid: BlockGrid, box: BBox) -> set[tuple[int, int]]:
    """Grid cells whose pixel extent intersects the box (clamped to the image)."""
    cells = block_range(grid, box)
    if cells is None:
        return set()
    r0, r1, c0, c1 = cells
    return {(r, c) for r in range(r0, r1 + 1) for c in range(c0, c1 + 1)}


def intersection_area(a: BBox, b: BBox) -> float:
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    return ix * iy


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
        assert intersection_area(a, BBox(5, 5, 10, 10)) == 25
        assert intersection_area(a, BBox(20, 20, 5, 5)) == 0


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


def _reference_blocks_for_bbox(grid: BlockGrid, box: BBox) -> set[tuple[int, int]]:
    """The cells holding a pixel of the box's integer span, pixel by pixel."""
    x0, y0, x1, y1 = box.pixel_bounds(*grid.image_size)
    B = grid.block_size
    return {(r, c) for r in {y // B for y in range(y0, y1)} for c in {x // B for x in range(x0, x1)}}


# corners and extents on and next to the 128 px block edges, plus slivers
_edge = st.sampled_from([0.0, 127.0, 128.0, 128.0 - 1e-10, 128.0 + 1e-10, 255.5, 640.0, 1152.0])
_box_corner = st.one_of(_edge, _edge.map(lambda v: -v), st.floats(-200.0, 1300.0))
_box_extent = st.one_of(_edge.filter(lambda v: v > 0), st.floats(1e-10, 1400.0))
_grid = st.builds(
    BlockGrid.for_image, st.integers(1, 1300), st.integers(1, 700), st.sampled_from([1, 7, 64, 128, 200])
)
_boxes = st.lists(st.tuples(_box_corner, _box_corner, _box_extent, _box_extent), max_size=6)


@settings(max_examples=500, deadline=None)
@given(_grid, _box_corner, _box_corner, _box_extent, _box_extent)
def test_block_range_expands_to_the_reference_cell_set(grid, x, y, w, h):
    box = BBox(x, y, w, h)
    expected = _reference_blocks_for_bbox(grid, box)
    cells = block_range(grid, box)
    if cells is None:
        assert not expected
    else:
        r0, r1, c0, c1 = cells
        assert {(r, c) for r in range(r0, r1 + 1) for c in range(c0, c1 + 1)} == expected
    assert blocks_for_bbox(grid, box) == expected


@settings(max_examples=200, deadline=None)
@given(_grid, _boxes)
def test_bbox_block_mask_is_the_union_of_cell_sets(grid, boxes):
    boxes = [BBox(*b) for b in boxes]
    expected = np.zeros(grid.shape, dtype=np.uint8)
    for box in boxes:
        for cell in _reference_blocks_for_bbox(grid, box):
            expected[cell] = 1
    got = bbox_block_mask(grid, boxes)
    assert got.dtype == np.uint8 and np.array_equal(got, expected)


@settings(max_examples=200, deadline=None)
@given(_grid, _boxes)
@example(BlockGrid.for_image(1152, 640, 128), [(10.0, 100.0, 118.0000000001, 60.0)])
def test_bbox_block_mask_marks_the_blocks_the_policy_counts_box_pixels_in(grid, boxes):
    # the block masks and the policy's coverage features share one rule;
    # the example's pixel span reaches column 128, one pixel into block 1
    boxes = [BBox(*b) for b in boxes]
    spans = [box.pixel_bounds(*grid.image_size) for box in boxes]
    cells = SpanCells(grid, spans)
    covered = cells.block_counts(cells.covered(spans)) > 0
    assert np.array_equal(bbox_block_mask(grid, boxes) != 0, covered)


def _scalar_ground(cam: CameraModel, u: float, v: float):
    """One pixel's ground hit as ``project_image_to_ground`` computed it
    before the stacked solve: a GroundPoint or the exception class."""
    d_cam = np.linalg.solve(cam.intrinsics, np.array([u, v, 1.0]))
    d_world = cam.rotation.T @ d_cam
    origin = cam.translation
    if abs(d_world[2]) < 1e-12:
        return RayParallelToGround
    s = -origin[2] / d_world[2]
    if s <= 0:
        return BehindCamera
    hit = origin + s * d_world
    return GroundPoint(hit[0], hit[1])


@st.composite
def _cameras(draw):
    """Posed cameras with general, skewed intrinsics; pitch 0 puts the
    principal row on the horizon, where rays run parallel to the ground."""
    cam = camera_from_pose(
        0,
        (draw(st.floats(-20, 20)), draw(st.floats(-20, 20)), draw(st.floats(0.5, 15))),
        draw(st.floats(-180, 180)),
        draw(st.one_of(st.just(0.0), st.floats(-80, 80))),
        750.0,
        (1152, 640),
    )
    fx, fy = draw(st.floats(100, 3000)), draw(st.floats(100, 3000))
    skew = draw(st.one_of(st.just(0.0), st.floats(-50, 50)))
    cx, cy = draw(st.floats(0, 1152)), draw(st.floats(0, 640))
    K = np.array([[fx, skew, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])
    return CameraModel(0, K, cam.rotation, cam.translation, cam.image_size), cy


_pixels = st.lists(st.tuples(st.floats(-500, 1700), st.floats(-500, 1200)), min_size=1, max_size=12)


@settings(max_examples=400, deadline=None)
@given(_cameras(), _pixels, st.data())
def test_stacked_ground_solve_equals_the_scalar_solve(camera, pixels, data):
    cam, cy = camera
    # include pixels on the principal row (parallel rays at pitch 0)
    pixels = pixels + [(u, cy) for u, _ in pixels[: data.draw(st.integers(0, len(pixels)))]]
    hits, s = image_to_ground(cam, np.array(pixels))
    for (u, v), hit, si in zip(pixels, hits, s):
        expected = _scalar_ground(cam, u, v)
        if expected is RayParallelToGround:
            assert np.isnan(si)
        elif expected is BehindCamera:
            assert si <= 0
        else:
            assert si > 0 and (hit[0], hit[1]) == (expected.x, expected.y)
        if isinstance(expected, GroundPoint):
            assert project_image_to_ground(cam, ImagePoint(u, v)) == expected
        else:
            with pytest.raises(expected):
                project_image_to_ground(cam, ImagePoint(u, v))
