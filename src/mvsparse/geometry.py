"""Camera calibration, world<->image projection and block-grid arithmetic.

Coordinate conventions (fixed for the whole pipeline):
  - World frame: right-handed, ground plane at z=0, units in meters.
  - ``rotation`` maps world-frame directions into the camera frame
    (rows are the camera axes expressed in world coordinates).
  - ``translation`` is the camera center expressed in world coordinates,
    so a world point X projects through ``x_cam = R @ (X - t)``.
  - Camera frame: x right, y down, z forward (optical axis).
  - Image frame: u right, v down, pixels, origin at the top-left corner.

Everything in this module is a pure function over immutable values and is
safe to call concurrently.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Iterable

import numpy as np


def left_sum(values: Iterable[float]) -> float:
    """Floats added left to right, one rounding per addition: the same bits
    on every Python, where ``sum`` compensates float sums from 3.12 on."""
    return reduce(operator.add, values, 0.0)


class GeometryError(Exception):
    """Base class for projection failures."""


class BehindCamera(GeometryError):
    """Point (or plane intersection) lies at non-positive camera depth."""


@dataclass(frozen=True)
class GroundPoint:
    """Point on the z=0 world plane, meters."""

    x: float
    y: float

    def distance_to(self, other: "GroundPoint") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def gated_distances(a: list[GroundPoint], b: list[GroundPoint], eps: float) -> np.ndarray:
    """(len(a), len(b)) ground distances, inf for pairs that are surely >= eps.

    A numpy box test |dx| < eps and |dy| < eps selects the candidate pairs,
    and only those get ``math.hypot``, so every finite entry equals
    ``a[i].distance_to(b[j])`` bit for bit (np.hypot does not). Pairs outside
    the box are at least eps apart, since hypot(dx, dy) >= max(|dx|, |dy|),
    so a ``< eps`` gate reads the same on this matrix as on the full one.
    The pairs are indexed flat: np.nonzero of a 2-d mask costs several times
    more than of a flat one.
    """
    pa = np.array([(p.x, p.y) for p in a], dtype=float).reshape(-1, 2)
    pb = np.array([(p.x, p.y) for p in b], dtype=float).reshape(-1, 2)
    dx = (pa[:, None, 0] - pb[None, :, 0]).ravel()
    dy = (pa[:, None, 1] - pb[None, :, 1]).ravel()
    out = np.full(dx.shape, np.inf)
    near = np.flatnonzero((np.abs(dx) < eps) & (np.abs(dy) < eps))
    out[near] = [math.hypot(x, y) for x, y in zip(dx[near].tolist(), dy[near].tolist())]
    return out.reshape(len(pa), len(pb))


@dataclass(frozen=True)
class ImagePoint:
    """Pixel coordinates, u right / v down."""

    u: float
    v: float


@dataclass(frozen=True)
class BBox:
    """Axis-aligned pixel box, top-left corner plus width/height."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"BBox needs positive extent, got w={self.w}, h={self.h}")

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def foot(self) -> ImagePoint:
        """Bottom-center pixel, the point assumed to touch the ground."""
        return ImagePoint(self.x + self.w / 2.0, self.y + self.h)

    def pixel_bounds(self, width: int, height: int) -> tuple[int, int, int, int]:
        """Integer pixel span (x0, y0, x1, y1) covering the box, clipped to
        [0, width) x [0, height); empty when x1 <= x0 or y1 <= y0."""
        x0 = max(0, math.floor(self.x))
        y0 = max(0, math.floor(self.y))
        x1 = min(width, math.ceil(self.x + self.w))
        y1 = min(height, math.ceil(self.y + self.h))
        return x0, y0, x1, y1

    def clamped(self, width: int, height: int) -> "BBox | None":
        """Intersection with the image rectangle, or None if disjoint."""
        if self.x >= 0 and self.y >= 0 and self.x + self.w <= width and self.y + self.h <= height:
            return self
        x0 = max(self.x, 0.0)
        y0 = max(self.y, 0.0)
        x1 = min(self.x + self.w, float(width))
        y1 = min(self.y + self.h, float(height))
        if x1 <= x0 or y1 <= y0:
            return None
        return BBox(x0, y0, x1 - x0, y1 - y0)


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera: intrinsics K, rotation R (world->camera directions)
    and translation t = camera center in world coordinates."""

    camera_id: int
    intrinsics: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray
    image_size: tuple[int, int]  # (width, height) in pixels

    def __post_init__(self):
        K = np.asarray(self.intrinsics, dtype=float).reshape(3, 3)
        R = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        object.__setattr__(self, "intrinsics", K)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)
        if not all(np.isfinite(a).all() for a in (K, R, t)):
            raise ValueError("intrinsics, rotation and translation must be finite")
        if abs(np.linalg.det(K)) < 1e-12:
            raise ValueError("intrinsics matrix is singular")
        if not np.allclose(R.T @ R, np.eye(3), atol=1e-9):
            raise ValueError("rotation matrix is not orthonormal (tol 1e-9)")
        w, h = self.image_size
        integral = all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in (w, h))
        if not integral or w <= 0 or h <= 0:
            raise ValueError(f"image_size must be two positive integers, got {self.image_size}")
        object.__setattr__(self, "image_size", (int(w), int(h)))

    @property
    def width(self) -> int:
        return self.image_size[0]

    @property
    def height(self) -> int:
        return self.image_size[1]

    def world_to_camera(self, point_w: np.ndarray) -> np.ndarray:
        return self.rotation @ (np.asarray(point_w, dtype=float) - self.translation)


def camera_from_pose(
    camera_id: int,
    position: tuple[float, float, float],
    yaw_deg: float,
    pitch_deg: float,
    focal_px: float,
    image_size: tuple[int, int],
) -> CameraModel:
    """Build a camera from a mounting pose.

    yaw is measured from the world +x axis (counter-clockwise, looking down),
    pitch > 0 tilts the optical axis below the horizon. Roll is zero, the
    principal point sits at the image center.
    """
    yaw = math.radians(yaw_deg)
    pitch = math.radians(pitch_deg)
    forward = np.array(
        [math.cos(pitch) * math.cos(yaw), math.cos(pitch) * math.sin(yaw), -math.sin(pitch)]
    )
    # right = forward x world_up keeps the image upright (zero roll)
    right = np.cross(forward, np.array([0.0, 0.0, 1.0]))
    right /= np.linalg.norm(right)
    down = np.cross(forward, right)
    down /= np.linalg.norm(down)
    R = np.stack([right, down, forward])
    w, h = image_size
    K = np.array(
        [
            [focal_px, 0.0, w / 2.0],
            [0.0, focal_px, h / 2.0],
            [0.0, 0.0, 1.0],
        ]
    )
    return CameraModel(camera_id, K, R, np.array(position, dtype=float), (w, h))


def project_camera_point(cam: CameraModel, pc: np.ndarray) -> ImagePoint:
    """Project a camera-frame point; raises BehindCamera at depth <= 0."""
    if pc[2] <= 0:
        raise BehindCamera(f"camera {cam.camera_id}: point at depth {pc[2]:.3f}")
    uvw = cam.intrinsics @ pc
    return ImagePoint(uvw[0] / uvw[2], uvw[1] / uvw[2])


def project_world_point(cam: CameraModel, point_w: np.ndarray) -> ImagePoint:
    """Project an arbitrary 3-d world point; raises BehindCamera at depth <= 0."""
    return project_camera_point(cam, cam.world_to_camera(point_w))


def image_to_ground(cam: CameraModel, uv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intersect the rays of (n, 2) pixels with the z=0 plane in one pass.

    Returns the (n, 2) ground hits and the (n,) ray parameters s, the hit
    being ``translation + s * ray``: NaN where the ray is parallel to the
    ground, <= 0 where the hit lies behind the camera, and only rows with
    s > 0 are hits. The stacked solve and product give each row bit for
    bit what a solve of that pixel alone gives (``np.linalg.solve(K, B)``
    with B of shape (3, n) would not).
    """
    uv = np.asarray(uv, dtype=float).reshape(-1, 2)
    n = len(uv)
    q = np.ones((n, 3, 1))
    q[:, :2, 0] = uv
    d_cam = np.linalg.solve(cam.intrinsics, q)  # K broadcasts over the n systems
    d_world = (cam.rotation.T[None] @ d_cam)[..., 0]
    origin = cam.translation
    dz = d_world[:, 2]
    parallel = np.abs(dz) < 1e-12
    s = -origin[2] / np.where(parallel, 1.0, dz)
    s[parallel] = np.nan
    return origin[:2] + s[:, None] * d_world[:, :2], s


@dataclass(frozen=True)
class BlockGrid:
    """M x N tiling of an image into B x B pixel blocks.

    Edge blocks may be partial when the image size is not a multiple of the
    block size; they are regular grid cells like any other.
    """

    block_size: int
    rows: int
    cols: int
    image_size: tuple[int, int]

    @classmethod
    def for_image(cls, width: int, height: int, block_size: int) -> "BlockGrid":
        if block_size <= 0 or width <= 0 or height <= 0:
            raise ValueError("block size and image dimensions must be positive")
        rows = -(-height // block_size)
        cols = -(-width // block_size)
        return cls(block_size, rows, cols, (width, height))

    @property
    def n_blocks(self) -> int:
        return self.rows * self.cols

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def block_extent(self, row: int, col: int) -> tuple[float, float, float, float]:
        """Pixel rectangle (x0, y0, x1, y1) of a cell, clipped to the image."""
        B = self.block_size
        w, h = self.image_size
        return (col * B, row * B, min((col + 1) * B, w), min((row + 1) * B, h))

    def block_pixel_counts(self) -> np.ndarray:
        """Per-cell pixel area as an (rows, cols) array; partial cells are smaller."""
        B = self.block_size
        w, h = self.image_size
        row_px = np.minimum(np.arange(1, self.rows + 1) * B, h) - np.arange(self.rows) * B
        col_px = np.minimum(np.arange(1, self.cols + 1) * B, w) - np.arange(self.cols) * B
        return row_px[:, None] * col_px[None, :]


def block_range(grid: BlockGrid, box: BBox) -> tuple[int, int, int, int] | None:
    """Inclusive row and column range ``(r0, r1, c0, c1)`` of the grid cells
    holding a pixel of the box's ``pixel_bounds`` span; None when the span
    is empty."""
    x0, y0, x1, y1 = box.pixel_bounds(*grid.image_size)
    if x1 <= x0 or y1 <= y0:
        return None
    B = grid.block_size
    return y0 // B, (y1 - 1) // B, x0 // B, (x1 - 1) // B


def bbox_block_mask(grid: BlockGrid, boxes: list[BBox]) -> np.ndarray:
    """Binary (rows, cols) mask of all cells touched by any of the boxes."""
    mask = np.zeros(grid.shape, dtype=np.uint8)
    for box in boxes:
        cells = block_range(grid, box)
        if cells is not None:
            r0, r1, c0, c1 = cells
            mask[r0 : r1 + 1, c0 : c1 + 1] = 1
    return mask
