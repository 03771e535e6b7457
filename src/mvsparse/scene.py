"""Ground-truth pedestrian motion and per-view ground-truth rendering.

Pedestrians are random-waypoint walkers on the z=0 plane, modeled as
vertical cylinders for projection. Scene stepping is sequential (one owner
per run); view rendering is pure and can fan out across cameras.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (
    BBox,
    CameraModel,
    GeometryError,
    GroundPoint,
    project_camera_point,
    project_world_point,
)

DEFAULT_PED_HEIGHT = 1.8
DEFAULT_PED_RADIUS = 0.3


class TrajectoryError(Exception):
    """Base class for trajectory-file problems."""


class ParseError(TrajectoryError):
    pass


class DuplicateIdentity(TrajectoryError):
    pass


@dataclass(frozen=True)
class Arena:
    """Axis-aligned walkable rectangle on the ground plane, meters."""

    x_min: float = 0.0
    x_max: float = 12.0
    y_min: float = 0.0
    y_max: float = 36.0

    def contains(self, p: GroundPoint) -> bool:
        return self.x_min <= p.x <= self.x_max and self.y_min <= p.y <= self.y_max

    def clamp(self, x: float, y: float) -> tuple[float, float]:
        return (
            min(max(x, self.x_min), self.x_max),
            min(max(y, self.y_min), self.y_max),
        )

    def sample(self, rng: np.random.Generator) -> GroundPoint:
        return GroundPoint(
            rng.uniform(self.x_min, self.x_max), rng.uniform(self.y_min, self.y_max)
        )


@dataclass(frozen=True)
class SceneConfig:
    arena: Arena = field(default_factory=Arena)
    n_pedestrians: int = 20
    max_speed: float = 1.5
    min_speed: float = 0.3
    ped_height: float = DEFAULT_PED_HEIGHT
    ped_radius: float = DEFAULT_PED_RADIUS
    waypoint_tolerance: float = 0.1


@dataclass(frozen=True)
class Pedestrian:
    person_id: int
    position: GroundPoint
    velocity: tuple[float, float]
    waypoint: GroundPoint
    height: float = DEFAULT_PED_HEIGHT
    radius: float = DEFAULT_PED_RADIUS

    @property
    def speed(self) -> float:
        return math.hypot(*self.velocity)


@dataclass(frozen=True)
class SceneFrame:
    frame_id: int
    pedestrians: tuple[Pedestrian, ...]
    timestamp: float

    def __post_init__(self):
        ids = [p.person_id for p in self.pedestrians]
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate person_id in frame {self.frame_id}")

    def ground_points(self) -> list[tuple[int, GroundPoint]]:
        return [(p.person_id, p.position) for p in self.pedestrians]


@dataclass(frozen=True)
class GtView:
    """Ground-truth boxes for one camera: (person_id, box, visibility)."""

    camera_id: int
    entries: tuple[tuple[int, BBox, float], ...]


def init_scene(cfg: SceneConfig, rng: np.random.Generator) -> SceneFrame:
    peds = []
    for pid in range(cfg.n_pedestrians):
        pos = cfg.arena.sample(rng)
        wp = cfg.arena.sample(rng)
        speed = rng.uniform(cfg.min_speed, cfg.max_speed)
        peds.append(
            Pedestrian(pid, pos, _velocity_toward(pos, wp, speed), wp, cfg.ped_height, cfg.ped_radius)
        )
    return SceneFrame(0, tuple(peds), 0.0)


def _velocity_toward(pos: GroundPoint, wp: GroundPoint, speed: float) -> tuple[float, float]:
    dx, dy = wp.x - pos.x, wp.y - pos.y
    dist = math.hypot(dx, dy)
    if dist < 1e-12:
        return (0.0, 0.0)
    return (speed * dx / dist, speed * dy / dist)


def step_scene(
    scene: SceneFrame, dt: float, rng: np.random.Generator, cfg: SceneConfig
) -> SceneFrame:
    """Advance every walker by one step of the random-waypoint model.

    A walker within ``waypoint_tolerance`` of its waypoint draws a new one
    (and a new leg speed) instead of moving this step.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    moved = []
    for ped in scene.pedestrians:
        pos, wp = ped.position, ped.waypoint
        dist = pos.distance_to(wp)
        if dist < cfg.waypoint_tolerance:
            new_wp = cfg.arena.sample(rng)
            speed = rng.uniform(cfg.min_speed, cfg.max_speed)
            moved.append(
                replace(ped, waypoint=new_wp, velocity=_velocity_toward(pos, new_wp, speed))
            )
            continue
        speed = ped.speed
        step = min(speed * dt, dist)
        nx = pos.x + (wp.x - pos.x) / dist * step
        ny = pos.y + (wp.y - pos.y) / dist * step
        nx, ny = cfg.arena.clamp(nx, ny)
        moved.append(replace(ped, position=GroundPoint(nx, ny)))
    return SceneFrame(scene.frame_id + 1, tuple(moved), scene.timestamp + dt)


def project_pedestrian_box(cam: CameraModel, ped: Pedestrian) -> tuple[BBox, float] | None:
    """Project the walker's cylinder into a pixel box.

    Returns (box, camera depth of the foot point), or None when the walker
    is behind the camera or not localizable. The feet and the full box
    width must be inside the frame (a box whose foot row is cut off cannot
    be grounded); only the top may clamp at the image border.
    """
    foot_w = np.array([ped.position.x, ped.position.y, 0.0])
    foot_c = cam.world_to_camera(foot_w)
    depth = foot_c[2]
    if depth <= 0:
        return None
    foot = project_camera_point(cam, foot_c)
    try:
        head = project_world_point(cam, foot_w + np.array([0.0, 0.0, ped.height]))
    except GeometryError:
        return None
    width_px = cam.intrinsics[0, 0] * (2.0 * ped.radius) / depth
    height_px = foot.v - head.v
    if width_px <= 0 or height_px <= 0:
        return None
    x0 = foot.u - width_px / 2.0
    if x0 < 0 or x0 + width_px > cam.width or foot.v > cam.height or foot.v < 1:
        return None
    y0 = max(0.0, head.v)
    return BBox(x0, y0, width_px, foot.v - y0), depth


def _project_all(scene: SceneFrame, cam: CameraModel) -> list[tuple[int, BBox, float]]:
    """(person_id, box, depth) of every walker the camera sees, in scene order."""
    projected = []
    for ped in scene.pedestrians:
        proj = project_pedestrian_box(cam, ped)
        if proj is not None:
            projected.append((ped.person_id, proj[0], proj[1]))
    return projected


def ground_truth_view(scene: SceneFrame, cam: CameraModel) -> GtView:
    """Render ground-truth boxes with occlusion-aware visibility.

    Visibility is the fraction of a walker's box not covered by boxes of
    walkers strictly closer to the camera (rasterized at pixel resolution).
    """
    projected = _project_all(scene, cam)
    if not projected:
        return GtView(cam.camera_id, ())

    canvas = np.zeros((cam.height, cam.width), dtype=bool)
    visibility: dict[int, float] = {}
    by_depth = sorted(projected, key=lambda e: e[2])
    i = 0
    while i < len(by_depth):
        # walkers at identical depth do not occlude each other
        j = i
        while j < len(by_depth) and by_depth[j][2] <= by_depth[i][2] + 1e-12:
            j += 1
        group = by_depth[i:j]
        for pid, box, _ in group:
            x0, y0, x1, y1 = box.pixel_bounds(cam.width, cam.height)
            region = canvas[y0:y1, x0:x1]
            covered = float(region.mean()) if region.size else 1.0
            visibility[pid] = 1.0 - covered
        for pid, box, _ in group:
            x0, y0, x1, y1 = box.pixel_bounds(cam.width, cam.height)
            canvas[y0:y1, x0:x1] = True
        i = j

    entries = tuple((pid, box, visibility[pid]) for pid, box, _ in projected)
    return GtView(cam.camera_id, entries)


BACKGROUND = 24


@dataclass(frozen=True)
class ViewPaint:
    """Schematic grayscale frame as painted pixel spans.

    Pixel (x, y) holds the intensity of the last span in ``rects`` that
    covers it, or ``BACKGROUND``. Each span is ``(intensity, x0, y0, x1,
    y1)`` on integer pixel bounds; one with ``x1 <= x0`` or ``y1 <= y0``
    paints nothing.
    """

    width: int
    height: int
    rects: tuple[tuple[int, int, int, int, int], ...]


def render_view_image(scene: SceneFrame, cam: CameraModel) -> ViewPaint:
    """Schematic frame: flat background, one filled rectangle per visible
    walker (nearest drawn last). Feeds the policy state, not a renderer."""
    rects = tuple(
        (80 + (pid * 37) % 160, *box.pixel_bounds(cam.width, cam.height))
        for pid, box, _ in sorted(_project_all(scene, cam), key=lambda e: -e[2])
    )
    return ViewPaint(cam.width, cam.height, rects)


def load_trajectories(
    path: str,
    ped_height: float = DEFAULT_PED_HEIGHT,
    ped_radius: float = DEFAULT_PED_RADIUS,
) -> list[SceneFrame]:
    """Read line-oriented ``frame_id person_id x y`` records.

    Returns frames sorted by frame_id. Blank lines and '#' comments are
    skipped. Malformed lines, negative ids and person ids of 2**64 or more
    raise ParseError, duplicate (frame_id, person_id) pairs DuplicateIdentity.
    """
    frames: dict[int, list[Pedestrian]] = {}
    seen: set[tuple[int, int]] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ParseError(f"{path}: line {lineno}: expected 4 fields, got {len(parts)}")
            try:
                frame_id = int(parts[0])
                person_id = int(parts[1])
                x = float(parts[2])
                y = float(parts[3])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
            # the detector keys its draws by person id as one 64-bit word
            if frame_id < 0 or not 0 <= person_id < 2**64:
                raise ParseError(
                    f"{path}: line {lineno}: frame ids must be >= 0, person ids in [0, 2**64)"
                )
            key = (frame_id, person_id)
            if key in seen:
                raise DuplicateIdentity(
                    f"{path}: line {lineno}: duplicate person {person_id} in frame {frame_id}"
                )
            seen.add(key)
            pos = GroundPoint(x, y)
            frames.setdefault(frame_id, []).append(
                Pedestrian(person_id, pos, (0.0, 0.0), pos, ped_height, ped_radius)
            )
    return [
        SceneFrame(fid, tuple(frames[fid]), float(fid)) for fid in sorted(frames)
    ]
