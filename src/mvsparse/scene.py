"""Ground-truth pedestrian motion and per-view ground-truth rendering.

Pedestrians are random-waypoint walkers on the z=0 plane, modeled as
vertical cylinders for projection. Scene stepping is sequential (one owner
per run); view rendering is pure and can fan out across cameras.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .geometry import (
    BBox,
    BlockGrid,
    CameraModel,
    GeometryError,
    GroundPoint,
    SpanCells,
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

    def clamp(self, x: float, y: float) -> tuple[float, float]:
        return (
            min(max(x, self.x_min), self.x_max),
            min(max(y, self.y_min), self.y_max),
        )

    def point(self, ux: float, uy: float) -> GroundPoint:
        """The point at fractions (ux, uy) of the arena's extent."""
        return GroundPoint(
            self.x_min + (self.x_max - self.x_min) * ux,
            self.y_min + (self.y_max - self.y_min) * uy,
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

    def __post_init__(self):
        ids = [p.person_id for p in self.pedestrians]
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate person_id in frame {self.frame_id}")

    def ground_points(self) -> list[tuple[int, GroundPoint]]:
        return [(p.person_id, p.position) for p in self.pedestrians]


# One camera's ground truth: (person_id, box, visibility) per walker it sees.
GtView = tuple[tuple[int, BBox, float], ...]


def _speed(cfg: SceneConfig, u: float) -> float:
    return cfg.min_speed + (cfg.max_speed - cfg.min_speed) * u


def init_scene(cfg: SceneConfig, seed: int) -> SceneFrame:
    """Frame 0: walker ``pid``'s position, waypoint and speed are its row of
    one ``rng.uniforms`` call keyed (SCENE, 0)."""
    pids = range(cfg.n_pedestrians)
    peds = []
    for pid, (px, py, wx, wy, us) in zip(pids, rng.uniforms(seed, (rng.SCENE, 0), pids, 5).tolist()):
        pos, wp = cfg.arena.point(px, py), cfg.arena.point(wx, wy)
        velocity = _velocity_toward(pos, wp, _speed(cfg, us))
        peds.append(Pedestrian(pid, pos, velocity, wp, cfg.ped_height, cfg.ped_radius))
    return SceneFrame(0, tuple(peds))


def _velocity_toward(pos: GroundPoint, wp: GroundPoint, speed: float) -> tuple[float, float]:
    dx, dy = wp.x - pos.x, wp.y - pos.y
    dist = math.hypot(dx, dy)
    if dist < 1e-12:
        return (0.0, 0.0)
    return (speed * dx / dist, speed * dy / dist)


def step_scene(scene: SceneFrame, dt: float, seed: int, cfg: SceneConfig) -> SceneFrame:
    """Advance every walker by one step of the random-waypoint model.

    A walker within ``waypoint_tolerance`` of its waypoint draws a new one
    (and a new leg speed) instead of moving this step: its row of one
    ``rng.uniforms`` call keyed (SCENE, new frame id), made only when some
    walker arrives. A walker redraws at most once a frame, so its path is a
    function of (seed, its id) alone.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    frame_id = scene.frame_id + 1
    dists = [p.position.distance_to(p.waypoint) for p in scene.pedestrians]
    arrived = [p.person_id for p, d in zip(scene.pedestrians, dists) if d < cfg.waypoint_tolerance]
    draws = {}
    if arrived:
        draws = dict(zip(arrived, rng.uniforms(seed, (rng.SCENE, frame_id), arrived, 3).tolist()))
    moved = []
    for ped, dist in zip(scene.pedestrians, dists):
        pos, wp = ped.position, ped.waypoint
        if dist < cfg.waypoint_tolerance:
            wx, wy, us = draws[ped.person_id]
            new_wp = cfg.arena.point(wx, wy)
            velocity = _velocity_toward(pos, new_wp, _speed(cfg, us))
            moved.append(replace(ped, waypoint=new_wp, velocity=velocity))
            continue
        speed = ped.speed
        step = min(speed * dt, dist)
        nx = pos.x + (wp.x - pos.x) / dist * step
        ny = pos.y + (wp.y - pos.y) / dist * step
        nx, ny = cfg.arena.clamp(nx, ny)
        moved.append(replace(ped, position=GroundPoint(nx, ny)))
    return SceneFrame(frame_id, tuple(moved))


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

    Visibility is the fraction of a walker's pixel span not covered by the
    spans of walkers strictly closer to the camera, counted exactly on the
    cells the spans cut (``SpanCells``); no raster is drawn.
    """
    projected = _project_all(scene, cam)
    if not projected:
        return ()

    spans = [box.pixel_bounds(cam.width, cam.height) for _, box, _ in projected]
    # the whole image as one block, so only the spans cut it
    whole = BlockGrid.for_image(cam.width, cam.height, max(cam.width, cam.height))
    cells = SpanCells(whole, spans)
    occluded = np.zeros_like(cells.area)  # area of the cells covered so far, 0 elsewhere
    visibility = [0.0] * len(projected)
    by_depth = sorted(range(len(projected)), key=lambda k: projected[k][2])
    i = 0
    while i < len(by_depth):
        # walkers at identical depth do not occlude each other
        j = i
        while j < len(by_depth) and projected[by_depth[j]][2] <= projected[by_depth[i]][2] + 1e-12:
            j += 1
        group = [(k, cells.index(spans[k])) for k in by_depth[i:j]]
        for k, index in group:
            x0, y0, x1, y1 = spans[k]
            size = max(0, x1 - x0) * max(0, y1 - y0)
            # an empty span counts as wholly covered
            visibility[k] = 1.0 - int(occluded[index].sum()) / size if size else 0.0
        for _, index in group:
            occluded[index] = cells.area[index]
        i = j

    return tuple((pid, box, vis) for (pid, box, _), vis in zip(projected, visibility))


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
    return [SceneFrame(fid, tuple(frames[fid])) for fid in sorted(frames)]
