"""Simulated per-view detector honoring block actions.

Blocks refreshed this frame produce current (noisy) detections; blocks left
unrefreshed replay the detection captured when they were last processed,
which is how feature duplication shows up at the detection level. Each
ViewState is owned by exactly one camera loop; fusion runs on the server
after all views arrive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import rng as rngmod
from .geometry import (
    BBox,
    BlockGrid,
    CameraModel,
    GeometryError,
    GroundPoint,
    blocks_for_bbox,
    project_image_to_ground,
)
from .scene import GtView

if TYPE_CHECKING:
    from .association import Cluster


class DimensionMismatch(Exception):
    pass


@dataclass(frozen=True)
class DetectorConfig:
    v_min: float = 0.25  # minimum ground-truth visibility to be detectable
    sigma_px: float = 2.0  # box edge perturbation std, pixels
    p_miss: float = 0.05  # per-object miss probability on fresh blocks
    fp_rate: float = 0.1  # Poisson rate of false positives per view-frame
    min_box_height_px: float = 36.0  # smaller projections are undetectable


@dataclass(frozen=True)
class Detection:
    camera_id: int
    bbox: BBox
    ground: GroundPoint
    score: float
    stale: bool


@dataclass(frozen=True)
class DetectionSet:
    camera_id: int
    frame_id: int
    detections: tuple[Detection, ...]

    def __len__(self) -> int:
        return len(self.detections)

    def __iter__(self):
        return iter(self.detections)

    def __getitem__(self, idx: int) -> Detection:
        return self.detections[idx]


@dataclass(frozen=True)
class FusedDetection:
    """Server-side ground-plane detection merged from one identity cluster."""

    ground: GroundPoint
    score: float
    cameras: tuple[int, ...]


@dataclass(frozen=True)
class _StaleEntry:
    bbox: BBox
    ground: GroundPoint
    score: float
    frame: int  # frame at which the detection was captured


@dataclass(frozen=True)
class ViewState:
    """Per-camera detector memory (single-owner, replaced each frame)."""

    camera: CameraModel
    grid: BlockGrid
    seed: int
    last_refresh: np.ndarray  # (rows, cols) int, -1 = never processed
    stale_detections: dict[int, _StaleEntry]

    @classmethod
    def initial(cls, camera: CameraModel, grid: BlockGrid, seed: int) -> "ViewState":
        return cls(
            camera,
            grid,
            seed,
            np.full(grid.shape, -1, dtype=np.int64),
            {},
        )


def _entity_rng(vs: ViewState, frame_id: int, person_id: int) -> np.random.Generator:
    return rngmod.substream(vs.seed, rngmod.DETECT, vs.camera.camera_id, frame_id, person_id)


def _fp_rng(vs: ViewState, frame_id: int) -> np.random.Generator:
    return rngmod.substream(vs.seed, rngmod.DETECT_FP, vs.camera.camera_id, frame_id)


def _ground_of(cam: CameraModel, box: BBox) -> GroundPoint | None:
    try:
        return project_image_to_ground(cam, box.foot)
    except GeometryError:
        return None


def simulate_view_detections(
    vs: ViewState,
    actions: np.ndarray,
    gt: GtView,
    frame_id: int,
    cfg: DetectorConfig,
) -> tuple[DetectionSet, ViewState]:
    """Run one frame of the simulated detector under the given block actions.

    Returns the emitted detections and the successor view state. Random
    draws come from per-(frame, person) substreams, so emitted boxes for a
    given identity do not depend on what happens to other blocks or objects.
    """
    actions = np.asarray(actions)
    if actions.shape != vs.grid.shape:
        raise DimensionMismatch(
            f"actions shaped {actions.shape}, grid is {vs.grid.shape}"
        )
    cam = vs.camera
    fresh = actions.astype(bool)
    last_refresh = vs.last_refresh.copy()
    last_refresh[fresh] = frame_id

    # duplicated features survive only while none of their blocks has been
    # re-executed since capture
    stale: dict[int, _StaleEntry] = {}
    for pid, entry in vs.stale_detections.items():
        blocks = blocks_for_bbox(vs.grid, entry.bbox)
        if all(last_refresh[b] <= entry.frame for b in blocks):
            stale[pid] = entry

    detections: list[Detection] = []
    for pid, box, visibility in gt.entries:
        if visibility < cfg.v_min or box.h < cfg.min_box_height_px:
            continue
        touches_fresh = any(fresh[b] for b in blocks_for_bbox(vs.grid, box))
        if touches_fresh:
            erng = _entity_rng(vs, frame_id, pid)
            missed = erng.uniform() < cfg.p_miss
            noise = erng.normal(0.0, 1.0, size=4) * cfg.sigma_px
            if missed:
                continue
            # independent edge jitter: left, top, right, bottom
            noisy = BBox(
                box.x + noise[0],
                box.y + noise[1],
                max(2.0, box.w + (noise[2] - noise[0])),
                max(2.0, box.h + (noise[3] - noise[1])),
            ).clamped(cam.width, cam.height)
            if noisy is None:
                continue
            ground = _ground_of(cam, noisy)
            if ground is None:
                continue
            score = float(min(1.0, max(0.0, visibility)))
            detections.append(Detection(cam.camera_id, noisy, ground, score, stale=False))
            stale[pid] = _StaleEntry(noisy, ground, score, frame_id)
        elif pid in stale:
            entry = stale[pid]
            detections.append(
                Detection(cam.camera_id, entry.bbox, entry.ground, entry.score, stale=True)
            )

    if cfg.fp_rate > 0:
        fresh_blocks = np.argwhere(fresh)
        if len(fresh_blocks):
            frng = _fp_rng(vs, frame_id)
            for _ in range(frng.poisson(cfg.fp_rate)):
                r, c = fresh_blocks[frng.integers(len(fresh_blocks))]
                x0, y0, x1, y1 = vs.grid.block_extent(int(r), int(c))
                cx = frng.uniform(x0, x1)
                cy = frng.uniform(y0, y1)
                w = frng.uniform(16.0, 48.0)
                h = frng.uniform(cfg.min_box_height_px, cfg.min_box_height_px + 70.0)
                box = BBox(cx - w / 2.0, cy - h / 2.0, w, h).clamped(cam.width, cam.height)
                if box is None:
                    continue
                ground = _ground_of(cam, box)
                if ground is None:
                    continue
                score = float(frng.uniform(0.2, 0.7))
                detections.append(Detection(cam.camera_id, box, ground, score, stale=False))

    new_state = ViewState(cam, vs.grid, vs.seed, last_refresh, stale)
    return DetectionSet(cam.camera_id, frame_id, tuple(detections)), new_state


def fuse_ground_plane(clusters: list["Cluster"]) -> list[FusedDetection]:
    """One fused ground-plane detection per identity cluster.

    The fused point is the arithmetic mean of member ground points; the
    score is the best member score.
    """
    return [
        FusedDetection(
            cluster.center,
            max(d.score for d in cluster.members),
            tuple(sorted(d.camera_id for d in cluster.members)),
        )
        for cluster in clusters
    ]
