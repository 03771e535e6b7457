"""Simulated per-view detector honoring block actions.

Blocks refreshed this frame produce current (noisy) detections; blocks left
unrefreshed replay the detection captured when they were last processed,
which is how feature duplication shows up at the detection level. Each
ViewState is owned by exactly one camera loop; fusion runs on the server
after all views arrive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from . import rng as rngmod
from .geometry import (
    BBox,
    BlockGrid,
    CameraModel,
    GeometryError,
    GroundPoint,
    block_range,
    image_to_ground,
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
class ViewState:
    """Per-camera detector memory (single-owner, replaced each frame)."""

    camera: CameraModel
    grid: BlockGrid
    seed: int  # the run seed, which keys the detector's draws
    last_refresh: np.ndarray  # (rows, cols) int, -1 = never processed
    # person id -> (capture frame, the fresh detection emitted then)
    stale_detections: dict[int, tuple[int, Detection]]

    @classmethod
    def initial(cls, camera: CameraModel, grid: BlockGrid, seed: int) -> "ViewState":
        return cls(
            camera,
            grid,
            seed,
            np.full(grid.shape, -1, dtype=np.int64),
            {},
        )


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

    Returns the emitted detections and the successor view state. Each
    fresh walker's miss and edge jitter come from its row of one
    ``rng.uniforms`` call keyed by (camera, frame) and person id, so emitted
    boxes for a given identity do not depend on what happens to other
    blocks or objects. Block tests read a summed-area table of the fresh
    blocks, and the fresh boxes share one stacked ground solve.
    """
    actions = np.asarray(actions)
    if actions.shape != vs.grid.shape:
        raise DimensionMismatch(
            f"actions shaped {actions.shape}, grid is {vs.grid.shape}"
        )
    cam, grid = vs.camera, vs.grid
    fresh = actions.astype(bool)
    last_refresh = vs.last_refresh.copy()
    last_refresh[fresh] = frame_id
    # summed-area table of the fresh blocks: a cell range touches a fresh
    # block iff its sum is positive
    sat = np.zeros((grid.rows + 1, grid.cols + 1), dtype=np.int64)
    sat[1:, 1:] = fresh.cumsum(axis=0).cumsum(axis=1)
    sat = sat.tolist()

    def touches_fresh(cells: tuple[int, int, int, int]) -> bool:
        r0, r1, c0, c1 = cells
        return sat[r1 + 1][c1 + 1] - sat[r0][c1 + 1] - sat[r1 + 1][c0] + sat[r0][c0] > 0

    # detectable gt entries that touch a fresh block are detected afresh;
    # the others may replay the detector's memory
    entries = gt.entries
    picked: list[int] = []
    waiting: list[int] = []
    for i, (pid, box, visibility) in enumerate(entries):
        if visibility < cfg.v_min or box.h < cfg.min_box_height_px:
            continue
        cells = block_range(grid, box)
        (picked if cells is not None and touches_fresh(cells) else waiting).append(i)

    # fresh boxes: missed or jittered and clamped, then grounded together;
    # a walker's column 0 decides the miss, columns 1-4 give the edge jitter
    u = rngmod.uniforms(
        vs.seed, (rngmod.DETECT, cam.camera_id, frame_id), [entries[i][0] for i in picked], 5
    )
    jitter = (rngmod.normals(u[:, 1:]) * cfg.sigma_px).tolist()
    noisy: list[tuple[int, BBox]] = []
    for i, missed, (n0, n1, n2, n3) in zip(picked, (u[:, 0] < cfg.p_miss).tolist(), jitter):
        if missed:
            continue
        box = entries[i][1]
        # independent edge jitter: left, top, right, bottom
        jittered = BBox(
            box.x + n0,
            box.y + n1,
            max(2.0, box.w + (n2 - n0)),
            max(2.0, box.h + (n3 - n1)),
        ).clamped(cam.width, cam.height)
        if jittered is not None:
            noisy.append((i, jittered))
    hits, s = image_to_ground(cam, [(b.x + b.w / 2.0, b.y + b.h) for _, b in noisy])
    emitted: dict[int, Detection] = {}
    for (i, box), ground, on_ground in zip(noisy, hits.tolist(), (s > 0).tolist()):
        if on_ground:
            score = float(min(1.0, max(0.0, entries[i][2])))
            emitted[i] = Detection(cam.camera_id, box, GroundPoint(*ground), score, stale=False)

    # duplicated features survive only while none of their blocks has been
    # re-executed since capture (a fresh block was, this frame); the ones a
    # fresh detection replaces need no test
    replaced = {entries[i][0] for i in emitted}
    stale: dict[int, tuple[int, Detection]] = {}
    for pid, (captured, det) in vs.stale_detections.items():
        if pid in replaced:
            continue
        cells = block_range(grid, det.bbox)
        if cells is None:
            stale[pid] = (captured, det)
            continue
        r0, r1, c0, c1 = cells
        if not touches_fresh(cells) and last_refresh[r0 : r1 + 1, c0 : c1 + 1].max() <= captured:
            stale[pid] = (captured, det)
    replays = {
        i: replace(stale[entries[i][0]][1], stale=True) for i in waiting if entries[i][0] in stale
    }
    stale.update((entries[i][0], (frame_id, det)) for i, det in emitted.items())
    # in gt order
    detections = [emitted.get(i) or replays[i] for i in sorted(emitted.keys() | replays.keys())]

    if cfg.fp_rate > 0 and fresh.any():
        frng = rngmod.substream(vs.seed, rngmod.DETECT_FP, cam.camera_id, frame_id)
        n_false = frng.poisson(cfg.fp_rate)
        if n_false:
            fresh_blocks = np.argwhere(fresh)
            for _ in range(n_false):
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
