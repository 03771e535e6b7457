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
    GroundPoint,
    block_range,
    image_to_ground,
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
    fp_rate: float = 0.1  # Poisson rate of false positives per view-frame, at most 708
    min_box_height_px: float = 36.0  # smaller projections are undetectable

    def __post_init__(self):
        for name in ("v_min", "p_miss"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        for name in ("sigma_px", "fp_rate", "min_box_height_px"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.fp_rate > rngmod.POISSON_MAX:
            raise ValueError(f"fp_rate must be at most {rngmod.POISSON_MAX}, got {self.fp_rate}")


@dataclass(frozen=True)
class Detection:
    camera_id: int
    bbox: BBox
    ground: GroundPoint
    stale: bool


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


def simulate_view_detections(
    vs: ViewState,
    actions: np.ndarray,
    gt: GtView,
    frame_id: int,
    cfg: DetectorConfig,
) -> tuple[tuple[Detection, ...], ViewState]:
    """Run one frame of the simulated detector under the given block actions.

    Returns the emitted detections and the successor view state. Each
    fresh walker's miss and edge jitter come from its row of one
    ``rng.uniforms`` call keyed by (camera, frame) and person id, so emitted
    boxes for a given identity do not depend on what happens to other
    blocks or objects. Block tests read a summed-area table of the fresh
    blocks, and all boxes, false positives too, share one ground solve.
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
    picked: list[int] = []
    waiting: list[int] = []
    for i, (pid, box, visibility) in enumerate(gt):
        if visibility < cfg.v_min or box.h < cfg.min_box_height_px:
            continue
        cells = block_range(grid, box)
        (picked if cells is not None and touches_fresh(cells) else waiting).append(i)

    # fresh boxes: missed or jittered and clamped; a walker's column 0
    # decides the miss, columns 1-4 give the edge jitter
    u = rngmod.uniforms(
        vs.seed, (rngmod.DETECT, cam.camera_id, frame_id), [gt[i][0] for i in picked], 5
    )
    jitter = (rngmod.normals(u[:, 1:]) * cfg.sigma_px).tolist()
    noisy: list[tuple[int, BBox]] = []
    for i, missed, (n0, n1, n2, n3) in zip(picked, (u[:, 0] < cfg.p_miss).tolist(), jitter):
        if missed:
            continue
        box = gt[i][1]
        # independent edge jitter: left, top, right, bottom
        jittered = BBox(
            box.x + n0,
            box.y + n1,
            max(2.0, box.w + (n2 - n0)),
            max(2.0, box.h + (n3 - n1)),
        ).clamped(cam.width, cam.height)
        if jittered is not None:
            noisy.append((i, jittered))

    # false positives, keyed by (camera, frame): id 0 draws the count, and
    # id k draws false positive k's fresh block and box
    false_boxes: list[BBox] = []
    if cfg.fp_rate > 0 and fresh.any():
        key = (rngmod.DETECT_FP, cam.camera_id, frame_id)
        count = rngmod.poisson_quantile(rngmod.uniforms(vs.seed, key, [0], 1)[0, 0], cfg.fp_rate)
        fresh_blocks = np.argwhere(fresh).tolist()
        n = len(fresh_blocks)
        rows = rngmod.uniforms(vs.seed, key, range(1, count + 1), 5).tolist() if count else []
        for ub, ux, uy, uw, uh in rows:
            x0, y0, x1, y1 = grid.block_extent(*fresh_blocks[min(int(ub * n), n - 1)])
            cx = x0 + (x1 - x0) * ux
            cy = y0 + (y1 - y0) * uy
            w = 16.0 + 32.0 * uw
            h = cfg.min_box_height_px + 70.0 * uh
            box = BBox(cx - w / 2.0, cy - h / 2.0, w, h).clamped(cam.width, cam.height)
            if box is not None:
                false_boxes.append(box)

    # one ground solve for all boxes; a foot ray that misses the ground drops its box
    boxes = [box for _, box in noisy] + false_boxes
    hits, s = image_to_ground(cam, [(b.foot.u, b.foot.v) for b in boxes])
    grounded = [
        Detection(cam.camera_id, box, GroundPoint(*ground), stale=False) if on_ground else None
        for box, ground, on_ground in zip(boxes, hits.tolist(), (s > 0).tolist())
    ]
    emitted = {i: det for (i, _), det in zip(noisy, grounded) if det is not None}

    # duplicated features survive only while none of their blocks has been
    # re-executed since capture (a fresh block was, this frame); the ones a
    # fresh detection replaces need no test
    replaced = {gt[i][0] for i in emitted}
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
    replays = {i: replace(stale[gt[i][0]][1], stale=True) for i in waiting if gt[i][0] in stale}
    stale.update((gt[i][0], (frame_id, det)) for i, det in emitted.items())
    # fresh detections and replays in gt order, then the false positives
    detections = [emitted.get(i) or replays[i] for i in sorted(emitted.keys() | replays.keys())]
    detections += [det for det in grounded[len(noisy) :] if det is not None]

    new_state = ViewState(cam, grid, vs.seed, last_refresh, stale)
    return tuple(detections), new_state


def fuse_ground_plane(clusters: list["Cluster"]) -> list[GroundPoint]:
    """One fused ground point per identity cluster, in cluster order: the
    arithmetic mean of the members' ground points."""
    return [cluster.center for cluster in clusters]
