"""Evaluation suite: detection and tracking scores.

Detection and tracking quality are both measured on the ground plane with a
fixed match radius. Identity scores follow the standard global-assignment
definition: per-frame co-presence within the radius feeds a single optimal
GT-identity to track-identity assignment at finalize time. Distance matrices
come from ``gated_distances``, bit-equal to ``GroundPoint.distance_to``
inside the radius.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .association import match_bipartite, solve_assignment
from .detector import Detection
from .geometry import BBox, BlockGrid, GroundPoint, bbox_block_mask, gated_distances, left_sum

DEFAULT_MATCH_RADIUS = 0.5


def _match_points(
    gt: list[GroundPoint], pred: list[GroundPoint], radius: float
) -> list[tuple[int, int, float]]:
    """Gated Hungarian matching on ground distance."""
    cost = gated_distances(gt, pred, radius)
    pairs, _, _ = match_bipartite(cost, radius)
    return [(r, c, float(cost[r, c])) for r, c in pairs]


@dataclass
class MetricAccumulator:
    """Run-long tallies; single-owner, finalize is pure."""

    match_radius: float = DEFAULT_MATCH_RADIUS
    # detection
    gt_total: int = 0
    tp: int = 0
    fp: int = 0
    fn: int = 0
    overlap_sum: float = 0.0
    # tracking
    trk_gt_total: int = 0
    trk_fp: int = 0
    trk_fn: int = 0
    id_switches: int = 0
    trk_pred_total: int = 0
    _last_matched: dict[int, int] = field(default_factory=dict)
    _co_presence: dict[tuple[int, int], int] = field(default_factory=dict)

    def accumulate_detection_frame(
        self, gt_points: list[GroundPoint], detections: list[GroundPoint]
    ) -> None:
        matches = _match_points(gt_points, detections, self.match_radius)
        n_match = len(matches)
        self.gt_total += len(gt_points)
        self.tp += n_match
        self.fp += len(detections) - n_match
        self.fn += len(gt_points) - n_match
        self.overlap_sum += left_sum(1.0 - d / self.match_radius for _, _, d in matches)

    def accumulate_tracking_frame(
        self,
        gt: list[tuple[int, GroundPoint]],
        tracks: list[tuple[int, GroundPoint]],
    ) -> None:
        dist = gated_distances([p for _, p in gt], [p for _, p in tracks], self.match_radius)
        matches, _, _ = match_bipartite(dist, self.match_radius)
        self.trk_gt_total += len(gt)
        self.trk_pred_total += len(tracks)
        self.trk_fp += len(tracks) - len(matches)
        self.trk_fn += len(gt) - len(matches)
        for gi, ti in matches:
            gt_id = gt[gi][0]
            trk_id = tracks[ti][0]
            prev = self._last_matched.get(gt_id)
            if prev is not None and prev != trk_id:
                self.id_switches += 1
            self._last_matched[gt_id] = trk_id
        # identity co-presence feeds the global IDF1 assignment
        for gi, ti in zip(*np.nonzero(dist < self.match_radius)):
            key = (gt[gi][0], tracks[ti][0])
            self._co_presence[key] = self._co_presence.get(key, 0) + 1

    def _identity_scores(self) -> tuple[int, int, int]:
        """(IDTP, IDFP, IDFN) from the optimal identity assignment. IDTP is
        an integer sum, so every optimal assignment gives the same scores."""
        if not self._co_presence:
            return 0, self.trk_pred_total, self.trk_gt_total
        gt_ids = sorted({g for g, _ in self._co_presence})
        trk_ids = sorted({t for _, t in self._co_presence})
        gt_row = {g: i for i, g in enumerate(gt_ids)}
        trk_col = {t: j for j, t in enumerate(trk_ids)}
        gain = np.zeros((len(gt_ids), len(trk_ids)))
        for (g, t), n in self._co_presence.items():
            gain[gt_row[g], trk_col[t]] = n
        rows, cols = solve_assignment(-gain)
        idtp = int(gain[rows, cols].sum())
        return idtp, self.trk_pred_total - idtp, self.trk_gt_total - idtp

    def finalize(self) -> dict:
        """Aggregate scores; degenerate denominators yield None sentinels, so
        an accumulator that saw no frame finalizes to all-None scores and zero
        counts."""

        def ratio(num: float, den: float):
            return num / den if den > 0 else None

        moda = None
        if self.gt_total > 0:
            moda = 1.0 - (self.fp + self.fn) / self.gt_total
        mota = None
        if self.trk_gt_total > 0:
            mota = 1.0 - (self.trk_fp + self.trk_fn + self.id_switches) / self.trk_gt_total
        idtp, idfp, idfn = self._identity_scores()
        idf1 = ratio(2.0 * idtp, 2.0 * idtp + idfp + idfn)
        return {
            "moda": moda,
            "modp": ratio(self.overlap_sum, self.tp),
            "precision": ratio(self.tp, self.tp + self.fp),
            "recall": ratio(self.tp, self.tp + self.fn),
            "mota": mota,
            "idf1": idf1,
            "id_switches": self.id_switches,
            "gt_total": self.gt_total,
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
        }


def oracle_select(
    gt_points: list[GroundPoint],
    view_detections: dict[int, list[Detection]],
    k: int,
    grid: BlockGrid,
    match_radius: float = DEFAULT_MATCH_RADIUS,
) -> dict[int, np.ndarray]:
    """Privileged block selection from ground truth.

    Each view's detections are bipartite-matched to the true positions;
    for every target the K views with the closest matched detection keep
    it, and a view's mask is the union of the blocks of its kept boxes.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    kept: dict[int, list[BBox]] = {cam: [] for cam in view_detections}
    per_target: dict[int, list[tuple[float, int, Detection]]] = {
        i: [] for i in range(len(gt_points))
    }
    for cam in sorted(view_detections):
        dets = view_detections[cam]
        matches = _match_points(gt_points, [d.ground for d in dets], match_radius)
        for gi, di, dist in matches:
            per_target[gi].append((dist, cam, dets[di]))
    for candidates in per_target.values():
        candidates.sort(key=lambda e: (e[0], e[1]))
        for dist, cam, det in candidates[: min(k, len(candidates))]:
            kept[cam].append(det.bbox)
    return {cam: bbox_block_mask(grid, boxes) for cam, boxes in kept.items()}
