"""Server-side cross-camera object association and camera assignment.

Detections from all views are grouped into identity clusters by greedy
view-by-view bipartite matching against running cluster centers on the
ground plane, then each cluster keeps its K largest-box members. The
center-to-detection distance matrix comes from ``gated_distances``: its
finite entries equal ``GroundPoint.distance_to`` bit for bit, and the pairs
it leaves at inf are outside the eps gate either way. Runs once per frame on
the server thread; pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .detector import Detection
from .geometry import GroundPoint, gated_distances, left_sum


@dataclass
class Cluster:
    """Detections of one identity, at most one per camera."""

    members: list[Detection] = field(default_factory=list)

    def __post_init__(self):
        cams = [d.camera_id for d in self.members]
        if len(cams) != len(set(cams)):
            raise ValueError("cluster holds two detections from the same camera")

    @property
    def center(self) -> GroundPoint:
        gx = left_sum(d.ground.x for d in self.members) / len(self.members)
        gy = left_sum(d.ground.y for d in self.members) / len(self.members)
        return GroundPoint(gx, gy)

    def add(self, det: Detection) -> None:
        if any(d.camera_id == det.camera_id for d in self.members):
            raise ValueError(f"cluster already holds camera {det.camera_id}")
        self.members.append(det)


def match_bipartite(
    cost: np.ndarray, eps: float
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Minimum-cost one-to-one assignment restricted to pairs under eps.

    Pairs at or above eps are not assignable: they are replaced by a flat
    penalty larger than any feasible assignment, so the solver first
    maximizes the number of in-gate pairs and then minimizes their total
    cost (plain post-filtering of an ungated solve can trade one good pair
    for two bad ones). Returns (matched (row, col) pairs, unmatched row
    indices, unmatched column indices).
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2-d matrix")
    n_rows, n_cols = cost.shape
    if n_rows == 0 or n_cols == 0:
        return [], list(range(n_rows)), list(range(n_cols))
    feasible = cost < eps
    penalty = eps * (min(n_rows, n_cols) + 1.0) + 1.0
    gated = np.where(feasible, cost, penalty)
    rows, cols = linear_sum_assignment(gated)
    pairs = [(int(r), int(c)) for r, c in zip(rows, cols) if feasible[r, c]]
    matched_rows = {r for r, _ in pairs}
    matched_cols = {c for _, c in pairs}
    unmatched_rows = [r for r in range(n_rows) if r not in matched_rows]
    unmatched_cols = [c for c in range(n_cols) if c not in matched_cols]
    return pairs, unmatched_rows, unmatched_cols


def cluster_detections(views: list[tuple[Detection, ...]], eps: float) -> list[Cluster]:
    """Greedy cross-camera clustering of one frame's views.

    ``views`` holds each camera's detections of the frame, in camera_id
    order; the caller orders them, because an empty view carries no id (the
    server passes ``RunConfig.camera_ids`` order). Clusters start from the first view's
    detections; each subsequent view is bipartite-matched (ground distance,
    gated at eps) against the centers of the clusters formed so far.
    Matched detections join their cluster, unmatched ones open new
    singletons. The result is a pure function of the views in that order.
    """
    if not views:
        return []
    clusters = [Cluster([d]) for d in views[0]]
    for dets in views[1:]:
        cost = gated_distances([cl.center for cl in clusters], [d.ground for d in dets], eps)
        pairs, _, unmatched = match_bipartite(cost, eps)
        for ci, di in pairs:
            clusters[ci].add(dets[di])
        for di in unmatched:
            clusters.append(Cluster([dets[di]]))
    return clusters


def assign_cameras(
    clusters: list[Cluster], k: int, camera_ids: list[int]
) -> dict[int, tuple[Detection, ...]]:
    """Keep the K largest-box members of every cluster: camera_id -> the
    detections assigned to that view (gamma_c), in cluster order. Ties in
    area go to the lower camera_id. Each camera derives its block mask from
    its assigned boxes."""
    if k < 1:
        raise ValueError("k must be >= 1")
    selected: dict[int, list[Detection]] = {c: [] for c in camera_ids}
    for cluster in clusters:
        ranked = sorted(cluster.members, key=lambda d: (-d.bbox.area, d.camera_id))
        for det in ranked[:k]:
            selected[det.camera_id].append(det)
    return {c: tuple(v) for c, v in selected.items()}
