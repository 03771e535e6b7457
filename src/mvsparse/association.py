"""Server-side cross-camera object association and camera assignment.

Detections from all views are grouped into identity clusters by greedy
view-by-view bipartite matching against running cluster centers on the
ground plane, then each cluster keeps its K largest-box members. The
center-to-detection distance matrix comes from ``gated_distances``: its
finite entries equal ``GroundPoint.distance_to`` bit for bit, and the pairs
it leaves at inf are outside the eps gate either way. Runs once per frame on
the server thread; pure function of its inputs.

Every one-to-one assignment of the program goes through ``solve_assignment``,
an exact solver over Python lists; the matrices are small, and at this size
lists beat numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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


def solve_assignment(cost: np.ndarray) -> tuple[list[int], list[int]]:
    """Minimum-cost assignment of min(rows, cols) pairs of a finite matrix:
    (rows, cols), rows ascending.

    Crouse's shortest augmenting path (IEEE TAES 2016), ported from the
    common C++ ``rectangular_lsap`` with its arithmetic, its transpose of
    tall matrices and its tie rule, so both return the same pairs: each
    row's search scans the columns not yet reached, starting in reverse
    index order, and among the columns at the minimum takes the last
    unassigned one, else the first. Maximize by passing the negated matrix.
    """
    transpose = cost.shape[1] < cost.shape[0]
    c = (cost.T if transpose else cost).tolist()
    n_rows, n_cols = len(c), len(c[0]) if c else 0
    if n_cols == 0:
        return [], []
    inf = math.inf
    u = [0.0] * n_rows
    v = [0.0] * n_cols
    path = [-1] * n_cols
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols
    for cur in range(n_rows):
        # shortest augmenting path from row cur to an unassigned column
        shortest = [inf] * n_cols
        remaining = list(range(n_cols - 1, -1, -1))
        rows_seen, cols_seen = [cur], []
        min_val, i = 0.0, cur
        while True:
            row, ui = c[i], u[i]
            lowest, index = inf, -1
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                if s < lowest or (s == lowest and row4col[j] < 0):
                    lowest, index = s, it
            min_val = lowest
            j = remaining[index]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] < 0:
                break
            i = row4col[j]
            rows_seen.append(i)
        # dual update, then flip the path
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for k in cols_seen:
            v[k] -= min_val - shortest[k]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        order = sorted(range(n_rows), key=col4row.__getitem__)
        return [col4row[k] for k in order], order
    return list(range(n_rows)), col4row


def match_bipartite(
    cost: np.ndarray, eps: float
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Minimum-cost one-to-one assignment restricted to pairs under eps.

    Pairs at or above eps are not assignable: they are replaced by a flat
    penalty larger than any feasible assignment, so the solver first
    maximizes the number of in-gate pairs and then minimizes their total
    cost (plain post-filtering of an ungated solve can trade one good pair
    for two bad ones). A feasible pair alone in its row and its column is
    in every such optimum, so those are taken first and the solver sees
    only the rows and columns left with a feasible entry. Where several
    assignments are optimal, or their costs differ by less than the
    rounding of penalty-sized sums, the one returned may differ from a
    solve of the whole matrix; the pair count does not, and the total cost
    differs only within that rounding. Returns (matched (row, col) pairs in
    row order, unmatched row indices, unmatched column indices).
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2-d matrix")
    n_rows, n_cols = cost.shape
    # flat indices: np.nonzero of a 2-d mask costs several times more
    rows, cols = np.divmod(np.flatnonzero(cost < eps), n_cols)
    rows, cols = rows.tolist(), cols.tolist()
    in_row = [0] * n_rows
    in_col = [0] * n_cols
    for r in rows:
        in_row[r] += 1
    for c in cols:
        in_col[c] += 1
    pairs = [(r, c) for r, c in zip(rows, cols) if in_row[r] == 1 and in_col[c] == 1]
    if len(pairs) < len(rows):
        lone_rows = {r for r, _ in pairs}
        lone_cols = {c for _, c in pairs}
        rest_rows = [r for r in range(n_rows) if in_row[r] and r not in lone_rows]
        rest_cols = [c for c in range(n_cols) if in_col[c] and c not in lone_cols]
        sub = cost[rest_rows][:, rest_cols]
        penalty = eps * (min(n_rows, n_cols) + 1.0) + 1.0
        sub = np.where(sub < eps, sub, penalty)
        pairs += [
            (rest_rows[i], rest_cols[j])
            for i, j in zip(*solve_assignment(sub))
            if sub[i, j] < eps
        ]
        pairs.sort()
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
