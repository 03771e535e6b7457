"""The server's pairwise matrices against their scalar definitions.

The gated distance matrices behind clustering and the metrics are numpy
broadcasts; these properties pin them to the scalar per-pair definitions bit
for bit, on point sets with exact ties and points on the gate boundary.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsparse.association import cluster_detections, match_bipartite
from mvsparse.detector import Detection
from mvsparse.geometry import BBox, GroundPoint, gated_distances
from mvsparse.metrics import MetricAccumulator, _match_points

# Offsets that land exactly on the gates, plus a 3-4-5 triple, mixed with
# arbitrary coordinates.
GRID_VALUES = [0.0, 0.0625, 0.125, 0.25, 0.3, 0.4, 0.5, 0.75, 1.0, -0.125, -0.5]
coord = st.one_of(
    st.sampled_from(GRID_VALUES),
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
)
points = st.lists(st.builds(GroundPoint, coord, coord), max_size=8)
gates = st.sampled_from([0.125, 0.3, 0.5, 1.0])

PROPERTY = settings(max_examples=300, deadline=None)


@PROPERTY
@given(points, points, gates)
def test_gated_distances_match_distance_to(a, b, eps):
    dist = gated_distances(a, b, eps)
    assert dist.shape == (len(a), len(b))
    for i, p in enumerate(a):
        for j, q in enumerate(b):
            if math.isinf(dist[i, j]):
                assert p.distance_to(q) >= eps
            else:
                assert dist[i, j] == p.distance_to(q)


# --- scalar references: one distance_to per pair, in double loops -----------


def _reference_match_points(gt, pred, radius):
    if not gt or not pred:
        return []
    cost = np.array([[g.distance_to(p) for p in pred] for g in gt])
    pairs, _, _ = match_bipartite(cost, radius)
    return [(r, c, float(cost[r, c])) for r, c in pairs]


def _reference_cluster_members(views, eps):
    """Views in camera_id order, as ``cluster_detections`` takes them."""
    if not views:
        return []
    clusters = [[d] for d in views[0]]
    for dets in views[1:]:
        centers = [
            GroundPoint(
                sum(d.ground.x for d in cl) / len(cl), sum(d.ground.y for d in cl) / len(cl)
            )
            for cl in clusters
        ]
        cost = np.array(
            [[c.distance_to(d.ground) for d in dets] for c in centers], dtype=float
        ).reshape(len(centers), len(dets))
        pairs, _, unmatched = match_bipartite(cost, eps)
        for ci, di in pairs:
            clusters[ci].append(dets[di])
        for di in unmatched:
            clusters.append([dets[di]])
    return clusters


def _reference_co_presence(gt, tracks, radius):
    out = {}
    for gt_id, gp in gt:
        for trk_id, tp in tracks:
            if gp.distance_to(tp) < radius:
                out[(gt_id, trk_id)] = out.get((gt_id, trk_id), 0) + 1
    return out


@PROPERTY
@given(points, points, gates)
def test_match_points_equals_scalar_reference(gt, pred, radius):
    assert _match_points(gt, pred, radius) == _reference_match_points(gt, pred, radius)


@PROPERTY
@given(st.lists(points, min_size=1, max_size=4), gates)
def test_cluster_detections_equals_scalar_reference(view_points, eps):
    box = BBox(0.0, 0.0, 1.0, 1.0)
    views = [
        tuple(Detection(cam, box, p, False) for p in ps) for cam, ps in enumerate(view_points)
    ]
    got = [cl.members for cl in cluster_detections(views, eps)]
    assert got == _reference_cluster_members(views, eps)


@PROPERTY
@given(points, points, gates)
def test_tracking_frame_equals_scalar_reference(gt_points, trk_points, radius):
    gt = list(enumerate(gt_points))
    tracks = [(100 + i, p) for i, p in enumerate(trk_points)]
    acc = MetricAccumulator(match_radius=radius)
    acc.accumulate_tracking_frame(gt, tracks)
    matches = _reference_match_points(gt_points, trk_points, radius)
    assert acc.trk_fp == len(tracks) - len(matches)
    assert acc.trk_fn == len(gt) - len(matches)
    assert acc._last_matched == {gi: 100 + ti for gi, ti, _ in matches}
    assert acc._co_presence == _reference_co_presence(gt, tracks, radius)
