import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from mvsparse.association import (
    Cluster,
    assign_cameras,
    cluster_detections,
    match_bipartite,
    solve_assignment,
)
from mvsparse.detector import Detection
from mvsparse.geometry import BBox, BlockGrid, GroundPoint, bbox_block_mask, gated_distances
from test_geometry import blocks_for_bbox
from test_pairwise import gates, points


def det(cam, x, y, area=800.0):
    w = area**0.5
    return Detection(cam, BBox(50.0, 50.0, w, area / w), GroundPoint(x, y), False)


def view(cam, points, areas=None):
    areas = areas or [800.0] * len(points)
    return tuple(det(cam, x, y, a) for (x, y), a in zip(points, areas))


def reference_match_bipartite(cost, eps):
    """The gated assignment as one scipy solve of the whole matrix, with the
    flat penalty in place of every pair at or above eps: the program's code
    before it had its own solver."""
    cost = np.asarray(cost, dtype=float)
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


@st.composite
def cost_matrices(draw):
    """Up to 8x8, wide, tall or square, empty sides included; entries either
    continuous or small integers full of ties."""
    shape = draw(st.tuples(st.integers(0, 8), st.integers(0, 8)))
    elements = draw(
        st.sampled_from(
            [
                st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
                st.integers(0, 3).map(float),
            ]
        )
    )
    return draw(arrays(float, shape, elements=elements))


class TestSolveAssignment:
    @settings(max_examples=1000, deadline=None)
    @given(cost_matrices(), st.booleans())
    @example(np.zeros((0, 4)), False)
    @example(np.zeros((4, 0)), True)
    @example(np.zeros((3, 5)), False)
    def test_equals_scipy(self, cost, maximize):
        rows, cols = linear_sum_assignment(cost, maximize=maximize)
        assert solve_assignment(-cost if maximize else cost) == (rows.tolist(), cols.tolist())


class TestMatchBipartite:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 8),
        st.integers(0, 8),
        st.sampled_from([0.2, 0.5, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_the_whole_matrix_solve_on_tie_free_costs(self, n_rows, n_cols, eps, seed):
        # uniform doubles tie with probability ~0; inf marks pairs a gated
        # distance matrix leaves out
        rng = np.random.default_rng(seed)
        cost = rng.random((n_rows, n_cols))
        cost[rng.random(cost.shape) < 0.3] = np.inf
        assert match_bipartite(cost, eps) == reference_match_bipartite(cost, eps)

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(
            # point sets on the gate-boundary grid, as the metrics see them
            st.tuples(points, points, gates).map(lambda a: (gated_distances(*a), a[2])),
            st.tuples(
                arrays(
                    float,
                    st.tuples(st.integers(0, 8), st.integers(0, 8)),
                    elements=st.integers(0, 3).map(float),
                ),
                st.sampled_from([1.0, 2.0, 3.5]),
            ),
        )
    )
    @example((np.array([[np.inf, 1.2404636725235848e-66], [np.inf, 0.0]]), 0.125))
    def test_ties_keep_the_pair_count_and_total_cost(self, case):
        # Exact ties may resolve to another optimum than the whole-matrix
        # solve. So may costs closer than the rounding of the penalty-sized
        # sums the solvers add: next to a penalty of 1.375 the whole-matrix
        # solve cannot tell 1.24e-66 from 0 (the @example), while the smaller
        # matrix match_bipartite solves holds no penalty there.
        cost, eps = case
        pairs, unmatched_rows, unmatched_cols = match_bipartite(cost, eps)
        ref_pairs, _, _ = reference_match_bipartite(cost, eps)
        assert len(pairs) == len(ref_pairs)
        n = min(cost.shape)
        rounding = 4 * n * math.ulp(n * (eps * (n + 1.0) + 1.0))
        total = math.fsum(cost[p] for p in pairs)
        assert abs(total - math.fsum(cost[p] for p in ref_pairs)) <= rounding
        assert all(cost[p] < eps for p in pairs) and pairs == sorted(pairs)
        assert sorted(unmatched_rows + [r for r, _ in pairs]) == list(range(cost.shape[0]))
        assert sorted(unmatched_cols + [c for _, c in pairs]) == list(range(cost.shape[1]))

    def test_two_by_two_optimal(self):
        pairs, ur, uc = match_bipartite(np.array([[1.0, 3.0], [2.0, 0.5]]), eps=2.0)
        assert set(pairs) == {(0, 0), (1, 1)}
        assert ur == [] and uc == []

    def test_all_costs_at_or_above_eps_unmatched(self):
        pairs, ur, uc = match_bipartite(np.array([[2.0, 3.0], [5.0, 2.0]]), eps=2.0)
        assert pairs == []
        assert ur == [0, 1] and uc == [0, 1]

    def test_single_zero_cost(self):
        pairs, ur, uc = match_bipartite(np.array([[0.0]]), eps=1.0)
        assert pairs == [(0, 0)]
        assert ur == [] and uc == []

    def test_empty_matrices(self):
        pairs, ur, uc = match_bipartite(np.zeros((0, 3)), eps=1.0)
        assert pairs == [] and ur == [] and uc == [0, 1, 2]

    def test_gate_applies_inside_the_assignment(self):
        # an ungated solve would pair (0,1) and (1,0) for total 1.3 and the
        # gate would then discard both; the in-gate pair must survive
        cost = np.array([[0.148, 0.6], [0.7, 30.0]])
        pairs, _, _ = match_bipartite(cost, eps=0.5)
        assert pairs == [(0, 0)]

    def test_maximizes_in_gate_cardinality(self):
        cost = np.array([[0.1, 0.4], [0.2, 30.0]])
        pairs, _, _ = match_bipartite(cost, eps=0.5)
        # (0,1)+(1,0) keeps two pairs even though (0,0) alone is cheaper
        assert set(pairs) == {(0, 1), (1, 0)}


def brute_force_clusters(views, eps):
    """Exhaustive camera-consistent partition search.

    Feasible clusters have all pairwise ground distances under eps;
    minimizes (number of clusters, total intra-cluster pairwise distance).
    Returns the optimum as a frozenset of frozensets of (camera_id, index).
    """
    items = [(d.camera_id, i, d.ground) for v in views for i, d in enumerate(v)]
    best = [None, None]

    def pair_dist(cluster):
        return sum(a[2].distance_to(b[2]) for a, b in itertools.combinations(cluster, 2))

    def recurse(idx, clusters):
        if idx == len(items):
            key = (len(clusters), sum(pair_dist(c) for c in clusters))
            if best[0] is None or key < best[0]:
                best[0] = key
                best[1] = frozenset(
                    frozenset((cam, i) for cam, i, _ in c) for c in clusters
                )
            return
        cam, i, g = items[idx]
        for c in clusters:
            if any(m[0] == cam for m in c):
                continue
            if any(g.distance_to(m[2]) >= eps for m in c):
                continue
            c.append(items[idx])
            recurse(idx + 1, clusters)
            c.pop()
        clusters.append([items[idx]])
        recurse(idx + 1, clusters)
        clusters.pop()

    recurse(0, [])
    return best[1]


def clusters_as_sets(views, clusters):
    key = {}
    for v in views:
        for i, d in enumerate(v):
            key[id(d)] = (d.camera_id, i)
    return frozenset(frozenset(key[id(d)] for d in c.members) for c in clusters)


def random_separated_instance(rng, eps=0.5):
    n_cams = int(rng.integers(2, 4))
    n_objs = int(rng.integers(1, 5))
    while True:
        pts = rng.uniform([0, 0], [14, 14], size=(n_objs, 2))
        ok = all(
            np.hypot(*(pts[i] - pts[j])) > 4.0 * eps
            for i in range(n_objs)
            for j in range(i + 1, n_objs)
        )
        if ok:
            break
    views = []
    for cam in range(n_cams):
        dets = []
        for pt in pts:
            if rng.random() < 0.8:
                jitter = rng.uniform(-eps / 3.5, eps / 3.5, size=2) / np.sqrt(2)
                dets.append(det(cam, pt[0] + jitter[0], pt[1] + jitter[1], area=float(rng.uniform(500, 4000))))
        views.append(tuple(dets))
    return views


class TestClusterDetections:
    def test_single_view_yields_singletons(self):
        views = [view(0, [(0, 0), (5, 5), (9, 1)])]
        clusters = cluster_detections(views, eps=0.5)
        assert len(clusters) == 3
        assert all(len(c.members) == 1 for c in clusters)

    def test_spec_two_view_example(self):
        a = view(0, [(0, 0), (5, 5)])
        b = view(1, [(0.3, 0), (10, 10)])
        clusters = cluster_detections([a, b], eps=1.0)
        got = clusters_as_sets([a, b], clusters)
        assert got == frozenset(
            {frozenset({(0, 0), (1, 0)}), frozenset({(0, 1)}), frozenset({(1, 1)})}
        )
        assert got == brute_force_clusters([a, b], eps=1.0)

    def test_identical_views_pair_up(self):
        pts = [(1, 1), (4, 4), (8, 2)]
        clusters = cluster_detections([view(0, pts), view(1, pts)], eps=1.0)
        assert len(clusters) == 3
        assert all(len(c.members) == 2 for c in clusters)

    def test_camera_uniqueness_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            views = random_separated_instance(rng)
            for c in cluster_detections(views, eps=0.5):
                cams = [d.camera_id for d in c.members]
                assert len(cams) == len(set(cams))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        views = random_separated_instance(rng)
        a = clusters_as_sets(views, cluster_detections(views, eps=0.5))
        b = clusters_as_sets(views, cluster_detections(views, eps=0.5))
        assert a == b

    def test_matches_brute_force_on_separated_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            views = random_separated_instance(rng)
            greedy = clusters_as_sets(views, cluster_detections(views, eps=0.5))
            assert greedy == brute_force_clusters(views, eps=0.5)

    def test_empty_first_view(self):
        a = ()
        b = view(1, [(1, 1), (3, 3)])
        clusters = cluster_detections([a, b], eps=0.5)
        assert len(clusters) == 2


class TestAssignCameras:
    def _cluster(self, areas):
        return Cluster(
            [det(cam, 1.0 + 0.01 * cam, 1.0, area) for cam, area in areas.items()]
        )

    def test_top2_by_area(self):
        cluster = self._cluster({1: 2000.0, 2: 5000.0, 3: 1000.0})
        sel = assign_cameras([cluster], k=2, camera_ids=[1, 2, 3])
        assert len(sel[2]) == 1 and len(sel[1]) == 1 and len(sel[3]) == 0

    def test_k_saturation_selects_everyone(self):
        cluster = self._cluster({0: 2000.0, 1: 500.0, 2: 900.0})
        sel = assign_cameras([cluster], k=5, camera_ids=[0, 1, 2])
        assert all(len(sel[c]) == 1 for c in (0, 1, 2))

    def test_area_tie_breaks_to_lower_camera(self):
        cluster = self._cluster({4: 3000.0, 2: 3000.0})
        sel = assign_cameras([cluster], k=1, camera_ids=[2, 4])
        assert len(sel[2]) == 1 and len(sel[4]) == 0

    def test_mask_matches_selected_boxes(self):
        grid = BlockGrid.for_image(1152, 640, 128)
        clusters = [self._cluster({0: 1500.0, 1: 2500.0}), self._cluster({1: 700.0})]
        sel = assign_cameras(clusters, k=1, camera_ids=[0, 1])
        for cam in (0, 1):
            expected = set()
            for d in sel[cam]:
                expected |= blocks_for_bbox(grid, d.bbox)
            mask = bbox_block_mask(grid, [d.bbox for d in sel[cam]])
            got = {tuple(rc) for rc in np.argwhere(mask)}
            assert got == expected

    def test_blocks_monotone_in_k(self):
        grid = BlockGrid.for_image(1152, 640, 128)
        rng = np.random.default_rng(3)
        views = [
            tuple(
                Detection(
                    cam,
                    BBox(rng.uniform(0, 1000), rng.uniform(0, 500), rng.uniform(20, 120), rng.uniform(40, 130)),
                    GroundPoint(rng.uniform(0, 12), rng.uniform(0, 36)),
                    False,
                )
                for _ in range(6)
            )
            for cam in range(3)
        ]
        clusters = cluster_detections(views, eps=2.0)
        prev = None
        for k in (1, 2, 3):
            sel = assign_cameras(clusters, k=k, camera_ids=[0, 1, 2])
            masks = {cam: bbox_block_mask(grid, [d.bbox for d in sel[cam]]) for cam in (0, 1, 2)}
            total = {cam: set(map(tuple, np.argwhere(masks[cam]))) for cam in (0, 1, 2)}
            if prev is not None:
                for cam in (0, 1, 2):
                    assert prev[cam] <= total[cam]
            prev = total

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            assign_cameras([], k=0, camera_ids=[0])


class TestCluster:
    def test_rejects_same_camera_twice(self):
        with pytest.raises(ValueError):
            Cluster([det(0, 1, 1), det(0, 2, 2)])

    def test_center_is_mean(self):
        c = Cluster([det(0, 0, 0), det(1, 1, 0)])
        assert c.center == GroundPoint(0.5, 0.0)
