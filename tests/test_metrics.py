import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from mvsparse.detector import Detection
from mvsparse.geometry import BBox, BlockGrid, GroundPoint
from mvsparse.metrics import MetricAccumulator, oracle_select
from test_geometry import blocks_for_bbox

G = GroundPoint


class TestDetectionAccumulation:
    def test_perfect_detections(self):
        acc = MetricAccumulator()
        gt = [G(1, 1), G(3, 3), G(5, 5)]
        acc.accumulate_detection_frame(gt, list(gt))
        assert acc.tp == 3 and acc.fp == 0 and acc.fn == 0
        assert acc.overlap_sum == pytest.approx(3.0)

    def test_empty_detections_are_all_misses(self):
        acc = MetricAccumulator()
        acc.accumulate_detection_frame([G(i, 0) for i in range(5)], [])
        assert acc.fn == 5 and acc.tp == 0 and acc.fp == 0

    def test_hand_matched_mixed_frame(self):
        acc = MetricAccumulator(match_radius=0.5)
        acc.accumulate_detection_frame([G(0, 0), G(10, 0)], [G(0.25, 0), G(9, 0)])
        assert acc.tp == 1 and acc.fp == 1 and acc.fn == 1
        assert acc.overlap_sum == pytest.approx(0.5)

    def test_precision_recall_micro_scenario(self):
        acc = MetricAccumulator()
        # frame 1: 2 GT, both found plus one extra
        acc.accumulate_detection_frame([G(0, 0), G(4, 4)], [G(0, 0), G(4, 4), G(9, 9)])
        # frame 2: 2 GT, one found
        acc.accumulate_detection_frame([G(0, 0), G(4, 4)], [G(0.1, 0)])
        # frame 3: 1 GT, one found
        acc.accumulate_detection_frame([G(2, 2)], [G(2, 2)])
        report = acc.finalize()
        assert report["precision"] == pytest.approx(4 / 5)
        assert report["recall"] == pytest.approx(4 / 5)
        assert report["moda"] == pytest.approx(1 - (1 + 1) / 5)


class TestTrackingAccumulation:
    def test_perfect_tracking_mota_one(self):
        acc = MetricAccumulator()
        gt = [(i, G(i, 0)) for i in range(10)]
        for _ in range(2):
            acc.accumulate_tracking_frame(gt, [(100 + i, G(i, 0)) for i in range(10)])
        report = acc.finalize()
        assert report["mota"] == pytest.approx(1.0)
        assert report["idf1"] == pytest.approx(1.0)
        assert report["id_switches"] == 0

    def test_spec_mota_085(self):
        acc = MetricAccumulator()
        gt = [(i, G(2 * i, 0)) for i in range(10)]
        # frame 1: 8 matched, 1 false track far away (FP), 2 missed (FN)
        tracks = [(i, G(2 * i, 0)) for i in range(8)] + [(99, G(100, 100))]
        acc.accumulate_tracking_frame(gt, tracks)
        # frame 2: all 10 matched
        acc.accumulate_tracking_frame(gt, [(i, G(2 * i, 0)) for i in range(10)])
        report = acc.finalize()
        assert acc.trk_fp == 1 and acc.trk_fn == 2 and acc.id_switches == 0
        assert report["mota"] == pytest.approx(0.85)

    def test_spec_idf1_08(self):
        acc = MetricAccumulator()
        # one identity over 10 frames; its track is on target for 8 of them
        for t in range(10):
            gt = [(1, G(0, 0))]
            if t < 8:
                acc.accumulate_tracking_frame(gt, [(7, G(0, 0))])
            else:
                acc.accumulate_tracking_frame(gt, [(7, G(50, 50))])
        idtp, idfp, idfn = acc._identity_scores()
        assert (idtp, idfp, idfn) == (8, 2, 2)
        assert acc.finalize()["idf1"] == pytest.approx(0.8)

    def test_id_switch_counted_once_per_change(self):
        acc = MetricAccumulator()
        gt = [(1, G(0, 0))]
        acc.accumulate_tracking_frame(gt, [(10, G(0, 0))])
        acc.accumulate_tracking_frame(gt, [(10, G(0, 0))])
        acc.accumulate_tracking_frame(gt, [(20, G(0, 0))])  # switch
        acc.accumulate_tracking_frame(gt, [(20, G(0, 0))])
        assert acc.id_switches == 1

    def test_switch_detected_across_unmatched_gap(self):
        acc = MetricAccumulator()
        gt = [(1, G(0, 0))]
        acc.accumulate_tracking_frame(gt, [(10, G(0, 0))])
        acc.accumulate_tracking_frame(gt, [])  # gap
        acc.accumulate_tracking_frame(gt, [(11, G(0, 0))])
        assert acc.id_switches == 1

    def test_mota_without_switches_reduces_to_detection_form(self):
        rng = np.random.default_rng(4)
        acc = MetricAccumulator()
        for t in range(5):
            gt = [(i, G(3.0 * i, 0)) for i in range(6)]
            tracks = [
                (i, G(3.0 * i + rng.normal(0, 0.05), 0)) for i in range(6) if rng.random() < 0.8
            ]
            acc.accumulate_tracking_frame(gt, tracks)
        assert acc.id_switches == 0
        report = acc.finalize()
        expected = 1 - (acc.trk_fp + acc.trk_fn) / acc.trk_gt_total
        assert report["mota"] == pytest.approx(expected)


class TestFinalize:
    def test_empty_run_yields_sentinels(self):
        # the partial report of a run that completed no frame carries these
        assert MetricAccumulator().finalize() == {
            "moda": None, "modp": None, "precision": None, "recall": None,
            "mota": None, "idf1": None, "id_switches": 0, "gt_total": 0,
            "tp": 0, "fp": 0, "fn": 0,
        }

    def test_zero_gt_yields_sentinels(self):
        acc = MetricAccumulator()
        acc.accumulate_detection_frame([], [])
        acc.accumulate_tracking_frame([], [])
        report = acc.finalize()
        assert report["moda"] is None
        assert report["mota"] is None
        assert report["precision"] is None


def det_with_blocks(cam, gx, gy, x, y, w=60.0, h=90.0):
    return Detection(cam, BBox(x, y, w, h), G(gx, gy), False)


class TestOracleSelect:
    GRID = BlockGrid.for_image(1152, 640, 128)

    def test_closest_view_wins_at_k1(self):
        gt = [G(5.0, 5.0)]
        views = {
            0: [det_with_blocks(0, 5.1, 5.0, 100, 100)],
            1: [det_with_blocks(1, 5.2, 5.0, 400, 300)],
            2: [det_with_blocks(2, 5.45, 5.0, 800, 200)],
        }
        masks = oracle_select(gt, views, k=1, grid=self.GRID)
        assert masks[0].sum() == len(blocks_for_bbox(self.GRID, views[0][0].bbox))
        assert masks[1].sum() == 0
        assert masks[2].sum() == 0

    def test_k_saturation_takes_all_views(self):
        gt = [G(5.0, 5.0)]
        views = {
            0: [det_with_blocks(0, 5.1, 5.0, 100, 100)],
            1: [det_with_blocks(1, 5.2, 5.0, 400, 300)],
        }
        masks = oracle_select(gt, views, k=5, grid=self.GRID)
        assert masks[0].sum() > 0 and masks[1].sum() > 0

    def test_masks_nested_in_k(self):
        rng = np.random.default_rng(0)
        gt = [G(rng.uniform(0, 12), rng.uniform(0, 36)) for _ in range(8)]
        views = {
            cam: [
                det_with_blocks(
                    cam,
                    p.x + rng.normal(0, 0.1),
                    p.y + rng.normal(0, 0.1),
                    rng.uniform(0, 1000),
                    rng.uniform(0, 500),
                )
                for p in gt
                if rng.random() < 0.8
            ]
            for cam in range(4)
        }
        prev = None
        for k in (1, 2, 3):
            masks = oracle_select(gt, views, k=k, grid=self.GRID)
            sets = {cam: set(map(tuple, np.argwhere(m))) for cam, m in masks.items()}
            if prev is not None:
                for cam in sets:
                    assert prev[cam] <= sets[cam]
            prev = sets
        total = sum(len(s) for s in prev.values())
        assert total <= self.GRID.n_blocks * len(views)

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            oracle_select([], {}, k=0, grid=self.GRID)


def reference_identity_tp(co_presence):
    """IDTP as scipy's maximizing assignment over the co-presence counts."""
    gt_ids = sorted({g for g, _ in co_presence})
    trk_ids = sorted({t for _, t in co_presence})
    gain = np.zeros((len(gt_ids), len(trk_ids)))
    for (g, t), n in co_presence.items():
        gain[gt_ids.index(g), trk_ids.index(t)] = n
    rows, cols = linear_sum_assignment(gain, maximize=True)
    return int(gain[rows, cols].sum())


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 7), st.integers(100, 109)),
        st.integers(1, 4),
        min_size=1,
        max_size=40,
    )
)
def test_identity_true_positives_equal_scipy(co_presence):
    # small counts: many optimal assignments, one IDTP
    acc = MetricAccumulator()
    acc._co_presence = dict(co_presence)
    acc.trk_pred_total = acc.trk_gt_total = sum(co_presence.values())
    idtp, idfp, idfn = acc._identity_scores()
    assert idtp == reference_identity_tp(co_presence)
    assert idfp == idfn == acc.trk_pred_total - idtp
