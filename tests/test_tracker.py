import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsparse.geometry import GroundPoint
from mvsparse.tracker import (
    GATE,
    GroundTracker,
    TrackerConfig,
    innovation_cov,
    kalman_update,
    mahalanobis_sq,
)


NOISELESS = TrackerConfig(process_noise=0.0, measurement_noise=0.0)


class TestPredict:
    def test_constant_velocity_transition(self):
        tracker = GroundTracker(NOISELESS)
        tracker.tracks.append(tracker._new_track(GroundPoint(0, 0)))
        tracker.tracks[0].mean = np.array([0.0, 0.0, 1.0, 0.0])
        tracker.predict(dt=1.0)
        assert np.allclose(tracker.tracks[0].mean, [1.0, 0.0, 1.0, 0.0])

    def test_zero_velocity_stays_put(self):
        tracker = GroundTracker(NOISELESS)
        tracker.tracks.append(tracker._new_track(GroundPoint(2, 3)))
        tracker.predict(dt=1.0)
        assert np.allclose(tracker.tracks[0].mean[:2], [2.0, 3.0])

    def test_covariance_grows_with_process_noise(self):
        tracker = GroundTracker(TrackerConfig(process_noise=0.5))
        tracker.tracks.append(tracker._new_track(GroundPoint(0, 0)))
        before = np.trace(tracker.tracks[0].cov)
        tracker.predict(dt=1.0)
        assert np.trace(tracker.tracks[0].cov) >= before

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            GroundTracker(NOISELESS).predict(0.0)


def loop_predict(tracks, dt, q):
    """Per-track constant-velocity prediction, the reference for the
    stacked one."""
    F = np.eye(4)
    F[0, 2] = dt
    F[1, 3] = dt
    d4, d3, d2 = dt**4 / 4.0, dt**3 / 2.0, dt**2
    Q = q * np.array(
        [[d4, 0.0, d3, 0.0], [0.0, d4, 0.0, d3], [d3, 0.0, d2, 0.0], [0.0, d3, 0.0, d2]]
    )
    return [(F @ mean, F @ cov @ F.T + Q) for mean, cov in tracks]


_finite = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.lists(_finite, min_size=4, max_size=4), st.lists(_finite, min_size=16, max_size=16)),
        max_size=40,
    ),
    st.floats(1e-3, 2.0),
    st.floats(0.0, 5.0),
)
def test_stacked_predict_equals_the_per_track_loop(raw, dt, q):
    tracker = GroundTracker(TrackerConfig(process_noise=q))
    tracks = [(np.array(m), np.array(c).reshape(4, 4)) for m, c in raw]
    for mean, cov in tracks:
        tracker.tracks.append(tracker._new_track(GroundPoint(0, 0)))
        tracker.tracks[-1].mean, tracker.tracks[-1].cov = mean, cov
    tracker.predict(dt)
    for track, (mean, cov) in zip(tracker.tracks, loop_predict(tracks, dt, q)):
        assert np.array_equal(track.mean, mean)
        assert np.array_equal(track.cov, cov)


class TestAssociateAndUpdate:
    def test_identical_position_matches(self):
        tracker = GroundTracker(NOISELESS)
        tracker.associate_and_update([GroundPoint(1, 1)])
        tracker.predict(1.0)
        tracker.associate_and_update([GroundPoint(1, 1)])
        assert len(tracker.tracks) == 1
        assert tracker.tracks[0].hits == 2

    @pytest.mark.parametrize("scale, tracks", [(0.999, 1), (1.001, 2)], ids=["inside", "outside"])
    def test_chi_square_gate_decides_new_track(self, scale, tracks):
        # the predicted track's innovation covariance is diagonal, so the
        # gate ellipse d^2 = GATE reaches sqrt(GATE * S_xx) along x
        tracker = GroundTracker(TrackerConfig())
        tracker.associate_and_update([GroundPoint(1, 1)])
        tracker.predict(1 / 30)
        s_xx = innovation_cov(tracker.tracks[0].cov[None], tracker.cfg.measurement_noise)[0, 0, 0]
        tracker.associate_and_update([GroundPoint(1 + scale * np.sqrt(GATE * s_xx), 1)])
        assert len(tracker.tracks) == tracks

    def test_noiseless_straight_line_prediction_exact(self):
        # with zero noise matrices the velocity estimate is exact after the
        # first update
        tracker = GroundTracker(NOISELESS)
        v, dt = 0.04, 0.5
        tracker.associate_and_update([GroundPoint(0.0, 0.0)])
        for k in range(1, 4):
            tracker.predict(dt)
            tracker.associate_and_update([GroundPoint(v * dt * k, 0.0)])
        assert len(tracker.tracks) == 1
        assert tracker.tracks[0].hits == 4
        tracker.predict(dt)
        predicted = tracker.tracks[0].position
        truth = GroundPoint(v * dt * 4, 0.0)
        assert predicted.distance_to(truth) < 1e-6

    def test_track_ids_never_reused(self):
        tracker = GroundTracker(TrackerConfig(max_misses=0))
        tracker.associate_and_update([GroundPoint(1, 1)])
        first = tracker.tracks[0].track_id
        tracker.predict(1.0)
        tracker.associate_and_update([])  # miss -> retirement at max_misses=0
        assert tracker.tracks == []
        tracker.predict(1.0)
        tracker.associate_and_update([GroundPoint(1, 1)])
        assert tracker.tracks[0].track_id != first

    def test_retirement_after_max_misses(self):
        cfg = TrackerConfig(max_misses=2)
        tracker = GroundTracker(cfg)
        tracker.associate_and_update([GroundPoint(1, 1)])
        for _ in range(3):
            tracker.predict(1.0)
            tracker.associate_and_update([])
        assert tracker.tracks == []

    def test_reported_applies_min_hits_after_grace(self):
        cfg = TrackerConfig(min_hits=2)
        tracker = GroundTracker(cfg)
        tracker.associate_and_update([GroundPoint(1, 1)])
        assert len(tracker.reported()) == 1  # startup grace
        for _ in range(3):
            tracker.predict(1.0)
            tracker.associate_and_update([GroundPoint(1, 1)])
        # a brand-new track later on needs min_hits before being reported
        tracker.predict(1.0)
        tracker.associate_and_update([GroundPoint(1, 1), GroundPoint(5, 5)])
        reported_ids = {t.track_id for t in tracker.reported()}
        newborn = [t for t in tracker.tracks if t.hits == 1][0]
        assert newborn.track_id not in reported_ids

    def test_covariance_stays_symmetric_psd(self):
        cfg = TrackerConfig(process_noise=0.3, measurement_noise=0.01)
        tracker = GroundTracker(cfg)
        rng = np.random.default_rng(0)
        walkers = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(5)]
        for t in range(60):
            if t:
                tracker.predict(1 / 30)
            dets = [
                GroundPoint(x + 0.3 * t / 30 + rng.normal(0, 0.02), y + rng.normal(0, 0.02))
                for x, y in walkers
            ]
            tracker.associate_and_update(dets)
            for trk in tracker.tracks:
                assert np.allclose(trk.cov, trk.cov.T, atol=1e-12)
                assert np.linalg.eigvalsh(trk.cov).min() >= -1e-9

    def test_well_separated_walkers_keep_ids(self):
        tracker = GroundTracker(TrackerConfig(process_noise=0.0, measurement_noise=0.0))
        starts = [(0.0, 0.0), (3.0, 0.0), (0.0, 3.0), (5.0, 5.0)]
        vel = [(0.5, 0.2), (-0.3, 0.4), (0.2, -0.1), (0.0, 0.5)]
        dt = 1 / 30
        seen_ids = set()
        for t in range(100):
            if t:
                tracker.predict(dt)
            dets = [GroundPoint(x + vx * dt * t, y + vy * dt * t) for (x, y), (vx, vy) in zip(starts, vel)]
            tracker.associate_and_update(dets)
            ids = sorted(t.track_id for t in tracker.tracks)
            assert len(ids) == 4
            seen_ids.update(ids)
        assert len(seen_ids) == 4  # no identity churn


def loop_update(tracks, zs, r):
    """Per-track Kalman update, the reference for the stacked one."""
    H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    R = r * np.eye(2)
    out = []
    for (mean, cov), z in zip(tracks, zs):
        S = H @ cov @ H.T + R + 1e-12 * np.eye(2)
        K = cov @ H.T @ np.linalg.inv(S)
        mean = mean + K @ (z - H @ mean)
        joseph = np.eye(4) - K @ H
        cov = joseph @ cov @ joseph.T + K @ R @ K.T
        out.append((mean, 0.5 * (cov + cov.T)))
    return out


def _spd_covs(raw):
    """Symmetric positive definite 4x4 matrices A A^T + I, condition number
    at most 145 for entries in [-3, 3]."""
    a = np.array(raw, dtype=float).reshape(-1, 4, 4)
    return a @ a.transpose(0, 2, 1) + np.eye(4)


_coords = st.floats(-50.0, 50.0, allow_nan=False)
_entries = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(_coords, min_size=4, max_size=4),
            st.lists(_entries, min_size=16, max_size=16),
            st.lists(_coords, min_size=2, max_size=2),
        ),
        min_size=1,
        max_size=40,
    ),
    st.sampled_from([0.0, 0.0025, 0.005, 0.04, 1.0]),
)
def test_stacked_update_equals_the_per_track_loop(raw, r):
    means = np.array([m for m, _, _ in raw])
    covs = _spd_covs([c for _, c, _ in raw])
    zs = np.array([z for _, _, z in raw])
    s_inv = np.linalg.inv(innovation_cov(covs, r))
    got_means, got_covs = kalman_update(means, covs, s_inv, zs, r)
    for i, (mean, cov) in enumerate(loop_update(list(zip(means, covs)), zs, r)):
        assert np.array_equal(got_means[i], mean)
        assert np.array_equal(got_covs[i], cov)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.lists(_coords, min_size=4, max_size=4), st.lists(_entries, min_size=16, max_size=16)),
        min_size=1,
        max_size=12,
    ),
    st.lists(st.lists(_coords, min_size=2, max_size=2), min_size=1, max_size=12),
    st.sampled_from([0.0, 0.005, 1.0]),
)
def test_batched_mahalanobis_equals_per_pair(raw, raw_z, r):
    means = np.array([m for m, _ in raw])
    S = innovation_cov(_spd_covs([c for _, c in raw]), r)
    z = np.array(raw_z)
    d2 = mahalanobis_sq(means, np.linalg.inv(S), z)
    assert d2.shape == (len(means), len(z))
    for i, mean in enumerate(means):
        for j, zj in enumerate(z):
            nu = zj - mean[:2]
            assert d2[i, j] == pytest.approx(nu @ np.linalg.inv(S[i]) @ nu, rel=1e-12, abs=0.0)
