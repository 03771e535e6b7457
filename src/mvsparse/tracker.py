"""Ground-plane multi-object tracker.

Constant-velocity Kalman filters over (x, y, vx, vy). One quantity judges
closeness: the innovation covariance S = HPH^T + R. A detection may update a
track only inside the chi-square gate on its squared Mahalanobis distance
d^2 = nu^T S^-1 nu, the Hungarian cost is the innovation's negative
log-likelihood d^2 + ln|S|, and the update uses the same S. Single-owner on
the server; strictly sequential per frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .association import match_bipartite
from .geometry import GroundPoint

GATE = 9.21  # chi-square quantile, 2 degrees of freedom, 99%

_H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


@dataclass(frozen=True)
class TrackerConfig:
    process_noise: float = 1.0  # white-acceleration spectral density (m/s^2)^2
    measurement_noise: float = 0.005  # fused-minus-truth position variance (m^2)
    init_velocity_var: float = 4.0  # velocity variance for new tracks
    max_misses: int = 10
    min_hits: int = 2

    def __post_init__(self):
        for name in ("process_noise", "measurement_noise", "init_velocity_var", "max_misses"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class Track:
    track_id: int
    mean: np.ndarray  # (4,) x, y, vx, vy
    cov: np.ndarray  # (4, 4)
    hits: int = 1
    misses: int = 0

    @property
    def position(self) -> GroundPoint:
        return GroundPoint(float(self.mean[0]), float(self.mean[1]))


def innovation_cov(covs: np.ndarray, r: float) -> np.ndarray:
    """S = H P H^T + R of every (n, 4, 4) covariance, with a 1e-12 jitter
    that keeps S invertible when R is zero."""
    return _H @ covs @ _H.T + r * np.eye(2) + 1e-12 * np.eye(2)


def mahalanobis_sq(means: np.ndarray, s_inv: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(n, m) squared Mahalanobis distances nu^T S^-1 nu of every (m, 2)
    measurement in z from every track, nu = z - H mean."""
    nu = z[None, :, :] - means[:, None, :2]
    return np.einsum("nmi,nij,nmj->nm", nu, s_inv, nu)


def kalman_update(
    means: np.ndarray, covs: np.ndarray, s_inv: np.ndarray, z: np.ndarray, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked Kalman update of (k, 4) means and (k, 4, 4) covariances by
    (k, 2) measurements, given each pair's inverse innovation covariance:
    K = P H^T S^-1, the Joseph-form covariance, then symmetrisation. Each
    slice equals the per-track update bit for bit (tests/test_tracker.py)."""
    R = r * np.eye(2)
    K = covs @ _H.T @ s_inv
    nu = z[:, :, None] - _H @ means[:, :, None]
    means = means + (K @ nu)[:, :, 0]
    joseph = np.eye(4) - K @ _H
    covs = joseph @ covs @ joseph.transpose(0, 2, 1) + K @ R @ K.transpose(0, 2, 1)
    return means, 0.5 * (covs + covs.transpose(0, 2, 1))


class GroundTracker:
    """Track container with predict / associate-update steps and id hygiene.

    Track ids are issued from a per-run counter and never reused.
    """

    def __init__(self, cfg: TrackerConfig):
        self.cfg = cfg
        self.tracks: list[Track] = []
        self._next_id = 0
        self._frame_count = 0

    def _new_track(self, p: GroundPoint) -> Track:
        mean = np.array([p.x, p.y, 0.0, 0.0])
        r = self.cfg.measurement_noise
        cov = np.diag([r, r, self.cfg.init_velocity_var, self.cfg.init_velocity_var])
        track = Track(self._next_id, mean, cov)
        self._next_id += 1
        return track

    def predict(self, dt: float) -> None:
        """Constant-velocity prediction of every live track."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        F = np.eye(4)
        F[0, 2] = dt
        F[1, 3] = dt
        q = self.cfg.process_noise
        d4, d3, d2 = dt**4 / 4.0, dt**3 / 2.0, dt**2
        Q = q * np.array(
            [
                [d4, 0.0, d3, 0.0],
                [0.0, d4, 0.0, d3],
                [d3, 0.0, d2, 0.0],
                [0.0, d3, 0.0, d2],
            ]
        )
        if not self.tracks:
            return
        # stacked F @ mean and F @ cov @ F.T + Q equal the per-track
        # products bit for bit (tests/test_tracker.py); means @ F.T need not
        means = (F[None] @ np.array([t.mean for t in self.tracks])[:, :, None])[:, :, 0]
        covs = F @ np.array([t.cov for t in self.tracks]) @ F.T + Q
        for t, mean, cov in zip(self.tracks, means, covs):
            t.mean = mean
            t.cov = cov

    def associate_and_update(self, fused: list[GroundPoint]) -> None:
        """Match predicted tracks to the frame's fused ground points inside
        the gate, at least cost d^2 + ln|S| (shifted to be non-negative), and
        update the matched tracks in one stacked step. Unmatched points open
        new tracks, tracks over the miss budget retire."""
        self._frame_count += 1
        r = self.cfg.measurement_noise
        opened = list(range(len(fused)))
        for t in self.tracks:
            t.misses += 1
        if self.tracks and fused:
            means = np.array([t.mean for t in self.tracks])
            covs = np.array([t.cov for t in self.tracks])
            z = np.array([(p.x, p.y) for p in fused])
            S = innovation_cov(covs, r)
            s_inv = np.linalg.inv(S)
            d2 = mahalanobis_sq(means, s_inv, z)
            log_det = np.linalg.slogdet(S)[1]
            eps = GATE + np.ptp(log_det) + 1.0  # above every in-gate cost, after rounding too
            cost = np.where(d2 < GATE, d2 + (log_det - log_det.min())[:, None], eps)
            pairs, _, opened = match_bipartite(cost, eps)
            rows, cols = np.array(pairs, dtype=int).reshape(-1, 2).T
            updated = kalman_update(means[rows], covs[rows], s_inv[rows], z[cols], r)
            for i, mean, cov in zip(rows.tolist(), *updated):
                track = self.tracks[i]
                track.mean, track.cov = mean, cov
                track.hits += 1
                track.misses = 0
        self.tracks.extend(self._new_track(fused[j]) for j in opened)
        self.tracks = [t for t in self.tracks if t.misses <= self.cfg.max_misses]

    def reported(self) -> list[Track]:
        """Tracks stable enough to report (grace period at sequence start)."""
        return [
            t
            for t in self.tracks
            if t.misses == 0
            and (t.hits >= self.cfg.min_hits or self._frame_count <= self.cfg.min_hits)
        ]
