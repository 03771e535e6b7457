"""Ground-plane multi-object tracker.

Constant-velocity Kalman filters over (x, y, vx, vy), associated to fused
detections by IoU of fixed-size squares centered on the ground points. The
IoU matrix is one numpy broadcast that equals the scalar ``square_iou`` bit
for bit. Single-owner on the server; strictly sequential per frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .association import match_bipartite
from .detector import FusedDetection
from .geometry import GroundPoint


@dataclass(frozen=True)
class TrackerConfig:
    process_noise: float = 1.0  # white-acceleration spectral density (m/s^2)^2
    measurement_noise: float = 0.0025  # position variance (m^2)
    init_velocity_var: float = 4.0  # velocity variance for new tracks
    iou_threshold: float = 0.5
    square_cells: int = 5  # association square side, in ground cells
    cell_size: float = 0.025  # ground cell side, meters
    max_misses: int = 10
    min_hits: int = 2

    @property
    def square_side(self) -> float:
        return self.square_cells * self.cell_size


@dataclass
class Track:
    track_id: int
    mean: np.ndarray  # (4,) x, y, vx, vy
    cov: np.ndarray  # (4, 4)
    age: int = 0
    hits: int = 1
    misses: int = 0

    @property
    def position(self) -> GroundPoint:
        return GroundPoint(float(self.mean[0]), float(self.mean[1]))


def square_iou(a: GroundPoint, b: GroundPoint, side: float) -> float:
    """IoU of two axis-aligned squares of the given side, centered at a and b."""
    ix = side - abs(a.x - b.x)
    iy = side - abs(a.y - b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (2.0 * side * side - inter)


def square_iou_matrix(a: np.ndarray, b: np.ndarray, side: float) -> np.ndarray:
    """``square_iou`` of every (n, 2) center in a against every (m, 2) center
    in b, as one broadcast. It runs the same IEEE operations in the same
    order, so each entry equals the scalar definition bit for bit."""
    ix = side - np.abs(a[:, None, 0] - b[None, :, 0])
    iy = side - np.abs(a[:, None, 1] - b[None, :, 1])
    inter = np.where((ix > 0) & (iy > 0), ix * iy, 0.0)
    return inter / (2.0 * side * side - inter)


class GroundTracker:
    """Track container with predict / associate-update steps and id hygiene.

    Track ids are issued from a per-run counter and never reused.
    """

    _H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])

    def __init__(self, cfg: TrackerConfig):
        self.cfg = cfg
        self.tracks: list[Track] = []
        self._next_id = 0
        self._frame_count = 0

    def _new_track(self, det: FusedDetection) -> Track:
        mean = np.array([det.ground.x, det.ground.y, 0.0, 0.0])
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
            t.age += 1

    def _kalman_update(self, track: Track, det: FusedDetection) -> None:
        z = np.array([det.ground.x, det.ground.y])
        H = self._H
        R = self.cfg.measurement_noise * np.eye(2)
        S = H @ track.cov @ H.T + R + 1e-12 * np.eye(2)
        K = track.cov @ H.T @ np.linalg.inv(S)
        track.mean = track.mean + K @ (z - H @ track.mean)
        joseph = np.eye(4) - K @ H
        track.cov = joseph @ track.cov @ joseph.T + K @ R @ K.T
        track.cov = 0.5 * (track.cov + track.cov.T)
        track.hits += 1
        track.misses = 0

    def associate_and_update(self, fused: list[FusedDetection]) -> None:
        """Match predicted tracks to fused detections and run the update step.

        Matching is Hungarian on (1 - IoU) of the association squares; pairs
        with IoU at or below the threshold stay unmatched. The tracks x
        detections IoU matrix is one ``square_iou_matrix`` broadcast, equal
        bit for bit to ``square_iou`` of every pair. Unmatched detections
        open new tracks, tracks over the miss budget retire.
        """
        self._frame_count += 1
        side = self.cfg.square_side
        matched_tracks: set[int] = set()
        matched_dets: set[int] = set()
        if self.tracks and fused:
            iou = square_iou_matrix(
                np.array([t.mean[:2] for t in self.tracks]),
                np.array([(d.ground.x, d.ground.y) for d in fused]),
                side,
            )
            # gate: pairs with IoU at or below the threshold are unmatchable
            pairs, _, _ = match_bipartite(
                np.where(iou > self.cfg.iou_threshold, 1.0 - iou, 2.0), 1.0
            )
            for r, c in pairs:
                self._kalman_update(self.tracks[r], fused[c])
                matched_tracks.add(r)
                matched_dets.add(c)
        for i, t in enumerate(self.tracks):
            if i not in matched_tracks:
                t.misses += 1
        for j, det in enumerate(fused):
            if j not in matched_dets:
                self.tracks.append(self._new_track(det))
        self.tracks = [t for t in self.tracks if t.misses <= self.cfg.max_misses]

    def reported(self) -> list[Track]:
        """Tracks stable enough to report (grace period at sequence start)."""
        return [
            t
            for t in self.tracks
            if t.misses == 0
            and (t.hits >= self.cfg.min_hits or self._frame_count <= self.cfg.min_hits)
        ]
