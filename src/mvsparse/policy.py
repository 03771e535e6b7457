"""Per-camera online block-selection agent.

The policy is a logistic-linear map over seven handcrafted per-block
features with weights shared across blocks. Actions are independent
Bernoulli draws per block, thresholding uniforms keyed by (run seed,
camera, frame), so a frame's draw does not depend on the frames before it.
The reward combines a masked information-gain term with a view-level
computation cost, and weights are updated online by plain score-function
policy gradient every ``train_interval`` frames.

The camera's schematic frame is a list of painted pixel spans
(``scene.ViewPaint``), and every box is an integer pixel span, so the
motion, coverage and information-gain fractions are exact per-block pixel
counts over the cells those spans cut (``geometry.SpanCells``), divided by
the block areas; no raster is drawn.

One agent per camera, single-owner mutable state. Server feedback arrives
as immutable values; agents never share anything.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .detector import Detection, DimensionMismatch
from .geometry import BBox, BlockGrid, GroundPoint, SpanCells
from .scene import BACKGROUND, ViewPaint

logger = logging.getLogger(__name__)

N_FEATURES = 7


class NonFiniteGradient(Exception):
    """Gradient or updated weights left the finite range; step skipped."""


@dataclass(frozen=True)
class PolicyConfig:
    alpha: float = 0.01  # learning rate
    momentum: float = 0.9  # EMA momentum for the processed-blocks average
    train_interval: int = 10  # frames between gradient steps
    full_refresh_interval: int = 32  # forced all-ones actions cadence
    p_floor: float = 1e-4  # probability clamp for gradient stability
    motion_threshold: float = 10.0  # intensity delta counting as motion
    ig_match_eps: float = 0.5  # ground radius separating novel detections

    def __post_init__(self):
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.train_interval < 1:
            raise ValueError("train_interval must be >= 1")
        if not 0 < self.p_floor < 0.5:
            raise ValueError(f"p_floor must be in (0, 0.5), got {self.p_floor}")


@dataclass
class PolicyParams:
    """Learnable weights plus the view-level running state they depend on."""

    weights: np.ndarray  # (N_FEATURES,), last entry multiplies the bias feature
    avg_processed: float = 1.0  # M, moving average of processed fraction

    @classmethod
    def initial(cls) -> "PolicyParams":
        return cls(np.zeros(N_FEATURES))


@dataclass(frozen=True)
class PolicyState:
    """Inputs the per-block features are computed from (one camera, one frame)."""

    frame_id: int
    frame: ViewPaint
    prev_frame: ViewPaint | None  # None on a camera's first frame
    topk_boxes: tuple[BBox, ...]  # previous-frame assigned detections
    mask: np.ndarray  # previous-frame block assignment mask (rows, cols)
    prev_detection_boxes: tuple[BBox, ...]
    last_refresh: np.ndarray  # (rows, cols) frame of last processing, -1 never
    detection_history: dict[int, tuple[GroundPoint, ...]]  # frame -> grounds


@dataclass(frozen=True)
class BlockActions:
    actions: np.ndarray  # (rows, cols) in {0, 1}


@dataclass(frozen=True)
class WindowSample:
    features: np.ndarray  # (n_blocks, N_FEATURES)
    actions: np.ndarray  # (n_blocks,)
    rewards: np.ndarray  # (n_blocks,)


def _moving(cells: SpanCells, state: PolicyState, threshold: float) -> np.ndarray:
    """Cells whose intensity changed by more than the threshold since the
    previous frame (none on the first frame)."""
    cur = cells.painted(state.frame.rects, BACKGROUND)
    prev = cur if state.prev_frame is None else cells.painted(state.prev_frame.rects, BACKGROUND)
    return np.abs(cur - prev) > threshold


def _frame_spans(state: PolicyState) -> list[tuple[int, int, int, int]]:
    frames = (state.frame,) if state.prev_frame is None else (state.frame, state.prev_frame)
    return [r[1:] for f in frames for r in f.rects]


def _box_spans(boxes, grid: BlockGrid) -> list[tuple[int, int, int, int]]:
    return [box.pixel_bounds(*grid.image_size) for box in boxes]


def extract_block_features(
    state: PolicyState, grid: BlockGrid, cfg: PolicyConfig
) -> np.ndarray:
    """(n_blocks, 7) feature matrix, all entries in [0, 1].

    Columns: motion fraction, assignment-mask bit, previous-detection
    coverage, assigned-box coverage, previous action (the block was
    processed last frame), normalized staleness, constant bias.
    """
    sizes = [(f.width, f.height) for f in (state.frame, state.prev_frame) if f is not None]
    if any(size != grid.image_size for size in sizes):
        raise DimensionMismatch(f"frame {sizes} vs grid image {grid.image_size}")
    if state.last_refresh.shape != grid.shape or state.mask.shape != grid.shape:
        raise DimensionMismatch("refresh/mask grids do not match the block grid")

    det_spans = _box_spans(state.prev_detection_boxes, grid)
    topk_spans = _box_spans(state.topk_boxes, grid)
    cells = SpanCells(grid, _frame_spans(state) + det_spans + topk_spans)
    counts = grid.block_pixel_counts()
    motion = cells.block_counts(_moving(cells, state, cfg.motion_threshold)) / counts
    det_cov = cells.block_counts(cells.covered(det_spans)) / counts
    topk_cov = cells.block_counts(cells.covered(topk_spans)) / counts
    staleness = np.clip(
        (state.frame_id - state.last_refresh) / max(1, cfg.full_refresh_interval), 0.0, 1.0
    )
    n = grid.n_blocks
    feats = np.empty((n, N_FEATURES))
    feats[:, 0] = motion.reshape(n)
    feats[:, 1] = state.mask.reshape(n).astype(float)
    feats[:, 2] = det_cov.reshape(n)
    feats[:, 3] = topk_cov.reshape(n)
    feats[:, 4] = (state.last_refresh == state.frame_id - 1).reshape(n)
    feats[:, 5] = staleness.reshape(n)
    feats[:, 6] = 1.0
    return feats


# the largest double whose exp is finite; math.exp raises above it
_EXP_MAX = 709.782712893384


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function of each entry of a vector, 1 / (1 + exp(-x)) with
    libm's ``exp`` (``math.exp``): the usual ``expit`` formula, bit for bit
    (``np.exp`` can differ from libm in the last place). Where exp(-x)
    overflows, the result is 1 / (1 + inf) = 0."""
    t = -z
    t[t > _EXP_MAX] = np.inf
    return 1.0 / (1.0 + np.fromiter(map(math.exp, t.tolist()), float, len(t)))


def forward(params: PolicyParams, features: np.ndarray, p_floor: float = 1e-4) -> np.ndarray:
    """Per-block selection probabilities, clamped away from 0 and 1."""
    if features.shape[1] != params.weights.shape[0]:
        raise DimensionMismatch(
            f"{features.shape[1]} features vs {params.weights.shape[0]} weights"
        )
    z = features @ params.weights
    return np.clip(sigmoid(z), p_floor, 1.0 - p_floor)


def sample_actions(
    probs: np.ndarray, seed: int, key: tuple[int, ...], force_full: bool = False
) -> np.ndarray:
    """Independent Bernoulli draws: block i is processed when its uniform,
    row i of ``rng.uniforms(seed, key, range(n_blocks), 1)``, falls below its
    probability. A forced frame processes every block and draws nothing."""
    if force_full:
        return np.ones_like(probs, dtype=np.uint8)
    u = rng.uniforms(seed, key, range(probs.size), 1).reshape(probs.shape)
    return (u < probs).astype(np.uint8)


def information_gain(
    state: PolicyState,
    current: tuple[Detection, ...],
    gamma_mask: np.ndarray,
    grid: BlockGrid,
    cfg: PolicyConfig,
) -> np.ndarray:
    """Per-block masked information gain.

    A pixel of block b counts when it lies inside a current detection box
    whose ground point is farther than ``ig_match_eps`` from every detection
    recorded when b was last refreshed (a novel object), or when it moved
    and lies inside any current detection box. The per-block fraction is
    then masked by the camera-assignment bit, so blocks outside the view's
    responsibility earn nothing.
    """
    if gamma_mask.shape != grid.shape:
        raise DimensionMismatch("gamma mask does not match the block grid")
    out = np.zeros(grid.shape, dtype=float)
    if not gamma_mask.any():
        return out

    det_spans = _box_spans([d.bbox for d in current], grid)
    cells = SpanCells(grid, _frame_spans(state) + det_spans)
    moving_in_dets = _moving(cells, state, cfg.motion_threshold) & cells.covered(det_spans)

    # novelty of each detection depends on which frame a block last saw
    counts = grid.block_pixel_counts()
    active = gamma_mask != 0
    for ref in np.unique(state.last_refresh[active]).tolist():
        refs = state.detection_history.get(ref, ())
        novel = [
            span
            for span, d in zip(det_spans, current)
            if all(d.ground.distance_to(g) > cfg.ig_match_eps for g in refs)
        ]
        gain = cells.block_counts(moving_in_dets | cells.covered(novel)) / counts
        blocks = active & (state.last_refresh == ref)
        out[blocks] = gain[blocks]
    return out


def target_cost(counts: dict[int, int]) -> dict[int, float]:
    """Per-view processing target: own assigned-object count over the
    largest count among all views (all-empty convention: zero)."""
    if not counts:
        return {}
    peak = max(counts.values())
    if peak <= 0:
        return {c: 0.0 for c in counts}
    return {c: n / peak for c, n in counts.items()}


def compute_cost(
    actions: np.ndarray, params: PolicyParams, tau: float, cfg: PolicyConfig
) -> tuple[float, float]:
    """View-level computation cost and the updated processed-blocks average.

    Returns (cost, new M); the caller commits the new average back into the
    params. Signed quadratic: cost is positive while the average runs under
    the target, negative above it.
    """
    p = float(np.mean(actions))
    m_new = (1.0 - cfg.momentum) * p + cfg.momentum * params.avg_processed
    diff = tau - m_new
    return diff * abs(diff), m_new


def reward(actions: np.ndarray, r_ig: np.ndarray, cost: float) -> np.ndarray:
    """Per-block reward: +(gain + cost) for processed blocks, the negation
    for skipped ones."""
    if actions.shape != r_ig.shape:
        raise DimensionMismatch("actions and gain grids differ in shape")
    signed = np.where(actions != 0, 1.0, -1.0)
    return signed * (r_ig + cost)


def _loss_gradient(weights: np.ndarray, window: list[WindowSample], p_floor: float) -> np.ndarray:
    grad = np.zeros_like(weights)
    for s in window:
        raw = sigmoid(s.features @ weights)
        live = (raw > p_floor) & (raw < 1.0 - p_floor)
        psi = np.clip(raw, p_floor, 1.0 - p_floor)
        grad -= s.features.T @ (s.rewards * (s.actions - psi) * live)
    return grad


def reinforce_update(
    params: PolicyParams, window: list[WindowSample], cfg: PolicyConfig
) -> PolicyParams:
    """One gradient step on the window's loss; raises NonFiniteGradient (and
    leaves the params untouched) if the step would leave the finite range."""
    if not window:
        raise ValueError("empty training window")
    grad = _loss_gradient(params.weights, window, cfg.p_floor)
    new_w = params.weights - cfg.alpha * grad
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(new_w))):
        raise NonFiniteGradient("non-finite policy gradient; lower alpha")
    params.weights = new_w
    return params


@dataclass
class FrameDiagnostics:
    processed_fraction: float
    avg_processed: float
    cost: float
    mean_gain: float


class PolicyAgent:
    """Owns one camera's policy, its detection history and its training window.

    Call ``act`` at the start of a frame with the frame each block was last
    processed (read, never written, and kept until ``finish_frame``), send
    the returned actions to the detector, then call ``finish_frame`` once
    the server feedback for the frame is available.
    """

    def __init__(
        self,
        camera_id: int,
        grid: BlockGrid,
        cfg: PolicyConfig,
        seed: int,
    ):
        self.camera_id = camera_id
        self.grid = grid
        self.cfg = cfg
        self.seed = seed
        self.params = PolicyParams.initial()
        self.detection_history: dict[int, tuple[GroundPoint, ...]] = {}
        self.window: list[WindowSample] = []
        self.prev_frame: ViewPaint | None = None
        self.prev_detection_boxes: tuple[BBox, ...] = ()
        self.topk_boxes: tuple[BBox, ...] = ()
        self.gamma_mask = np.zeros(grid.shape, dtype=np.uint8)
        self._pending: tuple | None = None

    def act(self, frame: ViewPaint, frame_id: int, last_refresh: np.ndarray) -> BlockActions:
        state = PolicyState(
            frame_id=frame_id,
            frame=frame,
            prev_frame=self.prev_frame,
            topk_boxes=self.topk_boxes,
            mask=self.gamma_mask,
            prev_detection_boxes=self.prev_detection_boxes,
            last_refresh=last_refresh,
            detection_history=self.detection_history,
        )
        features = extract_block_features(state, self.grid, self.cfg)
        psi = forward(self.params, features, self.cfg.p_floor).reshape(self.grid.shape)
        interval = self.cfg.full_refresh_interval
        forced = frame_id == 0 or (interval > 0 and frame_id % interval == 0)
        key = (rng.POLICY, self.camera_id, frame_id)
        actions = sample_actions(psi, self.seed, key, force_full=forced)
        self._pending = (state, features, actions, forced)
        return BlockActions(actions)

    def finish_frame(
        self,
        frame_id: int,
        own_detections: tuple[Detection, ...],
        gamma_boxes: tuple[BBox, ...],
        gamma_mask: np.ndarray,
        tau: float,
    ) -> FrameDiagnostics:
        if self._pending is None:
            raise RuntimeError("finish_frame called without a pending act")
        state, features, actions, forced = self._pending
        self._pending = None

        r_ig = information_gain(state, own_detections, gamma_mask, self.grid, self.cfg)
        cost, m_new = compute_cost(actions, self.params, tau, self.cfg)
        self.params.avg_processed = m_new
        rewards = reward(actions, r_ig, cost)

        # forced frames are off-policy and excluded from the gradient window
        if not forced:
            n = self.grid.n_blocks
            self.window.append(
                WindowSample(
                    features,
                    actions.reshape(n).astype(float),
                    rewards.reshape(n).copy(),
                )
            )
        if len(self.window) >= self.cfg.train_interval:
            try:
                reinforce_update(self.params, self.window, self.cfg)
            except NonFiniteGradient:
                logger.warning("camera %d: skipped non-finite policy update", self.camera_id)
            self.window = []

        # refresh frames after this one: unchanged on skipped blocks, this frame elsewhere
        live = set(np.unique(state.last_refresh[actions == 0]).tolist())
        self.detection_history = {
            f: g for f, g in self.detection_history.items() if f in live
        }
        self.detection_history[frame_id] = tuple(d.ground for d in own_detections)
        self.prev_frame = state.frame
        self.prev_detection_boxes = tuple(d.bbox for d in own_detections)
        self.topk_boxes = gamma_boxes
        self.gamma_mask = np.asarray(gamma_mask, dtype=np.uint8)
        return FrameDiagnostics(
            processed_fraction=float(np.mean(actions)),
            avg_processed=self.params.avg_processed,
            cost=cost,
            mean_gain=float(r_ig.mean()),
        )
