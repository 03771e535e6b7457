import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from mvsparse.detector import Detection
from mvsparse.geometry import BBox, BlockGrid, GroundPoint
from mvsparse.policy import (
    DimensionMismatch,
    NonFiniteGradient,
    PolicyAgent,
    PolicyConfig,
    PolicyParams,
    PolicyState,
    WindowSample,
    compute_cost,
    extract_block_features,
    forward,
    information_gain,
    reinforce_update,
    reward,
    sample_actions,
    sigmoid,
    target_cost,
)
from mvsparse.scene import BACKGROUND, ViewPaint

GRID = BlockGrid.for_image(1152, 640, 128)
CFG = PolicyConfig()


def blank_state(frame_id=10, **overrides):
    fields = dict(
        frame_id=frame_id,
        frame=ViewPaint(1152, 640, ()),
        prev_frame=ViewPaint(1152, 640, ()),
        topk_boxes=(),
        mask=np.zeros(GRID.shape, dtype=np.uint8),
        prev_detection_boxes=(),
        last_refresh=np.full(GRID.shape, -1, dtype=np.int64),
        detection_history={},
    )
    fields.update(overrides)
    return PolicyState(**fields)


def random_paint(rng, grid, n_rects):
    """ViewPaint of random spans and intensities, possibly empty or clipped."""
    w, h = grid.image_size
    rects = []
    for _ in range(n_rects):
        box = BBox(rng.uniform(-50, w), rng.uniform(-50, h), rng.uniform(1, 300), rng.uniform(1, 300))
        rects.append((int(rng.integers(0, 256)), *box.pixel_bounds(w, h)))
    return ViewPaint(w, h, tuple(rects))


def det_at_block(row=0, col=0, gx=1.0, gy=1.0, cover_full=True):
    x0, y0, x1, y1 = GRID.block_extent(row, col)
    if cover_full:
        box = BBox(x0, y0, x1 - x0, y1 - y0)
    else:
        box = BBox(x0, y0, (x1 - x0) / 2, y1 - y0)
    return Detection(0, box, GroundPoint(gx, gy), False)


class TestExtractBlockFeatures:
    def test_static_empty_state(self):
        mask = np.zeros(GRID.shape, dtype=np.uint8)
        mask[1, 2] = 1
        feats = extract_block_features(blank_state(mask=mask), GRID, CFG)
        assert feats.shape == (45, 7)
        assert (feats[:, 0] == 0).all()  # no motion
        assert feats[:, 1].sum() == 1  # the one assignment bit
        assert (feats[:, 2] == 0).all() and (feats[:, 3] == 0).all()
        assert (feats[:, 4] == 0).all()
        assert ((feats[:, 5] >= 0) & (feats[:, 5] <= 1)).all()
        assert (feats[:, 6] == 1).all()

    def test_saturated_motion_and_topk_coverage(self):
        x0, y0, x1, y1 = GRID.block_extent(2, 3)
        moved = ViewPaint(1152, 640, ((BACKGROUND + 200, x0, y0, x1, y1),))
        box = BBox(x0, y0, x1 - x0, y1 - y0)
        feats = extract_block_features(
            blank_state(frame=moved, topk_boxes=(box,)), GRID, CFG
        )
        idx = 2 * GRID.cols + 3
        assert feats[idx, 0] == 1.0
        assert feats[idx, 3] == 1.0

    def test_half_covered_block_detection_fraction(self):
        feats = extract_block_features(
            blank_state(prev_detection_boxes=(det_at_block(cover_full=False).bbox,)),
            GRID,
            CFG,
        )
        assert abs(feats[0, 2] - 0.5) <= 1.0 / 128 + 1e-9

    def test_all_features_in_unit_interval(self):
        rng = np.random.default_rng(0)
        frame, prev = (random_paint(rng, GRID, 40) for _ in range(2))
        boxes = tuple(
            BBox(rng.uniform(0, 1000), rng.uniform(0, 500), rng.uniform(10, 200), rng.uniform(10, 200))
            for _ in range(6)
        )
        state = blank_state(
            frame=frame,
            prev_frame=prev,
            topk_boxes=boxes,
            prev_detection_boxes=boxes[:3],
            last_refresh=rng.integers(-1, 10, size=GRID.shape),
        )
        feats = extract_block_features(state, GRID, CFG)
        assert (feats >= 0).all() and (feats <= 1).all()

    def test_dimension_mismatch(self):
        state = blank_state(last_refresh=np.full((3, 3), -1, dtype=np.int64))
        with pytest.raises(DimensionMismatch):
            extract_block_features(state, GRID, CFG)

    def test_dimension_mismatch_is_the_detector_exception(self):
        from mvsparse import detector

        assert DimensionMismatch is detector.DimensionMismatch


class TestForward:
    def test_zero_weights_give_half(self):
        params = PolicyParams.initial()
        feats = np.ones((45, 7)) * 0.3
        assert (forward(params, feats) == 0.5).all()

    def test_large_bias_saturates_to_clamp(self):
        params = PolicyParams(np.array([0, 0, 0, 0, 0, 0, 20.0]))
        feats = np.zeros((45, 7))
        feats[:, 6] = 1.0
        psi = forward(params, feats, p_floor=1e-4)
        assert (psi == 1.0 - 1e-4).all()

    def test_logistic_identity(self):
        params = PolicyParams(np.array([0, 0, 0, 0, 0, 0, math.log(3.0)]))
        feats = np.zeros((1, 7))
        feats[:, 6] = 1.0
        assert forward(params, feats)[0] == pytest.approx(0.75, abs=1e-12)


# where exp(-x) overflows (x < -709.78) or underflows to 0 (x > 745.13), and
# subnormals
SIGMOID_EDGES = [
    math.inf,
    -math.inf,
    math.nan,
    709.78,
    -709.78,
    709.79,
    -709.79,
    -709.782712893384,
    -709.7827128933841,
    745.0,
    -745.0,
    745.2,
    -745.2,
    5e-324,
    -5e-324,
    2.2250738585072009e-308,
    -1e-310,
    0.0,
    -0.0,
]


class TestSigmoid:
    @staticmethod
    def assert_bit_equal(z):
        got, ref = sigmoid(z), expit(z)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        nan = np.isnan(ref)
        assert (np.isnan(got) == nan).all()
        assert (got[~nan].view(np.uint64) == ref[~nan].view(np.uint64)).all()

    def test_edges_equal_expit_bit_for_bit(self):
        self.assert_bit_equal(np.array(SIGMOID_EDGES))

    def test_policy_range_equals_expit_bit_for_bit(self):
        # about 2% of these differ in the last place under np.exp
        self.assert_bit_equal(np.random.default_rng(0).uniform(-40.0, 40.0, 20_000))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                st.floats(-40.0, 40.0),
            ),
            max_size=45,
        )
    )
    @example([-800.0, 800.0, -709.7827128933841, 709.7827128933841])
    def test_equals_expit_bit_for_bit(self, values):
        self.assert_bit_equal(np.array(values, dtype=float))


class TestSampleActions:
    def test_near_one_probs_yield_all_ones(self):
        rng = np.random.default_rng(0)
        psi = np.full((5, 9), 1.0 - 1e-4)
        assert sample_actions(psi, rng).all()

    def test_near_zero_probs_yield_all_zeros(self):
        rng = np.random.default_rng(0)
        psi = np.full((5, 9), 1e-4)
        assert not sample_actions(psi, rng).any()

    def test_half_probs_empirical_mean(self):
        rng = np.random.default_rng(1)
        psi = np.full((100, 100), 0.5)
        draws = sample_actions(psi, rng)
        assert abs(draws.mean() - 0.5) < 0.02

    def test_forced_full_ignores_probs_and_rng(self):
        rng = np.random.default_rng(2)
        before = rng.bit_generator.state["state"]["state"]
        actions = sample_actions(np.full((5, 9), 1e-4), rng, force_full=True)
        assert actions.all()
        assert rng.bit_generator.state["state"]["state"] == before


class TestInformationGain:
    def test_static_background_no_detections(self):
        gamma = np.ones(GRID.shape, dtype=np.uint8)
        r = information_gain(blank_state(), (), gamma, GRID, CFG)
        assert (r == 0).all()

    def test_new_person_covering_block_saturates(self):
        gamma = np.ones(GRID.shape, dtype=np.uint8)
        dets = (det_at_block(0, 0),)
        r = information_gain(blank_state(), dets, gamma, GRID, CFG)
        assert r[0, 0] == 1.0

    def test_assignment_mask_zeroes_the_gain(self):
        gamma = np.zeros(GRID.shape, dtype=np.uint8)
        dets = (det_at_block(0, 0),)
        r = information_gain(blank_state(), dets, gamma, GRID, CFG)
        assert (r == 0).all()

    def test_known_detection_brings_no_gain(self):
        # block refreshed at frame 8 when the same person was recorded
        last = np.full(GRID.shape, 8, dtype=np.int64)
        history = {8: (GroundPoint(1.0, 1.0),)}
        state = blank_state(last_refresh=last, detection_history=history)
        gamma = np.ones(GRID.shape, dtype=np.uint8)
        dets = (det_at_block(0, 0, gx=1.0, gy=1.0),)
        r = information_gain(state, dets, gamma, GRID, CFG)
        assert (r == 0).all()

    def test_moving_pixels_inside_boxes_count(self):
        last = np.full(GRID.shape, 8, dtype=np.int64)
        history = {8: (GroundPoint(1.0, 1.0),)}
        x0, y0, x1, y1 = GRID.block_extent(0, 0)
        # intensity change 50, above threshold, inside the det box
        moved = ViewPaint(1152, 640, ((BACKGROUND + 50, x0, y0, x1, y1),))
        state = blank_state(last_refresh=last, detection_history=history, frame=moved)
        gamma = np.ones(GRID.shape, dtype=np.uint8)
        dets = (det_at_block(0, 0, gx=1.0, gy=1.0),)
        r = information_gain(state, dets, gamma, GRID, CFG)
        assert r[0, 0] == 1.0
        assert r[2, 5] == 0.0


class TestTargetCost:
    def test_spec_ratios(self):
        taus = target_cost({0: 3, 1: 6, 2: 2})
        assert taus[0] == pytest.approx(0.5)
        assert taus[1] == pytest.approx(1.0)
        assert taus[2] == pytest.approx(1 / 3)

    def test_equal_counts(self):
        assert target_cost({0: 4, 1: 4}) == {0: 1.0, 1: 1.0}

    def test_all_empty_convention(self):
        assert target_cost({0: 0, 1: 0}) == {0: 0.0, 1: 0.0}


class TestComputeCost:
    def test_spec_worked_example(self):
        cfg = PolicyConfig(momentum=0.9)
        params = PolicyParams.initial()
        params.avg_processed = 0.7
        actions = np.zeros(10)
        actions[:6] = 1  # P = 0.6
        cost, m_new = compute_cost(actions, params, tau=0.5, cfg=cfg)
        assert m_new == pytest.approx(0.69, abs=1e-12)
        assert cost == pytest.approx(-0.0361, abs=1e-9)

    def test_fixed_point(self):
        cfg = PolicyConfig(momentum=0.9)
        params = PolicyParams.initial()
        params.avg_processed = 0.4
        actions = np.zeros(10)
        actions[:4] = 1
        cost, m_new = compute_cost(actions, params, tau=0.4, cfg=cfg)
        assert m_new == pytest.approx(0.4)
        assert cost == pytest.approx(0.0, abs=1e-12)

    def test_under_target_is_positive(self):
        cfg = PolicyConfig(momentum=0.9)
        params = PolicyParams.initial()
        params.avg_processed = 0.6
        actions = np.zeros(10)
        actions[:6] = 1
        cost, m_new = compute_cost(actions, params, tau=1.0, cfg=cfg)
        assert m_new == pytest.approx(0.6)
        assert cost == pytest.approx(0.16, abs=1e-12)

    def test_cost_sign_and_quadratic_magnitude(self):
        cfg = PolicyConfig(momentum=0.0)  # M equals P directly
        rng = np.random.default_rng(6)
        for _ in range(100):
            tau = rng.uniform(0, 1)
            p = rng.uniform(0, 1)
            actions = (rng.random(1000) < p).astype(float)
            params = PolicyParams.initial()
            cost, m_new = compute_cost(actions, params, tau, cfg)
            assert np.sign(cost) == np.sign(tau - m_new)
            assert abs(cost) == pytest.approx((tau - m_new) ** 2, abs=1e-12)


class TestReward:
    def test_processed_block_gets_signed_sum(self):
        r = reward(np.array([1]), np.array([0.8]), cost=-0.04)
        assert r[0] == pytest.approx(0.76, abs=1e-12)

    def test_skipped_block_flips_sign(self):
        r = reward(np.array([0]), np.array([0.8]), cost=-0.04)
        assert r[0] == pytest.approx(-0.76, abs=1e-12)

    def test_zero_gain_zero_cost(self):
        r = reward(np.array([1, 0]), np.zeros(2), cost=0.0)
        assert (r == 0).all()

    def test_sign_flip_is_exact(self):
        rng = np.random.default_rng(0)
        gain = rng.uniform(0, 1, size=45)
        cost = -0.2
        plus = reward(np.ones(45), gain, cost)
        minus = reward(np.zeros(45), gain, cost)
        assert np.array_equal(plus, -minus)


def window_loss(weights: np.ndarray, window: list[WindowSample], p_floor: float = 1e-4) -> float:
    """Negative reward-weighted log-likelihood of the sampled actions: the
    loss whose gradient ``reinforce_update`` steps along."""
    total = 0.0
    for s in window:
        psi = np.clip(expit(s.features @ weights), p_floor, 1.0 - p_floor)
        logp = s.actions * np.log(psi) + (1 - s.actions) * np.log(1.0 - psi)
        total -= float(np.sum(s.rewards * logp))
    return total


def random_window(rng, n_samples=3, n_blocks=5):
    cfg = PolicyConfig()
    weights = rng.normal(0, 0.8, size=7)
    window = []
    for _ in range(n_samples):
        feats = rng.uniform(0, 1, size=(n_blocks, 7))
        feats[:, 6] = 1.0
        psi = np.clip(1 / (1 + np.exp(-(feats @ weights))), cfg.p_floor, 1 - cfg.p_floor)
        actions = (rng.random(n_blocks) < psi).astype(float)
        rewards = rng.normal(0, 0.5, size=n_blocks)
        window.append(WindowSample(feats, actions, rewards))
    return weights, window


class TestReinforceUpdate:
    def test_single_block_loss_value(self):
        # one block, psi=0.9, action taken, reward 0.5: L = -0.5*ln(0.9)
        feats = np.array([[0.0, 0, 0, 0, 0, 0, math.log(9.0)]])
        weights = np.array([0.0, 0, 0, 0, 0, 0, 1.0])
        window = [WindowSample(feats, np.array([1.0]), np.array([0.5]))]
        assert window_loss(weights, window) == pytest.approx(-0.5 * math.log(0.9), abs=1e-12)
        assert window_loss(weights, window) == pytest.approx(0.05268, abs=1e-5)

    def test_zero_rewards_leave_weights_unchanged(self):
        rng = np.random.default_rng(0)
        weights, window = random_window(rng)
        window = [WindowSample(s.features, s.actions, np.zeros_like(s.rewards)) for s in window]
        params = PolicyParams(weights.copy())
        reinforce_update(params, window, PolicyConfig())
        assert np.array_equal(params.weights, weights)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(1)
        cfg = PolicyConfig()
        h = 1e-5
        for _ in range(30):
            weights, window = random_window(rng)
            params = PolicyParams(weights.copy())
            reinforce_update(params, window, cfg)
            analytic = (weights - params.weights) / cfg.alpha  # alpha * grad
            numeric = np.zeros(7)
            for i in range(7):
                up = weights.copy()
                up[i] += h
                dn = weights.copy()
                dn[i] -= h
                numeric[i] = (window_loss(up, window, cfg.p_floor) - window_loss(dn, window, cfg.p_floor)) / (2 * h)
            denom = max(np.linalg.norm(numeric), 1e-12)
            assert np.linalg.norm(analytic - numeric) / denom < 1e-4

    def test_non_finite_gradient_raises_and_preserves_weights(self):
        rng = np.random.default_rng(2)
        weights, window = random_window(rng)
        bad = [WindowSample(s.features, s.actions, s.rewards * np.inf) for s in window]
        params = PolicyParams(weights.copy())
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteGradient):
            reinforce_update(params, bad, PolicyConfig())
        assert np.array_equal(params.weights, weights)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            reinforce_update(PolicyParams.initial(), [], PolicyConfig())


class TestPolicyAgent:
    def test_staleness_comes_from_the_given_refresh_memory(self):
        agent = PolicyAgent(0, GRID, CFG, np.random.default_rng(0))
        last_refresh = np.random.default_rng(1).integers(-1, 50, size=GRID.shape)
        t = 50
        agent.act(ViewPaint(1152, 640, ()), t, last_refresh)
        _, features, *_ = agent._pending
        expected = np.clip((t - last_refresh) / CFG.full_refresh_interval, 0.0, 1.0)
        assert np.array_equal(features[:, 5], expected.reshape(GRID.n_blocks))

    def test_previous_action_is_the_last_frames_refresh(self):
        agent = PolicyAgent(0, GRID, CFG, np.random.default_rng(0))
        last_refresh = np.full(GRID.shape, -1, dtype=np.int64)
        previous = np.zeros(GRID.shape, dtype=np.uint8)  # no block processed before frame 1
        for t in (1, 2, 3):
            actions = agent.act(ViewPaint(1152, 640, ()), t, last_refresh).actions
            _, features, *_ = agent._pending
            assert np.array_equal(features[:, 4], previous.reshape(GRID.n_blocks))
            agent.finish_frame(t, (), (), np.zeros(GRID.shape, dtype=np.uint8), 0.5)
            last_refresh = np.where(actions != 0, t, last_refresh)
            previous = actions


# --- pixel reference ---------------------------------------------------------
# Raster implementations of the block features and the information gain: the
# reference the span-based code in mvsparse.policy must equal bit for bit.


def rasterize(paint):
    img = np.full((paint.height, paint.width), BACKGROUND, dtype=np.uint8)
    for v, x0, y0, x1, y1 in paint.rects:
        if x1 > x0 and y1 > y0:
            img[y0:y1, x0:x1] = v
    return img


def reference_motion_map(state):
    frame = rasterize(state.frame)
    if state.prev_frame is None:
        return np.zeros_like(frame, dtype=np.int16)
    return np.abs(frame.astype(np.int16) - rasterize(state.prev_frame).astype(np.int16))


def reference_boxes_mask(shape, boxes):
    mask = np.zeros(shape, dtype=bool)
    h, w = shape
    for box in boxes:
        x0, y0, x1, y1 = box.pixel_bounds(w, h)
        if x1 > x0 and y1 > y0:
            mask[y0:y1, x0:x1] = True
    return mask


def reference_block_fractions(grid, pixel_mask):
    B = grid.block_size
    h, w = pixel_mask.shape
    H, W = grid.rows * B, grid.cols * B
    if (h, w) != (H, W):
        padded = np.zeros((H, W), dtype=pixel_mask.dtype)
        padded[:h, :w] = pixel_mask
        pixel_mask = padded
    sums = pixel_mask.reshape(grid.rows, B, grid.cols, B).sum(axis=(1, 3), dtype=np.int64)
    return sums / grid.block_pixel_counts()


def reference_features(state, grid, cfg):
    shape = (state.frame.height, state.frame.width)
    motion = reference_block_fractions(grid, reference_motion_map(state) > cfg.motion_threshold)
    det_cov = reference_block_fractions(grid, reference_boxes_mask(shape, state.prev_detection_boxes))
    topk_cov = reference_block_fractions(grid, reference_boxes_mask(shape, state.topk_boxes))
    staleness = np.clip(
        (state.frame_id - state.last_refresh) / max(1, cfg.full_refresh_interval), 0.0, 1.0
    )
    n = grid.n_blocks
    feats = np.empty((n, 7))
    feats[:, 0] = motion.reshape(n)
    feats[:, 1] = state.mask.reshape(n).astype(float)
    feats[:, 2] = det_cov.reshape(n)
    feats[:, 3] = topk_cov.reshape(n)
    feats[:, 4] = (state.last_refresh.reshape(n) == state.frame_id - 1).astype(float)
    feats[:, 5] = staleness.reshape(n)
    feats[:, 6] = 1.0
    return feats


def reference_information_gain(state, current, gamma_mask, grid, cfg):
    """Per-block scratch copy of the moving-in-detections raster."""
    out = np.zeros(grid.shape, dtype=float)
    dets = list(current)
    shape = (state.frame.height, state.frame.width)
    moving_in_dets = (reference_motion_map(state) > cfg.motion_threshold) & reference_boxes_mask(
        shape, [d.bbox for d in dets]
    )
    counts = grid.block_pixel_counts()
    for r, c in np.argwhere(gamma_mask != 0):
        x0, y0, x1, y1 = (int(v) for v in grid.block_extent(int(r), int(c)))
        scratch = moving_in_dets[y0:y1, x0:x1].copy()
        refs = state.detection_history.get(int(state.last_refresh[r, c]), ())
        novel = [d for d in dets if all(d.ground.distance_to(g) > cfg.ig_match_eps for g in refs)]
        for d in novel:
            bx0, by0, bx1, by1 = d.bbox.pixel_bounds(x1, y1)
            bx0, by0 = max(x0, bx0), max(y0, by0)
            if bx1 > bx0 and by1 > by0:
                scratch[by0 - y0 : by1 - y0, bx0 - x0 : bx1 - x0] = True
        out[r, c] = scratch.sum() / counts[r, c]
    return out


# --- exactness properties ----------------------------------------------------

# the paper grid and one with partial edge blocks
PROPERTY_GRIDS = (BlockGrid.for_image(1152, 640, 128), BlockGrid.for_image(1000, 600, 128))
# walker intensities 80 + (pid * 37) % 160 for pids 0, 13, 26 differ by 1 and
# 2; pairs 10 apart sit exactly on the default motion threshold
INTENSITIES = st.sampled_from(
    [80 + (pid * 37) % 160 for pid in (0, 1, 5, 13, 26)]
    + [BACKGROUND, BACKGROUND + 10, BACKGROUND + 11, 90, 0, 255]
)
REFRESH_FRAMES = (-1, 3, 6, 9)
# thresholds equal to attainable intensity changes (10, 1 and 0), and one
# below zero, which counts every pixel, unchanged ones included
CONFIGS = st.sampled_from([PolicyConfig(motion_threshold=t) for t in (10.0, 1.0, 0.0, -1.0)])
# pairs 0.5 apart, the default match radius, along an axis and a diagonal
GROUNDS = [GroundPoint(0.4 * i, 0.3 * (i % 2)) for i in range(6)] + [GroundPoint(0.5, 0.0)]


@st.composite
def boxes(draw, grid, max_size=6):
    """Boxes with corners on or off block edges, overlapping, partly or
    wholly outside the image."""
    w, h = grid.image_size
    B = grid.block_size

    def coord(limit):
        return st.one_of(
            st.sampled_from([float(v) for v in range(0, limit + 1, B)] + [float(limit)]),
            st.integers(-80, limit + 80).map(float),
            st.floats(-80.0, limit + 80.0),
        )

    def extent():
        return st.one_of(st.sampled_from([float(B), 2.0 * B]), st.floats(0.5, 500.0))

    n = draw(st.integers(0, max_size))
    return [BBox(draw(coord(w)), draw(coord(h)), draw(extent()), draw(extent())) for _ in range(n)]


@st.composite
def paints(draw, grid):
    w, h = grid.image_size
    return ViewPaint(
        w, h, tuple((draw(INTENSITIES), *b.pixel_bounds(w, h)) for b in draw(boxes(grid, 8)))
    )


@st.composite
def policy_states(draw):
    grid = draw(st.sampled_from(PROPERTY_GRIDS))
    frame = draw(paints(grid))
    prev = draw(
        st.one_of(
            st.none(),
            paints(grid),
            # the same spans repainted, so the threshold test decides motion
            st.lists(INTENSITIES, min_size=len(frame.rects), max_size=len(frame.rects)).map(
                lambda vs: ViewPaint(
                    frame.width, frame.height, tuple((v, *r[1:]) for v, r in zip(vs, frame.rects))
                )
            ),
        )
    )
    bits = st.lists(st.integers(0, 1), min_size=grid.n_blocks, max_size=grid.n_blocks)
    refresh = st.lists(
        st.sampled_from(REFRESH_FRAMES), min_size=grid.n_blocks, max_size=grid.n_blocks
    )
    history = {
        f: tuple(draw(st.lists(st.sampled_from(GROUNDS), max_size=3)))
        for f in draw(st.sets(st.sampled_from(REFRESH_FRAMES)))
    }
    state = PolicyState(
        frame_id=10,
        frame=frame,
        prev_frame=prev,
        topk_boxes=tuple(draw(boxes(grid))),
        mask=np.array(draw(bits), dtype=np.uint8).reshape(grid.shape),
        prev_detection_boxes=tuple(draw(boxes(grid))),
        last_refresh=np.array(draw(refresh), dtype=np.int64).reshape(grid.shape),
        detection_history=history,
    )
    return grid, state


EXACT = settings(max_examples=200, deadline=None)


@EXACT
@given(policy_states(), CONFIGS)
def test_block_features_equal_the_pixel_reference(case, cfg):
    grid, state = case
    feats = extract_block_features(state, grid, cfg)
    assert np.array_equal(feats, reference_features(state, grid, cfg))


@EXACT
@given(policy_states(), CONFIGS, st.data())
def test_information_gain_equals_the_pixel_reference(case, cfg, data):
    grid, state = case
    dets = tuple(
        Detection(0, box, data.draw(st.sampled_from(GROUNDS)), False)
        for box in data.draw(boxes(grid))
    )
    bits = st.lists(st.integers(0, 1), min_size=grid.n_blocks, max_size=grid.n_blocks)
    gamma = np.array(data.draw(bits), dtype=np.uint8).reshape(grid.shape)
    r_ig = information_gain(state, dets, gamma, grid, cfg)
    assert np.array_equal(r_ig, reference_information_gain(state, dets, gamma, grid, cfg))
