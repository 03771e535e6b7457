"""Acceptance suite.

One test per criterion; each prints a PASS line when it holds (run with
``pytest tests/test_acceptance.py -v -s`` to see them live). The long
scenario runs (``SCENES``) are shared through module-scoped fixtures, which
read them from the session's ``scene_runs`` pool in ``conftest.py``.
"""

import time

import numpy as np
import pytest

from mvsparse.geometry import BlockGrid, GroundPoint
from mvsparse.metrics import MetricAccumulator
from mvsparse.policy import (
    PolicyAgent,
    PolicyConfig,
    PolicyParams,
    compute_cost,
    information_gain,
    reinforce_update,
    reward,
    target_cost,
)
from mvsparse.runtime.config import NetworkConfig, RunConfig, default_cameras
from mvsparse.runtime.report import dumps_report
from mvsparse.runtime.simulation import run_sim
from mvsparse.tracker import GroundTracker, TrackerConfig

from test_association import brute_force_clusters, clusters_as_sets, random_separated_instance
from test_distributed import free_port, run_distributed
from test_policy import blank_state, det_at_block, random_window, window_loss, GRID


def announce(n, text):
    print(f"\nACCEPTANCE {n} PASS — {text}", flush=True)


def scenario_cfg(mode, seed, frames=1000, k_views=3):
    """The shared benchmark scene: 4 cameras, 20 walkers, 1000 frames."""
    return RunConfig(mode=mode, frames=frames, seed=seed, k_views=k_views)


# the independent 1000-frame runs that the session's pool runs and the
# fixtures below share, as (mode, seed, k_views): full and mvsparse on three
# seeds, oracle at K = 1, 2, 3 and blockcopy
SCENES = (
    [(mode, seed, 3) for seed in (11, 12, 13) for mode in ("full", "mvsparse")]
    + [("oracle", 11, k) for k in (1, 2, 3)]
    + [("blockcopy", 11, 3)]
)


@pytest.fixture(scope="module")
def trade_off_runs(scene_runs):
    """full and mvsparse reports on the benchmark scene, three seeds."""
    t0, futures = scene_runs
    runs = {
        seed: {mode: futures[mode, seed, 3].result() for mode in ("full", "mvsparse")}
        for seed in (11, 12, 13)
    }
    runs["elapsed"] = time.monotonic() - t0
    return runs


@pytest.fixture(scope="module")
def oracle_runs(scene_runs):
    _, futures = scene_runs
    return {k: futures["oracle", 11, k].result() for k in (1, 2, 3)}


@pytest.fixture(scope="module")
def blockcopy_run(scene_runs):
    _, futures = scene_runs
    return futures["blockcopy", 11, 3].result()


class TestCriterion1Grid:
    def test_grid_and_full_baseline_blocks(self):
        grid = BlockGrid.for_image(1152, 640, 128)
        assert grid.shape == (5, 9)
        assert grid.n_blocks == 45
        report = run_sim(scenario_cfg("full", 11, frames=20))
        blocks = report["scores"]["blocks_per_camera_frame"]
        assert blocks == 45.0
        announce(1, f"5x9 grid = 45 blocks; full mode processes exactly {blocks:.2f} blocks/frame")


class TestCriterion2EquationSuite:
    def test_equation_level_worked_examples(self):
        t0 = time.monotonic()
        # action reward: sign structure around (gain + cost)
        assert reward(np.array([1]), np.array([0.8]), -0.04)[0] == pytest.approx(0.76, abs=1e-12)
        assert reward(np.array([0]), np.array([0.8]), -0.04)[0] == pytest.approx(-0.76, abs=1e-12)
        # masked information gain
        ones = np.ones(GRID.shape, dtype=np.uint8)
        zeros = np.zeros(GRID.shape, dtype=np.uint8)
        cfg = PolicyConfig()
        dets = (det_at_block(0, 0),)
        assert information_gain(blank_state(), dets, ones, GRID, cfg)[0, 0] == 1.0
        assert (information_gain(blank_state(), dets, zeros, GRID, cfg) == 0).all()
        assert (information_gain(blank_state(), (), ones, GRID, cfg) == 0).all()
        # view-level computation cost
        params = PolicyParams.initial()
        params.avg_processed = 0.7
        actions = np.zeros(10)
        actions[:6] = 1
        cost, m_new = compute_cost(actions, params, tau=0.5, cfg=PolicyConfig(momentum=0.9))
        assert m_new == pytest.approx(0.69, abs=1e-12)
        assert cost == pytest.approx(-0.0361, abs=1e-9)
        # per-view processing targets
        taus = target_cost({0: 3, 1: 6, 2: 2})
        assert taus == {0: pytest.approx(0.5), 1: pytest.approx(1.0), 2: pytest.approx(1 / 3)}
        # tracking accuracy
        acc = MetricAccumulator()
        gt = [(i, GroundPoint(2 * i, 0)) for i in range(10)]
        acc.accumulate_tracking_frame(
            gt, [(i, GroundPoint(2 * i, 0)) for i in range(8)] + [(99, GroundPoint(100, 100))]
        )
        acc.accumulate_tracking_frame(gt, [(i, GroundPoint(2 * i, 0)) for i in range(10)])
        assert acc.finalize()["mota"] == pytest.approx(0.85, abs=1e-12)
        # identity F1
        acc2 = MetricAccumulator()
        for t in range(10):
            pos = GroundPoint(0, 0) if t < 8 else GroundPoint(50, 50)
            acc2.accumulate_tracking_frame([(1, GroundPoint(0, 0))], [(7, pos)])
        assert acc2.finalize()["idf1"] == pytest.approx(0.8, abs=1e-12)
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0
        announce(2, f"equation-level worked examples exact ({elapsed * 1000:.0f} ms)")


class TestCriterion3Gradient:
    def test_analytic_gradient_vs_central_differences(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(33)
        cfg = PolicyConfig()
        h = 1e-5
        worst = 0.0
        for _ in range(100):
            weights, window = random_window(rng, n_samples=3, n_blocks=5)
            params = PolicyParams(weights.copy())
            reinforce_update(params, window, cfg)
            analytic = (weights - params.weights) / cfg.alpha
            numeric = np.zeros(7)
            for i in range(7):
                up = weights.copy()
                up[i] += h
                dn = weights.copy()
                dn[i] -= h
                numeric[i] = (
                    window_loss(up, window, cfg.p_floor) - window_loss(dn, window, cfg.p_floor)
                ) / (2 * h)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            worst = max(worst, rel)
            assert rel < 1e-4
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0
        announce(3, f"gradient check on 100 windows, worst relative error {worst:.2e} ({elapsed:.1f} s)")


class TestCriterion4TargetTracking:
    def test_processed_fraction_tracks_fixed_target(self):
        from mvsparse import rng as rngmod
        from mvsparse.detector import ViewState, simulate_view_detections
        from mvsparse.scene import Pedestrian, SceneFrame, ground_truth_view, render_view_image

        t0 = time.monotonic()
        cfg = RunConfig(seed=0)
        cam = cfg.cameras[1]
        grid = cfg.grid
        peds = tuple(
            Pedestrian(i, GroundPoint(2.0 + 2.0 * i, 3.0 + 1.5 * i), (0, 0), GroundPoint(2.0 + 2.0 * i, 3.0 + 1.5 * i))
            for i in range(6)
        )
        scene = SceneFrame(0, peds)
        gt = ground_truth_view(scene, cam)
        frame = render_view_image(scene, cam)
        ones_mask = np.ones(grid.shape, dtype=np.uint8)
        results = []
        for tau in (0.3, 0.6, 1.0):
            for seed in (1, 2, 3):
                agent = PolicyAgent(
                    cam.camera_id, grid, cfg.policy, rngmod.substream(seed, rngmod.POLICY, cam.camera_id)
                )
                vs = ViewState.initial(cam, grid, seed)
                fractions = []
                for t in range(1000):
                    actions = agent.act(frame, t, vs.last_refresh).actions
                    dets, vs = simulate_view_detections(vs, actions, gt, t, cfg.detector)
                    agent.finish_frame(t, dets, (), ones_mask, tau)
                    fractions.append(actions.mean())
                tail = float(np.mean(fractions[800:]))
                assert abs(tail - tau) <= 0.1, f"tau={tau} seed={seed}: tail mean {tail:.3f}"
                results.append(f"tau={tau}:{tail:.2f}")
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0
        announce(4, f"stationary-scene processed fraction within ±0.1 of target ({elapsed:.0f} s; {', '.join(results[::3])})")


class TestCriterion5Oracle:
    def test_oracle_monotone_in_k_and_saves_blocks(self, oracle_runs):
        blocks = {k: oracle_runs[k]["scores"]["blocks_per_camera_frame"] for k in (1, 2, 3)}
        assert blocks[1] < blocks[2] < blocks[3]
        assert blocks[1] < 0.4 * 45.0
        announce(
            5,
            "oracle blocks/frame strictly increase with K "
            f"({blocks[1]:.2f} < {blocks[2]:.2f} < {blocks[3]:.2f}) and K=1 uses "
            f"{blocks[1] / 45:.0%} of the full baseline",
        )


class TestCriterion6TradeOff:
    def test_block_savings_with_bounded_accuracy_loss(self, trade_off_runs):
        summaries = []
        for seed in (11, 12, 13):
            full = trade_off_runs[seed]["full"]["scores"]
            sparse = trade_off_runs[seed]["mvsparse"]["scores"]
            ratio = sparse["blocks_per_camera_frame"] / full["blocks_per_camera_frame"]
            drop = full["moda"] - sparse["moda"]
            assert ratio <= 0.60, f"seed {seed}: block ratio {ratio:.3f}"
            assert drop <= 0.05, f"seed {seed}: MODA drop {drop:.3f}"
            summaries.append(f"seed {seed}: {ratio:.0%} blocks, MODA {full['moda']:.3f}->{sparse['moda']:.3f}")
        assert trade_off_runs["elapsed"] < 600.0
        announce(6, "; ".join(summaries))

    def test_tracking_accuracy_loss_is_bounded(self, trade_off_runs):
        # the paper's tracking trade-off: mvsparse loses a few points of
        # tracking accuracy against full processing
        summaries = []
        for seed in (11, 12, 13):
            full = trade_off_runs[seed]["full"]["scores"]
            sparse = trade_off_runs[seed]["mvsparse"]["scores"]
            drop = full["mota"] - sparse["mota"]
            assert drop <= 0.05, f"seed {seed}: MOTA drop {drop:.3f}"
            summaries.append(f"seed {seed}: MOTA {full['mota']:.3f}->{sparse['mota']:.3f}")
        announce(6, "; ".join(summaries))

    def test_tracks_follow_detections(self, trade_off_runs):
        # the tracker keeps what the detector finds: MOTA within 0.03 of
        # MODA, and most of each walker's frames under one track id
        for seed in (11, 12, 13):
            for mode in ("full", "mvsparse"):
                scores = trade_off_runs[seed][mode]["scores"]
                where = f"seed {seed} {mode}"
                assert scores["mota"] >= scores["moda"] - 0.03, f"{where}: MOTA {scores['mota']:.3f}"
                assert scores["idf1"] >= 0.5, f"{where}: IDF1 {scores['idf1']:.3f}"


class TestCriterion7ClusteringOracle:
    def test_algorithm_matches_brute_force_on_200_instances(self):
        from mvsparse.association import cluster_detections

        rng = np.random.default_rng(77)
        for _ in range(200):
            views = random_separated_instance(rng, eps=0.5)
            greedy = clusters_as_sets(views, cluster_detections(views, eps=0.5))
            assert greedy == brute_force_clusters(views, eps=0.5)
        announce(7, "greedy clustering equals the brute-force optimum on 200 instances")


class TestCriterion8DistributedEquivalence:
    def test_two_camera_loopback_bit_for_bit(self):
        cfg = RunConfig(
            mode="mvsparse",
            frames=100,
            seed=3,
            cameras=tuple(default_cameras()[:2]),
            network=NetworkConfig(frame_timeout_s=60.0),
        )
        local = run_sim(cfg)
        remote = run_distributed(cfg, free_port())
        assert dumps_report(remote) == dumps_report(local)
        announce(8, "2-camera loopback run equals the single-process run byte for byte (100 frames)")


class TestCriterion9TrafficRatio:
    def test_bytes_ratio_tracks_blocks_ratio(self, trade_off_runs):
        for seed in (11, 12, 13):
            full = trade_off_runs[seed]["full"]["scores"]
            sparse = trade_off_runs[seed]["mvsparse"]["scores"]
            blocks_ratio = sparse["blocks_per_camera_frame"] / full["blocks_per_camera_frame"]
            bytes_ratio = sparse["bytes_per_frame"] / full["bytes_per_frame"]
            assert bytes_ratio == pytest.approx(blocks_ratio, rel=0.05), f"seed {seed}"
        announce(
            9,
            f"bytes/frame ratio matches processed-blocks ratio within 5% "
            f"(e.g. {bytes_ratio:.3f} vs {blocks_ratio:.3f})",
        )


class TestCriterion10TrackerSanity:
    def test_perfect_constant_velocity_tracking(self):
        dt = 1.0 / 30.0
        starts = [(2.0 + 3.0 * (i % 4), 3.0 + 3.0 * (i // 4)) for i in range(12)]
        vel = (0.45, 0.3)
        tracker = GroundTracker(TrackerConfig(process_noise=0.0, measurement_noise=0.0))
        acc = MetricAccumulator()
        for t in range(500):
            gt = [
                (i, GroundPoint(x + vel[0] * dt * t, y + vel[1] * dt * t))
                for i, (x, y) in enumerate(starts)
            ]
            if t:
                tracker.predict(dt)
            tracker.associate_and_update([p for _, p in gt])
            acc.accumulate_tracking_frame(gt, [(trk.track_id, trk.position) for trk in tracker.reported()])
        report = acc.finalize()
        assert report["mota"] == pytest.approx(1.0, abs=1e-12)
        assert report["id_switches"] == 0
        announce(10, "perfect-detection constant-velocity scenario: MOTA = 1.0, zero identity switches (500 frames)")


class TestModeLatticeInvariant:
    """Runtime invariant: oracle(K=1) <= mvsparse <= blockcopy <= full on the
    converged tail of the benchmark scene."""

    def test_block_ordering_across_modes(self, oracle_runs, trade_off_runs, blockcopy_run):
        def tail(report):
            series = report["series"]["blocks"]
            return float(np.mean(series[-200:])) / (4 * 45)

        o = tail(oracle_runs[1])
        m = tail(trade_off_runs[11]["mvsparse"])
        b = tail(blockcopy_run)
        assert o <= m <= b <= 1.0
        print(
            f"\nmode lattice (fraction of blocks, last 200 frames): "
            f"oracle-K1 {o:.3f} <= mvsparse {m:.3f} <= blockcopy {b:.3f} <= full 1.0",
            flush=True,
        )
