"""Single-process simulation loop and the per-frame engines it is built
from. ``CameraRuntime`` and ``ServerEngine`` are shared with the distributed
transport so both execution modes run the exact same arithmetic in the same
order; with a fixed seed the resulting reports are byte-identical.
"""

from __future__ import annotations

import logging

import numpy as np

from ..association import assign_cameras, cluster_detections
from ..detector import Detection, ViewState, fuse_ground_plane, simulate_view_detections
from ..geometry import CameraModel, bbox_block_mask, left_sum
from ..metrics import MetricAccumulator, oracle_select
from ..policy import PolicyAgent, target_cost
from ..scene import (
    GtView,
    SceneConfig,
    SceneFrame,
    TrajectoryError,
    ground_truth_view,
    init_scene,
    load_trajectories,
    render_view_image,
    step_scene,
)
from ..tracker import GroundTracker
from .config import ConfigError, RunConfig, config_digest
from .protocol import BlockUpdate, ServerFeedback, account_traffic

logger = logging.getLogger(__name__)

REPORT_SCHEMA = 1


class SceneSource:
    """Deterministic frame supply: synthetic walkers or a trajectory replay.

    Every process participating in a run builds its own source from the
    config and steps it identically, so no ground truth crosses the wire.
    """

    def __init__(self, cfg: RunConfig):
        self._cfg = cfg
        self._scene_cfg: SceneConfig = cfg.scene
        self._replay: dict[int, SceneFrame] | None = None
        if cfg.trajectories:
            try:
                frames = load_trajectories(
                    cfg.trajectories, cfg.scene.ped_height, cfg.scene.ped_radius
                )
            except (TrajectoryError, OSError) as exc:
                raise ConfigError(f"trajectories: {exc}") from exc
            self._replay = {f.frame_id: f for f in frames}
            last = max(self._replay, default=-1)
            if last + 1 < cfg.frames:
                raise ConfigError(
                    f"trajectory file ends at frame {last}, run wants {cfg.frames} frames"
                )
        self._current: SceneFrame | None = None

    def frame(self, frame_id: int) -> SceneFrame:
        """Scene at the given frame; must be called with consecutive ids. A
        replay gives the file's records with this frame id, no walkers if
        it has none."""
        if self._replay is not None:
            return self._replay.get(frame_id, SceneFrame(frame_id, ()))
        if frame_id == 0:
            if self._current is None:
                self._current = init_scene(self._scene_cfg, self._cfg.seed)
            return self._current
        if self._current is None or self._current.frame_id != frame_id - 1:
            raise RuntimeError("scene frames must be consumed in order")
        self._current = step_scene(self._current, self._cfg.dt, self._cfg.seed, self._scene_cfg)
        return self._current


class CameraRuntime:
    """One camera's frame cycle: select blocks, learn from the server's
    feedback. Owns the camera's agent and its refresh memory."""

    def __init__(self, cfg: RunConfig, camera: CameraModel):
        self.cfg = cfg
        self.camera = camera
        self.grid = cfg.grid
        # -1 = never processed; the camera's own actions alone decide it
        self.last_refresh = np.full(self.grid.shape, -1, dtype=np.int64)
        self.agent: PolicyAgent | None = None
        if cfg.mode in ("mvsparse", "blockcopy"):
            self.agent = PolicyAgent(camera.camera_id, self.grid, cfg.policy, cfg.seed)

    def begin_frame(
        self,
        scene: SceneFrame,
        frame_id: int,
        actions_override: np.ndarray | None = None,
    ) -> BlockUpdate:
        """Select this frame's blocks."""
        mode = self.cfg.mode
        if actions_override is not None:
            actions = actions_override
        elif mode == "full":
            actions = np.ones(self.grid.shape, dtype=np.uint8)
        elif self.agent is not None:
            frame = render_view_image(scene, self.camera)
            actions = self.agent.act(frame, frame_id, self.last_refresh).actions
        else:
            raise RuntimeError(f"no action source for mode {mode!r}")
        # a new array: the agent reads the old one until finish_frame
        self.last_refresh = np.where(actions.astype(bool), frame_id, self.last_refresh)
        return BlockUpdate(frame_id, self.camera.camera_id, actions)

    def end_frame(self, frame_id: int, feedback: ServerFeedback) -> None:
        """Learn from the view's detections in the feedback. An ``mvsparse``
        agent takes the server's target and assigned boxes and derives the
        boxes' block mask on its own grid; a ``blockcopy`` agent learns
        against its fixed target with an all-ones mask and no boxes."""
        if self.agent is None:
            return
        if self.cfg.mode == "blockcopy":
            tau, boxes = self.cfg.blockcopy_tau, ()
            mask = np.ones(self.grid.shape, dtype=np.uint8)
        else:
            tau, boxes = feedback.tau, feedback.assigned_boxes
            mask = bbox_block_mask(self.grid, boxes)
        self.agent.finish_frame(frame_id, feedback.detections, boxes, mask, tau)


class ServerEngine:
    """Per-frame server work: detection, association, assignment, fusion,
    tracking, reward targets, metrics and traffic accounting. Owns all
    shared state, every view's detector memory included."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.grid = cfg.grid
        self.view_states = {
            c.camera_id: ViewState.initial(c, self.grid, cfg.seed) for c in cfg.cameras
        }
        self._gt_scene, self._gts = None, {}
        self.tracker = GroundTracker(cfg.tracker)
        self.acc = MetricAccumulator(cfg.match_radius)
        # one entry per completed frame: the run's only count of frames,
        # blocks and bytes, from which the report derives every total
        self.series_blocks: list[int] = []
        self.series_bytes: list[float] = []

    def _ground_truth(self, scene: SceneFrame) -> dict[int, GtView]:
        """Each camera's ground-truth view of the scene, computed once per scene."""
        if self._gt_scene is not scene:
            self._gt_scene = scene
            self._gts = {c.camera_id: ground_truth_view(scene, c) for c in self.cfg.cameras}
        return self._gts

    def candidate_detections(
        self, scene: SceneFrame, frame_id: int
    ) -> dict[int, tuple[Detection, ...]]:
        """Privileged full-refresh pass (oracle mode) over each view's
        ground truth; leaves no trace in the detector memory and replays the
        exact noise of a real full pass."""
        ones = np.ones(self.grid.shape, dtype=np.uint8)
        gts = self._ground_truth(scene)
        return {
            cam: simulate_view_detections(vs, ones, gts[cam], frame_id, self.cfg.detector)[0]
            for cam, vs in self.view_states.items()
        }

    def process(
        self,
        frame_id: int,
        updates: dict[int, BlockUpdate],
        scene: SceneFrame,
    ) -> dict[int, ServerFeedback]:
        """Detect on each view's received blocks; returns each camera its
        target and its detections in detector order, flagged where assigned."""
        cfg = self.cfg
        cam_ids = cfg.camera_ids
        gts = self._ground_truth(scene)
        dets: dict[int, tuple[Detection, ...]] = {}
        for cam in cam_ids:
            dets[cam], self.view_states[cam] = simulate_view_detections(
                self.view_states[cam], updates[cam].actions, gts[cam], frame_id, cfg.detector
            )
        clusters = cluster_detections([dets[cam] for cam in cam_ids], cfg.cluster_eps)
        selected = assign_cameras(clusters, cfg.k_views, cam_ids)
        fused = fuse_ground_plane(clusters)

        self.tracker.predict(cfg.dt)
        self.tracker.associate_and_update(fused)

        gt_ground = scene.ground_points()
        self.acc.accumulate_detection_frame([p for _, p in gt_ground], fused)
        self.acc.accumulate_tracking_frame(
            gt_ground, [(t.track_id, t.position) for t in self.tracker.reported()]
        )
        blocks = sum(updates[cam].payload_blocks for cam in cam_ids)
        traffic = left_sum(account_traffic(updates[cam], cfg) for cam in cam_ids)
        self.series_blocks.append(blocks)
        self.series_bytes.append(traffic)

        taus = target_cost({cam: len(selected[cam]) for cam in cam_ids})
        feedbacks = {}
        for cam in cam_ids:
            chosen = {id(d) for d in selected[cam]}  # equal detections may differ in assignment
            assigned = tuple(id(d) in chosen for d in dets[cam])
            feedbacks[cam] = ServerFeedback(frame_id, cam, taus[cam], dets[cam], assigned)
        return feedbacks

    def report(self) -> dict:
        cfg = self.cfg
        n_cam = len(cfg.cameras)
        n = len(self.series_blocks)
        blocks, traffic = sum(self.series_blocks), left_sum(self.series_bytes)
        scores = self.acc.finalize()
        scores.update(
            frames=n,
            blocks_per_frame_total=blocks / n if n else None,
            blocks_per_camera_frame=blocks / (n * n_cam) if n else None,
            bytes_per_frame=traffic / n if n else None,
        )
        bytes_per_frame = scores["bytes_per_frame"] or 0.0
        net = cfg.network
        transmission_ms = 1000.0 * bytes_per_frame / net.bandwidth_bytes_per_s
        return {
            "schema": REPORT_SCHEMA,
            "config_digest": config_digest(cfg),
            "mode": cfg.mode,
            "seed": cfg.seed,
            "frames": cfg.frames,
            "completed_frames": n,
            "n_cameras": n_cam,
            "k_views": cfg.k_views,
            "grid": {
                "rows": self.grid.rows,
                "cols": self.grid.cols,
                "block_size": self.grid.block_size,
                "blocks": self.grid.n_blocks,
            },
            "scores": scores,
            "resources": {
                "mb_per_frame": bytes_per_frame / 1e6,
                "transmission_ms_per_frame": transmission_ms,
                "latency_ms": net.latency_ms,
                "frame_network_ms": transmission_ms + net.latency_ms,
            },
            "series": {
                "blocks": self.series_blocks,
                "bytes": self.series_bytes,
            },
        }


def profile_static_masks(cfg: RunConfig) -> dict[int, np.ndarray]:
    """Offline profiling for static_mask mode: run the first frames fully
    processed and freeze the union of the block masks of the boxes the
    server assigns each view."""
    source = SceneSource(cfg)
    engine = ServerEngine(cfg)
    union = {cam: np.zeros(cfg.grid.shape, dtype=np.uint8) for cam in cfg.camera_ids}
    ones = np.ones(cfg.grid.shape, dtype=np.uint8)
    for t in range(min(cfg.static_mask_profile_frames, cfg.frames)):
        scene = source.frame(t)
        updates = {cam: BlockUpdate(t, cam, ones) for cam in cfg.camera_ids}
        for cam, feedback in engine.process(t, updates, scene).items():
            union[cam] |= bbox_block_mask(cfg.grid, feedback.assigned_boxes)
    return union


def run_sim(cfg: RunConfig) -> dict:
    """Deterministic single-process run of the full pipeline; returns the
    run report."""
    # the baselines' masks, per camera: profiled once for static_mask, chosen
    # per frame from ground truth for oracle
    overrides: dict[int, np.ndarray] | None = None
    if cfg.mode == "static_mask":
        overrides = profile_static_masks(cfg)

    source = SceneSource(cfg)
    runtimes = [CameraRuntime(cfg, cam) for cam in cfg.cameras]
    engine = ServerEngine(cfg)

    for t in range(cfg.frames):
        scene = source.frame(t)
        if cfg.mode == "oracle":
            overrides = oracle_select(
                [p for _, p in scene.ground_points()],
                engine.candidate_detections(scene, t),
                cfg.k_views,
                cfg.grid,
                cfg.match_radius,
            )

        updates = {}
        for rt in runtimes:
            cam_id = rt.camera.camera_id
            override = overrides[cam_id] if overrides is not None else None
            updates[cam_id] = rt.begin_frame(scene, t, actions_override=override)

        feedbacks = engine.process(t, updates, scene)
        for rt in runtimes:
            rt.end_frame(t, feedbacks[rt.camera.camera_id])

    return engine.report()
