"""Timing hooks installed from outside the program.

``FrameClock`` is the untraced run's only per-frame hook: one clock read
when ``ServerEngine.process`` returns, plus a one-shot stamp of the first
frame's start that removes itself after firing.

``Tracer`` wraps the public functions of every layer at the place where
their callers look them up (``mvsparse.runtime.simulation.ground_truth_view``,
not ``mvsparse.scene.ground_truth_view``) and records one span per call:
name, start, end, parent span and frame id, per thread, in memory. Counts
are taken from arguments and results at the same boundaries.
"""

from __future__ import annotations

import importlib
import threading
import time
import weakref
from collections import Counter
from contextlib import ExitStack
from unittest import mock

import numpy as np

clock = time.perf_counter


def _resolve(target: str):
    """'pkg.module' or 'pkg.module:Class' -> the object owning the attribute."""
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class FrameClock:
    """Per-frame wall time of a run, stamped at ``ServerEngine.process``
    returning. Frame 0 starts at the ``SceneSource.frame(0)`` call of the
    thread that armed the clock, the one that calls ``run_sim`` or
    ``run_server``; camera threads of a loopback run reach their own
    ``frame(0)`` earlier, some before every camera has connected."""

    def __init__(self):
        self.patches = ExitStack()
        self.start: float | None = None
        self.stamps: list[float] = []
        self._first_frame = None
        engine = _resolve("mvsparse.runtime.simulation:ServerEngine")
        process = engine.process

        def timed_process(engine, *args, **kwargs):
            out = process(engine, *args, **kwargs)
            self.stamps.append(clock())
            return out

        self.patches.enter_context(mock.patch.object(engine, "process", timed_process))

    def arm(self) -> None:
        """Reset for the next pass and install the one-shot start stamp."""
        self._disarm()
        self.start = None
        self.stamps = []
        source = _resolve("mvsparse.runtime.simulation:SceneSource")
        original = source.frame
        owner = threading.get_ident()

        def first_frame(src, frame_id):
            if frame_id == 0 and self.start is None and threading.get_ident() == owner:
                self.start = clock()
                self._disarm()
            return original(src, frame_id)

        self._first_frame = mock.patch.object(source, "frame", first_frame)
        self._first_frame.start()

    def _disarm(self) -> None:
        if self._first_frame is not None:
            self._first_frame.stop()  # a no-op once stopped
            self._first_frame = None

    def frame_times(self) -> list[float]:
        """Seconds per completed frame, in frame order."""
        if self.start is None:
            return []
        edges = [self.start] + self.stamps
        return [b - a for a, b in zip(edges, edges[1:])]

    def close(self) -> None:
        self._disarm()
        self.patches.close()


# --- traced run -------------------------------------------------------------

# (owner, attribute, span name). Layers are the span-name prefixes; geometry
# is a leaf and is timed inside its callers.
SPANS = (
    ("mvsparse.runtime.simulation", "step_scene", "scene.step"),
    ("mvsparse.runtime.simulation", "ground_truth_view", "scene.gt_view"),
    ("mvsparse.runtime.simulation", "render_view_image", "scene.render"),
    ("mvsparse.policy:PolicyAgent", "act", "policy.act"),
    ("mvsparse.policy", "extract_block_features", "policy.features"),
    ("mvsparse.policy:PolicyAgent", "finish_frame", "policy.finish"),
    ("mvsparse.policy", "information_gain", "policy.info_gain"),
    ("mvsparse.policy", "reinforce_update", "policy.update"),
    ("mvsparse.runtime.simulation", "simulate_view_detections", "detector.simulate"),
    ("mvsparse.runtime.simulation", "fuse_ground_plane", "detector.fuse"),
    ("mvsparse.runtime.simulation", "cluster_detections", "association.cluster"),
    ("mvsparse.runtime.simulation", "assign_cameras", "association.assign"),
    ("mvsparse.tracker:GroundTracker", "predict", "tracker.predict"),
    ("mvsparse.tracker:GroundTracker", "associate_and_update", "tracker.update"),
    ("mvsparse.metrics:MetricAccumulator", "accumulate_detection_frame", "metrics.detection"),
    ("mvsparse.metrics:MetricAccumulator", "accumulate_tracking_frame", "metrics.tracking"),
    ("mvsparse.metrics:MetricAccumulator", "finalize", "metrics.finalize"),
    ("mvsparse.runtime.protocol", "encode_message", "protocol.encode"),
    ("mvsparse.runtime.protocol", "decode_message", "protocol.decode"),
    ("mvsparse.runtime.simulation", "account_traffic", "protocol.account"),
    ("mvsparse.runtime.distributed", "read_message", "distributed.read"),
    ("mvsparse.runtime.distributed", "send_message", "distributed.send"),
    ("mvsparse.runtime.simulation:CameraRuntime", "begin_frame", "simulation.camera"),
    ("mvsparse.runtime.simulation:CameraRuntime", "end_frame", "simulation.camera"),
    ("mvsparse.runtime.simulation:ServerEngine", "process", "simulation.server"),
)

# Counted, not timed: called per walker, a span each would swamp the trace.
COUNTED = (("mvsparse.scene", "project_pedestrian_box", "scene.projections"),)

LAYERS = ("scene", "policy", "detector", "association", "tracker", "metrics",
          "protocol", "distributed", "simulation")

# Wrapper -> workloads it must fire on; it must stay silent on all others.
ACTIVE_ON = {
    "scene.step": ("sparse_default", "crowd_full", "loopback"),
    "scene.gt_view": ("sparse_default", "crowd_full", "loopback"),
    "scene.render": ("sparse_default", "loopback"),
    "scene.projections": ("sparse_default", "crowd_full", "loopback"),
    "policy.act": ("sparse_default", "loopback"),
    "policy.features": ("sparse_default", "loopback"),
    "policy.finish": ("sparse_default", "loopback"),
    "policy.info_gain": ("sparse_default", "loopback"),
    "policy.update": ("sparse_default", "loopback"),
    "detector.simulate": ("sparse_default", "crowd_full", "loopback"),
    "detector.fuse": ("sparse_default", "crowd_full", "loopback"),
    "association.cluster": ("sparse_default", "crowd_full", "loopback"),
    "association.assign": ("sparse_default", "crowd_full", "loopback"),
    "tracker.predict": ("sparse_default", "crowd_full", "loopback"),
    "tracker.update": ("sparse_default", "crowd_full", "loopback"),
    "metrics.detection": ("sparse_default", "crowd_full", "loopback"),
    "metrics.tracking": ("sparse_default", "crowd_full", "loopback"),
    "metrics.finalize": ("sparse_default", "crowd_full", "loopback"),
    "protocol.encode": ("sparse_default", "crowd_full", "loopback"),
    "protocol.decode": ("loopback",),
    "protocol.account": ("sparse_default", "crowd_full", "loopback"),
    "distributed.read": ("loopback",),
    "distributed.send": ("loopback",),
    "simulation.camera": ("sparse_default", "crowd_full", "loopback"),
    "simulation.server": ("sparse_default", "crowd_full", "loopback"),
}

# Span name -> extractor of the frame id from the call's arguments. Other
# spans belong to their parent's frame, or to the frame their thread works
# on next.
_FRAME_OF = {
    "scene.step": lambda args: args[0].frame_id + 1,
    # begin_frame(scene, frame_id, ...) or end_frame(frame_id, feedback)
    "simulation.camera": lambda args: args[1] if isinstance(args[1], int) else args[2],
    "simulation.server": lambda args: args[1],
}
# After these return, their thread moves on to the next frame.
_ADVANCES = {"simulation.server", "simulation.camera"}


class Tracer:
    """Spans and counts from wrappers around each layer's public functions."""

    def __init__(self):
        self.patches = ExitStack()
        self._local = threading.local()
        self._threads: list[tuple[list, Counter]] = []
        self._lock = threading.Lock()
        self._track_ids = weakref.WeakKeyDictionary()  # tracker -> highest id seen

    def install(self) -> None:
        """Install the wrappers; spans and counts accumulate across installs."""
        for wrap, table in ((self._span, SPANS), (self._count, COUNTED)):
            for target, attr, name in table:
                owner = _resolve(target)
                wrapper = wrap(name, getattr(owner, attr))
                self.patches.enter_context(mock.patch.object(owner, attr, wrapper))

    def close(self) -> None:
        """Remove the wrappers."""
        self.patches.close()

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.counts, local.stack, local.frame = [], Counter(), [], 0
            with self._lock:
                self._threads.append((local.spans, local.counts))
        return local

    def _count(self, name, fn):
        def counted(*args, **kwargs):
            self._state().counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name, fn):
        frame_of = _FRAME_OF.get(name)
        advances = name in _ADVANCES
        on_result = getattr(self, "_on_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            st = self._state()
            parent = st.stack[-1] if st.stack else -1
            if frame_of is not None:
                frame = frame_of(args)
                st.frame = frame
            elif parent >= 0:
                frame = st.spans[parent][4]
            else:
                frame = st.frame
            index = len(st.spans)
            record = [name, 0.0, 0.0, parent, frame]
            st.spans.append(record)
            st.stack.append(index)
            st.counts[name] += 1
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                st.stack.pop()
            if on_result is not None:
                renamed = on_result(st, args, result, st.spans[parent][0] if parent >= 0 else None)
                if renamed:
                    record[0] = renamed
            if advances:
                st.frame = frame + 1
            return result

        return traced

    # Counts taken at span boundaries; a returned string renames the span.

    def _on_policy_act(self, st, args, result, parent):
        st.counts["policy.processed_sum"] += float(np.mean(result.actions))

    def _on_detector_simulate(self, st, args, result, parent):
        dets = result[0]
        st.counts["detector.detections"] += len(dets)
        st.counts["detector.stale"] += sum(1 for d in dets if d.stale)

    def _on_association_cluster(self, st, args, result, parent):
        st.counts["association.clusters"] += len(result)

    def _on_tracker_update(self, st, args, result, parent):
        tracker, fused = args[0], args[1]
        seen = self._track_ids.get(tracker, -1)
        newest = max((t.track_id for t in tracker.tracks), default=seen)
        opened = sum(1 for t in tracker.tracks if t.track_id > seen)
        self._track_ids[tracker] = max(seen, newest)
        st.counts["tracker.live_tracks_sum"] += len(tracker.tracks)
        st.counts["tracker.ids_issued"] += opened
        st.counts["tracker.fused"] += len(fused)
        st.counts["tracker.matched"] += len(fused) - opened

    def _on_protocol_encode(self, st, args, result, parent):
        from mvsparse.runtime.protocol import BlockUpdate

        if isinstance(args[0], BlockUpdate):
            st.counts["protocol.update_encodes"] += 1
            if parent == "protocol.account":
                st.counts["protocol.wire_bytes"] += len(result)

    def _on_simulation_camera(self, st, args, result, parent):
        if result is not None:  # begin_frame returns the frame's BlockUpdate
            st.counts["simulation.updates"] += 1

    def _on_distributed_read(self, st, args, result, parent):
        from mvsparse.runtime.protocol import BlockUpdate, ServerFeedback

        if isinstance(result, BlockUpdate):
            return "distributed.barrier_wait"
        if isinstance(result, ServerFeedback):
            return "distributed.feedback_wait"
        return "distributed.handshake"

    def collect(self) -> tuple[list[list], Counter]:
        """All threads' spans (parents re-indexed into one list) and counts."""
        spans: list[list] = []
        counts: Counter = Counter()
        with self._lock:
            threads = list(self._threads)
        for thread_spans, thread_counts in threads:
            offset = len(spans)
            for name, start, end, parent, frame in thread_spans:
                spans.append([name, start, end, parent + offset if parent >= 0 else -1, frame])
            counts.update(thread_counts)
        return spans, counts


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def summarize(spans: list[list], counts: Counter, frames: int, walkers: int) -> dict:
    """Per-layer metrics in per-frame units from a traced run's spans/counts."""
    busy: Counter = Counter()  # per span name
    layer_busy: Counter = Counter()
    layer_self: Counter = Counter()
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        own = dur - child_time[i]
        layer = layer_of(name)
        busy[name] += dur
        layer_self[layer] += own
        if parent < 0 or layer_of(spans[parent][0]) != layer:
            layer_busy[layer] += dur

    def ms(total: float) -> float:
        return 1000.0 * total / frames

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "scene.step_ms": ms(busy["scene.step"]),
        "scene.gt_view_ms": ms(busy["scene.gt_view"]),
        "scene.render_ms": ms(busy["scene.render"]),
        "scene.projections_per_frame": counts["scene.projections"] / frames,
        "policy.act_ms": ms(busy["policy.act"]),
        "policy.features_ms": ms(busy["policy.features"]),
        "policy.finish_ms": ms(busy["policy.finish"]),
        "policy.info_gain_ms": ms(busy["policy.info_gain"]),
        "policy.update_ms": ms(busy["policy.update"]),
        "policy.processed_fraction": ratio(counts["policy.processed_sum"], counts["policy.act"]),
        "detector.simulate_ms": ms(busy["detector.simulate"]),
        "detector.fuse_ms": ms(busy["detector.fuse"]),
        "detector.detections_per_frame": counts["detector.detections"] / frames,
        "detector.stale_ratio": ratio(counts["detector.stale"], counts["detector.detections"]),
        "association.cluster_ms": ms(busy["association.cluster"]),
        "association.assign_ms": ms(busy["association.assign"]),
        "association.clusters_per_frame": counts["association.clusters"] / frames,
        "tracker.predict_ms": ms(busy["tracker.predict"]),
        "tracker.update_ms": ms(busy["tracker.update"]),
        "tracker.live_tracks": ratio(counts["tracker.live_tracks_sum"], counts["tracker.update"]),
        # finalize runs once per scene
        "tracker.ids_per_walker": ratio(counts["tracker.ids_issued"], walkers * counts["metrics.finalize"]),
        "tracker.match_ratio": ratio(counts["tracker.matched"], counts["tracker.fused"]),
        "metrics.detection_ms": ms(busy["metrics.detection"]),
        "metrics.tracking_ms": ms(busy["metrics.tracking"]),
        "metrics.finalize_ms": ms(busy["metrics.finalize"]),
        "protocol.encode_ms": ms(busy["protocol.encode"]),
        "protocol.decode_ms": ms(busy["protocol.decode"]),
        "protocol.account_ms": ms(busy["protocol.account"]),
        "protocol.wire_bytes_per_frame": counts["protocol.wire_bytes"] / frames,
        "protocol.encodes_per_update": ratio(counts["protocol.update_encodes"], counts["simulation.updates"]),
        "distributed.barrier_wait_ms": ms(busy["distributed.barrier_wait"]),
        "distributed.feedback_wait_ms": ms(busy["distributed.feedback_wait"]),
        "distributed.send_ms": ms(busy["distributed.send"]),
        "simulation.camera_ms": ms(busy["simulation.camera"]),
        "simulation.server_ms": ms(busy["simulation.server"]),
    }
    for layer in LAYERS:
        out[f"layer.{layer}.busy_ms"] = ms(layer_busy[layer])
        out[f"layer.{layer}.self_ms"] = ms(layer_self[layer])
    return out


def coverage_errors(workload: str, counts: Counter) -> list[str]:
    """Wrappers that stayed silent where they should fire, or fired where
    the prediction says the layer is idle."""
    errors = []
    for name, active in ACTIVE_ON.items():
        calls = counts[name]
        if workload in active and calls == 0:
            errors.append(f"{name}: never fired on {workload}")
        elif workload not in active and calls:
            errors.append(f"{name}: fired {calls} times on {workload}, predicted idle")
    return errors
