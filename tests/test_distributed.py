import socket
import threading

import numpy as np
import pytest

from mvsparse.runtime.config import ConfigError, NetworkConfig, RunConfig, default_cameras
from mvsparse.runtime.distributed import (
    ConnectionLost,
    run_camera_node,
    run_digest,
    run_server,
)
from mvsparse.runtime.protocol import (
    BlockUpdate,
    Hello,
    ServerFeedback,
    read_message,
    send_message,
)
from mvsparse.runtime.report import dumps_report
from mvsparse.runtime import simulation
from mvsparse.runtime.simulation import run_sim


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def two_camera_cfg(frames=30, mode="mvsparse", seed=3, timeout=20.0):
    cfg = RunConfig(
        mode=mode,
        frames=frames,
        seed=seed,
        cameras=tuple(default_cameras()[:2]),
        network=NetworkConfig(frame_timeout_s=timeout, retry_backoff_s=0.05),
    )
    scene = cfg.scene
    return cfg.with_overrides(scene=type(scene)(arena=scene.arena, n_pedestrians=8))


def run_distributed(cfg, port):
    result = {}
    errors = []
    ready = threading.Event()

    def serve():
        try:
            result["report"] = run_server(cfg, port=port, ready=ready)
        except Exception as exc:  # surfaced by the test
            errors.append(exc)
            ready.set()

    threads = [threading.Thread(target=serve, daemon=True)]
    threads[0].start()
    assert ready.wait(10.0)

    def camera(cam_id):
        try:
            run_camera_node(cfg, cam_id, server=("127.0.0.1", port))
        except Exception as exc:
            errors.append(exc)

    for cam in cfg.camera_ids:
        t = threading.Thread(target=camera, args=(cam,), daemon=True)
        t.start()
        threads.append(t)
    for t in threads:
        t.join(120.0)
    if errors:
        raise errors[0]
    return result["report"]


def serve_in_thread(cfg, port):
    """Start ``run_server`` on a thread once it listens; ``box["error"]``
    then receives its ConnectionLost, or None when the run completes."""
    ready = threading.Event()
    box = {}

    def serve():
        try:
            run_server(cfg, port=port, ready=ready)
            box["error"] = None
        except ConnectionLost as exc:
            box["error"] = exc

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert ready.wait(10.0)
    return thread, box


class TestDistributedEquivalence:
    @pytest.mark.parametrize("mode", ["mvsparse", "blockcopy"])
    def test_loopback_run_matches_single_process_bit_for_bit(self, mode):
        cfg = two_camera_cfg(frames=30, mode=mode)
        local = run_sim(cfg)
        remote = run_distributed(cfg, free_port())
        assert dumps_report(remote) == dumps_report(local)

    def test_full_mode_loopback_equivalence(self):
        cfg = two_camera_cfg(frames=10, mode="full")
        local = run_sim(cfg)
        remote = run_distributed(cfg, free_port())
        assert dumps_report(remote) == dumps_report(local)


    def test_cameras_may_differ_from_the_server_in_network_only(self):
        cfg = two_camera_cfg(frames=5, mode="full")
        port = free_port()
        thread, box = serve_in_thread(cfg, port)
        network = NetworkConfig(frame_timeout_s=7.0, latency_ms=40.0, retry_backoff_s=0.05)
        cam_cfg = cfg.with_overrides(network=network)
        cameras = [
            threading.Thread(
                target=run_camera_node, args=(cam_cfg, cam, ("127.0.0.1", port)), daemon=True
            )
            for cam in cfg.camera_ids
        ]
        for t in cameras:
            t.start()
        thread.join(60.0)
        for t in cameras:
            t.join(10.0)
        assert not any(t.is_alive() for t in [thread, *cameras])
        assert box["error"] is None


class TestArchitecture:
    def test_the_server_thread_does_all_detection(self, monkeypatch):
        # a camera node selects and sends blocks; ground truth and the
        # detector run on the server thread alone
        threads = {"detect": set(), "server": set(), "camera": set()}

        def on_thread(kind, fn):
            def recorded(*args, **kwargs):
                threads[kind].add(threading.get_ident())
                return fn(*args, **kwargs)

            return recorded

        for name in ("simulate_view_detections", "ground_truth_view"):
            monkeypatch.setattr(simulation, name, on_thread("detect", getattr(simulation, name)))
        for cls, method, kind in (
            (simulation.ServerEngine, "process", "server"),
            (simulation.CameraRuntime, "begin_frame", "camera"),
        ):
            monkeypatch.setattr(cls, method, on_thread(kind, getattr(cls, method)))
        cfg = two_camera_cfg(frames=5)
        run_distributed(cfg, free_port())
        assert len(threads["server"]) == 1
        assert threads["detect"] == threads["server"]
        assert len(threads["camera"]) == len(cfg.camera_ids)
        assert not threads["camera"] & threads["server"]


class TestFailurePaths:
    def test_camera_disconnect_surfaces_connection_lost_with_partial_report(self):
        cfg = two_camera_cfg(frames=6, timeout=5.0).with_overrides(
            cameras=tuple(default_cameras()[:1])
        )
        port = free_port()
        thread, box = serve_in_thread(cfg, port)
        sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        send_message(sock, Hello(0, run_digest(cfg)))
        sock.close()  # vanish before sending any update
        thread.join(30.0)
        err = box["error"]
        assert isinstance(err, ConnectionLost)
        partial = err.partial_report
        assert partial["completed_frames"] == 0

    def test_silent_camera_ends_the_run_with_a_partial_report(self):
        # the camera connects but never sends an update: the first frame's
        # read times out and ends the run instead of dropping the frame
        cfg = two_camera_cfg(frames=3, mode="full", timeout=0.4).with_overrides(
            cameras=tuple(default_cameras()[:1])
        )
        port = free_port()
        thread, box = serve_in_thread(cfg, port)
        sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        send_message(sock, Hello(0, run_digest(cfg)))
        thread.join(30.0)
        sock.close()
        assert not thread.is_alive()
        err = box["error"]
        assert isinstance(err, ConnectionLost)
        assert "camera 0, frame 0: timed out" in str(err)
        assert err.partial_report["completed_frames"] == 0

    def test_update_for_another_frame_ends_the_run_with_a_partial_report(self):
        cfg = two_camera_cfg(frames=3, mode="full", timeout=5.0).with_overrides(
            cameras=tuple(default_cameras()[:1])
        )
        port = free_port()
        thread, box = serve_in_thread(cfg, port)
        sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        send_message(sock, Hello(0, run_digest(cfg)))
        send_message(sock, BlockUpdate(1, 0, np.ones(cfg.grid.shape, dtype=np.uint8)))
        thread.join(30.0)
        sock.close()
        err = box["error"]
        assert isinstance(err, ConnectionLost)
        assert "camera 0, frame 0: update for frame 1" in str(err)
        assert err.partial_report["completed_frames"] == 0

    @pytest.mark.parametrize(
        "label, block_size",
        [(0, 128), (1, 64)],
        ids=["mislabelled-camera-id", "64-pixel-block-grid"],
    )
    def test_update_from_another_camera_or_grid_ends_the_run(self, label, block_size):
        # camera 0 sends a valid update; the connection that said Hello(1)
        # sends one labelled camera 0, or one on another block grid
        cfg = two_camera_cfg(frames=3, mode="full", timeout=5.0)
        port = free_port()
        thread, box = serve_in_thread(cfg, port)
        socks = [socket.create_connection(("127.0.0.1", port), timeout=5.0) for _ in range(2)]
        for cam, sock in enumerate(socks):
            send_message(sock, Hello(cam, run_digest(cfg)))
        send_message(socks[0], BlockUpdate(0, 0, np.ones(cfg.grid.shape, dtype=np.uint8)))
        grid = cfg.with_overrides(block_size=block_size).grid
        send_message(socks[1], BlockUpdate(0, label, np.ones(grid.shape, dtype=np.uint8)))
        thread.join(30.0)
        for sock in socks:
            sock.close()
        assert not thread.is_alive()
        err = box["error"]
        assert isinstance(err, ConnectionLost)
        assert "camera 1, frame 0" in str(err)
        assert err.partial_report["completed_frames"] == 0

    def test_camera_that_never_connects_ends_the_run_with_a_partial_report(self):
        # one of two cameras connects; the accept timeout ends the run
        cfg = two_camera_cfg(frames=3, mode="full", timeout=0.4)
        port = free_port()
        thread, box = serve_in_thread(cfg, port)
        sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        send_message(sock, Hello(0, run_digest(cfg)))
        thread.join(30.0)
        sock.close()
        assert not thread.is_alive()
        err = box["error"]
        assert isinstance(err, ConnectionLost)
        assert err.partial_report["completed_frames"] == 0
        assert err.partial_report["frames"] == 3

    def test_duplicate_hello_aborts_and_closes_the_second_socket(self):
        cfg = two_camera_cfg(frames=3, timeout=5.0)
        port = free_port()
        thread, box = serve_in_thread(cfg, port)
        first = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        send_message(first, Hello(0, run_digest(cfg)))
        second = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        send_message(second, Hello(0, run_digest(cfg)))
        thread.join(30.0)
        assert "accepting cameras: duplicate camera 0" in str(box["error"])
        assert box["error"].partial_report["completed_frames"] == 0
        assert second.recv(1) == b""  # closed by the server, not kept open
        first.close()
        second.close()

    def test_hello_with_another_config_digest_ends_the_run(self):
        cfg = two_camera_cfg(frames=3, timeout=5.0).with_overrides(
            cameras=tuple(default_cameras()[:1])
        )
        port = free_port()
        thread, box = serve_in_thread(cfg, port)
        sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        send_message(sock, Hello(0, bytes(32)))
        thread.join(30.0)
        sock.close()
        assert not thread.is_alive()
        err = box["error"]
        assert "accepting cameras: camera 0 runs another config" in str(err)
        assert err.partial_report["completed_frames"] == 0

    def test_camera_node_started_with_another_seed_is_refused(self):
        # camera 1 runs seed + 1: its reports would no longer equal run_sim
        network = NetworkConfig(frame_timeout_s=5.0, connect_retries=2, retry_backoff_s=0.05)
        cfg = two_camera_cfg(frames=20).with_overrides(network=network)
        port = free_port()
        thread, box = serve_in_thread(cfg, port)
        errors = []

        def camera(cam_cfg, cam_id):
            try:
                run_camera_node(cam_cfg, cam_id, server=("127.0.0.1", port))
            except ConnectionLost as exc:
                errors.append(exc)

        cameras = [
            threading.Thread(target=camera, args=(cam_cfg, cam_id), daemon=True)
            for cam_id, cam_cfg in enumerate([cfg, cfg.with_overrides(seed=cfg.seed + 1)])
        ]
        for t in cameras:
            t.start()
        thread.join(30.0)
        for t in cameras:
            t.join(30.0)
        assert not any(t.is_alive() for t in [thread, *cameras])
        err = box["error"]
        assert isinstance(err, ConnectionLost)
        assert "camera 1 runs another config" in str(err)
        assert err.partial_report["completed_frames"] == 0
        assert len(errors) == 2  # both cameras see the server hang up

    def test_feedback_for_another_camera_rejected(self):
        cfg = two_camera_cfg(frames=3, timeout=5.0)
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def fake_server():
            conn, _ = listener.accept()
            with conn:
                read_message(conn)  # hello
                update = read_message(conn)
                send_message(conn, ServerFeedback(update.frame_id, 1, 0.5, (), ()))
                conn.recv(1)  # hold the connection until the camera hangs up

        thread = threading.Thread(target=fake_server, daemon=True)
        thread.start()
        with pytest.raises(ConnectionLost, match="bad feedback at frame 0"):
            run_camera_node(cfg, 0, server=("127.0.0.1", port))
        thread.join(10.0)
        listener.close()

    def test_oracle_mode_rejected_for_distributed(self):
        cfg = two_camera_cfg(frames=5, mode="mvsparse").with_overrides(mode="oracle")
        with pytest.raises(ConfigError):
            run_server(cfg, port=free_port())
        with pytest.raises(ConfigError):
            run_camera_node(cfg, 0)

    def test_camera_retries_then_aborts_without_server(self):
        cfg = two_camera_cfg(frames=5).with_overrides(
            network=NetworkConfig(connect_retries=2, retry_backoff_s=0.01)
        )
        with pytest.raises(ConnectionLost):
            run_camera_node(cfg, 0, server=("127.0.0.1", free_port()))

    def test_unknown_camera_id_rejected(self):
        cfg = two_camera_cfg(frames=5)
        with pytest.raises(ConfigError):
            run_camera_node(cfg, 17)
