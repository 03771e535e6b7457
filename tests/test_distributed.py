import socket
import threading

import numpy as np
import pytest

from mvsparse.runtime.config import ConfigError, NetworkConfig, RunConfig, default_cameras
from mvsparse.runtime.distributed import (
    ConnectionLost,
    run_camera_node,
    run_server,
)
from mvsparse.runtime.protocol import Hello, ServerFeedback, read_message, send_message
from mvsparse.runtime.report import dumps_report
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


class TestDistributedEquivalence:
    def test_loopback_run_matches_single_process_bit_for_bit(self):
        cfg = two_camera_cfg(frames=30)
        local = run_sim(cfg)
        remote = run_distributed(cfg, free_port())
        assert dumps_report(remote) == dumps_report(local)

    def test_full_mode_loopback_equivalence(self):
        cfg = two_camera_cfg(frames=10, mode="full")
        local = run_sim(cfg)
        remote = run_distributed(cfg, free_port())
        assert dumps_report(remote) == dumps_report(local)


class TestFailurePaths:
    def test_camera_disconnect_surfaces_connection_lost_with_partial_report(self):
        cfg = two_camera_cfg(frames=6, timeout=5.0).with_overrides(
            cameras=tuple(default_cameras()[:1])
        )
        port = free_port()
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

        sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        send_message(sock, Hello(0))
        sock.close()  # vanish before sending any update
        thread.join(30.0)
        err = box["error"]
        assert isinstance(err, ConnectionLost)
        partial = err.partial_report
        assert partial["completed_frames"] == 0

    def test_silent_camera_frames_dropped_on_timeout(self):
        # one configured camera connects but never sends updates: every
        # frame times out, is logged and substituted, and the run completes
        cfg = two_camera_cfg(frames=3, mode="full", timeout=0.4).with_overrides(
            cameras=tuple(default_cameras()[:1])
        )
        port = free_port()
        ready = threading.Event()
        box = {}

        def serve():
            box["report"] = run_server(cfg, port=port, ready=ready)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(10.0)
        sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        send_message(sock, Hello(0))
        thread.join(30.0)
        sock.close()
        report = box["report"]
        assert report["completed_frames"] == 3
        assert set(report["series"]["blocks"]) == {0}

    def test_duplicate_hello_aborts_and_closes_the_second_socket(self):
        cfg = two_camera_cfg(frames=3, timeout=5.0)
        port = free_port()
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
        first = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        send_message(first, Hello(0))
        second = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        send_message(second, Hello(0))
        thread.join(30.0)
        assert "duplicate camera 0" in str(box["error"])
        assert second.recv(1) == b""  # closed by the server, not kept open
        first.close()
        second.close()

    def test_feedback_for_another_camera_rejected(self):
        cfg = two_camera_cfg(frames=3, timeout=5.0)
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def fake_server():
            conn, _ = listener.accept()
            with conn:
                read_message(conn)  # hello
                update = read_message(conn)
                mask = np.zeros(cfg.grid.shape, dtype=np.uint8)
                send_message(conn, ServerFeedback(update.frame_id, 1, 0.5, (), mask))
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
