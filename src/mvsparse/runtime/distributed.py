"""Distributed execution: camera nodes and server exchanging protocol frames
over TCP.

The server collects all cameras' block bitmaps for a frame (frame barrier,
processed in camera_id order), runs the detector on them and the rest of
the per-frame engine, and sends each camera its feedback: the target tau
and the view's detections, flagged where assigned to it. Camera nodes own
their policy agent and refresh memory, derive the block mask of their
assigned boxes and learn locally. A run ends with the last frame's feedback.
Both sides rebuild the scene deterministically from the config, so no
ground truth crosses the wire, and with a fixed seed a distributed run
reproduces the single-process report bit for bit. Each camera's ``Hello``
carries the digest of its config, and the server refuses a camera whose
config differs from its own in anything but ``network``.

Supported modes: full, blockcopy, mvsparse. The oracle and static_mask
baselines are offline analysis modes and run single-process only.
"""

from __future__ import annotations

import logging
import socket
import time
from dataclasses import replace

from .config import ConfigError, NetworkConfig, RunConfig, config_digest
from .protocol import (
    BlockUpdate,
    Hello,
    ProtocolError,
    ServerFeedback,
    read_message,
    send_message,
)
from .simulation import CameraRuntime, SceneSource, ServerEngine

logger = logging.getLogger(__name__)

DISTRIBUTED_MODES = ("full", "blockcopy", "mvsparse")


class ConnectionLost(Exception):
    """A run ended early by its peer: a lost or silent connection, or a
    message out of protocol. A server run carries the report of the frames
    it completed as ``partial_report``."""

    def __init__(self, message: str, partial_report: dict | None = None):
        super().__init__(message)
        self.partial_report = partial_report


def run_digest(cfg: RunConfig) -> bytes:
    """SHA-256 of the config with ``network`` at its defaults: what a camera
    and the server must agree on. ``network`` only says where to connect."""
    return bytes.fromhex(config_digest(replace(cfg, network=NetworkConfig())))


def _check_mode(cfg: RunConfig) -> None:
    if cfg.mode not in DISTRIBUTED_MODES:
        raise ConfigError(
            f"mode {cfg.mode!r} is single-process only; distributed modes: {DISTRIBUTED_MODES}"
        )


def run_server(cfg: RunConfig, port: int | None = None, ready=None) -> dict:
    """Serve one run: accept all cameras, drive the frame barrier, return the
    final report. Every early end raises ConnectionLost with the partial
    report and names the camera and frame being served, or the accept phase:
    a lost connection, a camera silent for ``frame_timeout_s`` (the socket
    timeout), an unknown or duplicate camera, a camera started with another
    config, an out-of-order message, or an update that names another camera
    or carries another block grid."""
    _check_mode(cfg)
    n_cameras = len(cfg.cameras)
    engine = ServerEngine(cfg)
    source = SceneSource(cfg)
    digest = run_digest(cfg)

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((cfg.network.host, port if port is not None else cfg.network.port))
    listener.listen(n_cameras)
    listener.settimeout(cfg.network.frame_timeout_s)
    if ready is not None:
        ready.set()

    conns: dict[int, socket.socket] = {}
    accepted: list[socket.socket] = []  # closed on every exit, rejected ones too
    cam_id = t = None  # the camera and frame being served; None while accepting
    try:
        while len(conns) < n_cameras:
            sock, _ = listener.accept()
            accepted.append(sock)
            sock.settimeout(cfg.network.frame_timeout_s)
            hello = read_message(sock)
            if not isinstance(hello, Hello):
                raise ConnectionLost(f"expected Hello, got {type(hello).__name__}")
            if hello.camera_id not in cfg.camera_ids:
                raise ConnectionLost(f"unknown camera {hello.camera_id}")
            if hello.camera_id in conns:
                raise ConnectionLost(f"duplicate camera {hello.camera_id}")
            if hello.config_digest != digest:
                raise ConnectionLost(f"camera {hello.camera_id} runs another config")
            conns[hello.camera_id] = sock
            logger.info("camera %d connected", hello.camera_id)

        for t in range(cfg.frames):
            scene = source.frame(t)
            updates: dict[int, BlockUpdate] = {}
            for cam_id in cfg.camera_ids:
                msg = read_message(conns[cam_id])
                if not isinstance(msg, BlockUpdate):
                    raise ConnectionLost(f"unexpected {type(msg).__name__}")
                if msg.frame_id != t:
                    raise ConnectionLost(f"update for frame {msg.frame_id}")
                if msg.camera_id != cam_id or msg.actions.shape != engine.grid.shape:
                    raise ConnectionLost(
                        f"update from camera {msg.camera_id} on block grid {msg.actions.shape}"
                    )
                updates[cam_id] = msg
            feedbacks = engine.process(t, updates, scene)
            for cam_id in cfg.camera_ids:
                send_message(conns[cam_id], feedbacks[cam_id])
        return engine.report()
    except (ProtocolError, OSError, ConnectionLost) as exc:
        where = "accepting cameras" if t is None else f"camera {cam_id}, frame {t}"
        raise ConnectionLost(f"{where}: {exc}", engine.report()) from exc
    finally:
        for sock in accepted:
            sock.close()
        listener.close()


def run_camera_node(
    cfg: RunConfig, camera_id: int, server: tuple[str, int] | None = None
) -> None:
    """Drive one camera against a running server."""
    _check_mode(cfg)
    if camera_id not in cfg.camera_ids:
        raise ConfigError(f"camera {camera_id} not in the configured rig")
    camera = next(c for c in cfg.cameras if c.camera_id == camera_id)
    host, port = server if server is not None else (cfg.network.host, cfg.network.port)

    sock = _connect_with_retry(host, port, cfg)
    runtime = CameraRuntime(cfg, camera)
    source = SceneSource(cfg)
    try:
        send_message(sock, Hello(camera_id, run_digest(cfg)))
        for t in range(cfg.frames):
            scene = source.frame(t)
            update = runtime.begin_frame(scene, t)
            send_message(sock, update)
            feedback = read_message(sock)
            if (
                not isinstance(feedback, ServerFeedback)
                or feedback.frame_id != t
                or feedback.camera_id != camera_id
            ):
                raise ConnectionLost(f"camera {camera_id}: bad feedback at frame {t}")
            runtime.end_frame(t, feedback)
    except (ProtocolError, OSError) as exc:
        raise ConnectionLost(str(exc)) from exc
    finally:
        sock.close()


def _connect_with_retry(host: str, port: int, cfg: RunConfig) -> socket.socket:
    last_error: Exception | None = None
    for attempt in range(cfg.network.connect_retries):
        try:
            sock = socket.create_connection((host, port), timeout=cfg.network.frame_timeout_s)
            sock.settimeout(cfg.network.frame_timeout_s)
            return sock
        except OSError as exc:
            last_error = exc
            time.sleep(cfg.network.retry_backoff_s * (attempt + 1))
    raise ConnectionLost(f"cannot reach server at {host}:{port}: {last_error}")
