"""Run configuration: YAML schema, camera calibration documents, defaults.

The same camera schema is used for standalone calibration files and for the
``cameras`` section of a run config: camera_id, row-major 3x3 intrinsics,
3x3 rotation (world directions to camera directions), 3-vector translation
(camera center in world coordinates, meters) and pixel image size.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np
import yaml

from ..detector import DetectorConfig
from ..geometry import BlockGrid, CameraModel, camera_from_pose
from ..policy import PolicyConfig
from ..scene import Arena, SceneConfig
from ..tracker import TrackerConfig
from .protocol import MAX_CAMERA_ID, MAX_GRID_SIDE

MODES = ("full", "blockcopy", "static_mask", "mvsparse", "oracle")

DEFAULT_IMAGE_SIZE = (1152, 640)  # width x height
DEFAULT_BLOCK_SIZE = 128


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class NetworkConfig:
    host: str = "127.0.0.1"
    port: int = 47120
    bandwidth_bytes_per_s: float = 2_312_500.0  # 18.5 Mbps uplink
    latency_ms: float = 5.0
    frame_timeout_s: float = 30.0
    connect_retries: int = 20
    retry_backoff_s: float = 0.25


@dataclass(frozen=True)
class RunConfig:
    mode: str = "mvsparse"
    frames: int = 200
    seed: int = 0
    dt: float = 1.0 / 30.0
    block_size: int = DEFAULT_BLOCK_SIZE
    k_views: int = 3
    cluster_eps: float = 0.5
    match_radius: float = 0.5
    compression_factor: float = 3.3
    blockcopy_tau: float = 0.75
    static_mask_profile_frames: int = 100
    trajectories: str | None = None
    scene: SceneConfig = field(default_factory=SceneConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    cameras: tuple[CameraModel, ...] = ()

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.frames < 1:
            raise ConfigError("frames must be >= 1")
        if self.k_views < 1:
            raise ConfigError("k_views must be >= 1")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if not self.cameras:
            object.__setattr__(self, "cameras", tuple(default_cameras()))
        sizes = {cam.image_size for cam in self.cameras}
        if len(sizes) != 1:
            raise ConfigError("all cameras must share one image size")
        ids = [cam.camera_id for cam in self.cameras]
        if len(ids) != len(set(ids)):
            raise ConfigError("duplicate camera_id in rig")
        if not all(0 <= i <= MAX_CAMERA_ID for i in ids):
            raise ConfigError(f"camera ids must be in 0..{MAX_CAMERA_ID}, got {sorted(ids)}")
        try:
            grid = self.grid
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if max(grid.shape) > MAX_GRID_SIDE:
            raise ConfigError(
                f"block_size {self.block_size} gives a {grid.rows}x{grid.cols} grid;"
                f" the wire carries at most {MAX_GRID_SIDE} rows and cols"
            )
        object.__setattr__(
            self, "cameras", tuple(sorted(self.cameras, key=lambda c: c.camera_id))
        )

    @property
    def grid(self) -> BlockGrid:
        w, h = self.cameras[0].image_size
        return BlockGrid.for_image(w, h, self.block_size)

    @property
    def camera_ids(self) -> list[int]:
        return [cam.camera_id for cam in self.cameras]

    def with_overrides(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)


def default_cameras(image_size: tuple[int, int] = DEFAULT_IMAGE_SIZE) -> list[CameraModel]:
    """Four-camera rig around the default 12x36 m arena.

    Mounting heights and focal lengths are deliberately uneven so the views
    differ in reach and box sizes, mirroring real deployments.
    """
    specs = [
        # camera 0 is a wide overview mast seeing the whole arena; the other
        # three are lower local cameras with short pitched-down footprints.
        # The uneven reach makes per-view responsibility (and so the
        # assignment targets) genuinely asymmetric, as in real deployments.
        ((-12.0, 18.0, 13.0), (6.0, 18.0), 700.0),
        ((-3.0, -3.0, 9.0), (2.66, 2.66), 800.0),
        ((15.0, 12.0, 8.5), (7.33, 13.92), 800.0),
        ((7.0, 40.0, 9.0), (6.12, 32.05), 800.0),
    ]
    cams = []
    for cam_id, (pos, aim, focal) in enumerate(specs):
        dx, dy = aim[0] - pos[0], aim[1] - pos[1]
        yaw = math.degrees(math.atan2(dy, dx))
        pitch = math.degrees(math.atan2(pos[2], math.hypot(dx, dy)))
        cams.append(camera_from_pose(cam_id, pos, yaw, pitch, focal, image_size))
    return cams


def camera_to_dict(cam: CameraModel) -> dict:
    return {
        "camera_id": cam.camera_id,
        "intrinsics": [[float(v) for v in row] for row in cam.intrinsics],
        "rotation": [[float(v) for v in row] for row in cam.rotation],
        "translation": [float(v) for v in cam.translation],
        "image_size": [cam.width, cam.height],
    }


def camera_from_dict(doc: dict) -> CameraModel:
    try:
        return CameraModel(
            camera_id=int(doc["camera_id"]),
            intrinsics=np.array(doc["intrinsics"], dtype=float).reshape(3, 3),
            rotation=np.array(doc["rotation"], dtype=float).reshape(3, 3),
            translation=np.array(doc["translation"], dtype=float).reshape(3),
            image_size=(int(doc["image_size"][0]), int(doc["image_size"][1])),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad camera document: {exc}") from exc


def load_calibration(path: str) -> CameraModel:
    """Read a single-camera calibration document (YAML)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: calibration file must hold one camera document")
    return camera_from_dict(doc)


# Fields holding a nested dataclass section, per config class.
_SECTIONS = {
    RunConfig: {
        "scene": SceneConfig,
        "detector": DetectorConfig,
        "policy": PolicyConfig,
        "tracker": TrackerConfig,
        "network": NetworkConfig,
    },
    SceneConfig: {"arena": Arena},
}


def config_to_dict(cfg: RunConfig) -> dict:
    """The config as a YAML-ready document with the keys in field order:
    nested sections as mappings, cameras as calibration documents."""
    doc = {f.name: getattr(cfg, f.name) for f in fields(RunConfig)}
    for name in _SECTIONS[RunConfig]:
        doc[name] = asdict(doc[name])
    doc["cameras"] = [camera_to_dict(c) for c in cfg.cameras]
    return doc


def _from_doc(cls, doc, where: str):
    """Build config class ``cls`` from its document, recursing into the
    sections in ``_SECTIONS``; ``where`` is the section path, "" at the top.
    Omitted keys keep their defaults; every bad document is a ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where or 'config'} must be a mapping, got {type(doc).__name__}")
    extra = set(doc) - {f.name for f in fields(cls)}
    if extra:
        raise ConfigError(f"unknown {where or 'config'} keys {sorted(extra)}")
    kwargs = dict(doc)
    for name, section in _SECTIONS.get(cls, {}).items():
        if name in kwargs:
            kwargs[name] = _from_doc(section, kwargs[name], f"{where}.{name}" if where else name)
    if cls is RunConfig and "cameras" in kwargs:
        if not isinstance(kwargs["cameras"], list):
            raise ConfigError("cameras must be a list of camera documents")
        kwargs["cameras"] = tuple(camera_from_dict(d) for d in kwargs["cameras"])
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from exc


def config_from_dict(doc: dict) -> RunConfig:
    """Inverse of ``config_to_dict``. Any subset of keys may be given; an
    empty or None document is the default config."""
    return _from_doc(RunConfig, doc if doc is not None else {}, "")


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return config_from_dict(doc)


def save_config(cfg: RunConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config_to_dict(cfg), fh, sort_keys=False)


def config_digest(cfg: RunConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
