"""Cooperative multi-camera pedestrian tracking with online block selection.

Distributed per-camera agents pick informative image blocks, a server
clusters detections across views on the ground plane, assigns each identity
to its K best views, tracks fused detections and feeds rewards back to the
agents. The deep detection backbone is replaced by a controllable simulated
detector so the algorithmic behavior is fully verifiable at desk scale.
"""

from .runtime.config import RunConfig, load_config, save_config
from .runtime.simulation import run_sim

__version__ = "0.1.0"

__all__ = ["RunConfig", "load_config", "run_sim", "save_config"]
