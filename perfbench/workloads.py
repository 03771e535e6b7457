"""Benchmark workloads.

A workload turns the run seed into a fixed list of scenes. Each scene is one
``RunConfig`` (its own scene seed, the same frame count) that a run executes
once; scene 0 of run seed ``s`` uses scene seed ``s``, so seed 11 is the
ROADMAP's scene 11. The run's frame count follows from ``--seconds`` and the
workload's ``scene_rate``, never from the measured speed, so a given seed
and run length always do the same work and yield the same reports on every
machine and commit.

Scenes are as long as the paper scores allow. A short scene does not show
the per-frame cost of a long run: the tracker's live-track count settles
only after tens of frames, and ``MetricAccumulator.finalize`` grows faster
than linearly with the track ids a scene issues. But a scene's MOTA and
IDF1 depend on its seed far more than on its length, so a run averages them
over as many scenes as they need to stay steady from seed to seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

# Spacing of the scene seeds of one run: scene j of run seed s uses RunConfig
# seed s + SCENE_SEED_STRIDE * j.
SCENE_SEED_STRIDE = 100_003

# Fewest measured frames of a run: two policy gradient steps (train_interval
# is 10).
MIN_FRAMES = 20

# Frames of the short scene every untraced run executes twice, untimed, to
# check that a repeated run reproduces its report digest.
REPEAT_FRAMES = MIN_FRAMES


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    walkers: int
    n_cameras: int  # first n cameras of the default rig
    scene_rate: float  # measured frames per second of run length
    scene_frames: int  # longest scene
    runner: str  # "sim" (run_sim) or "loopback" (run_server + camera threads)

    def layout(self, seconds: float) -> tuple[int, int]:
        """(scenes, frames per scene) of a run of the given length."""
        total = max(MIN_FRAMES, round(seconds * self.scene_rate))
        n = math.ceil(total / self.scene_frames)
        return n, total // n

    def scenes(self, seed: int, seconds: float) -> list:
        """The RunConfig of each scene of a run."""
        n, frames = self.layout(seconds)
        return [self.config(seed + SCENE_SEED_STRIDE * j, frames) for j in range(n)]

    def params(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "name"}

    def config(self, seed: int, frames: int):
        from mvsparse import RunConfig

        base = RunConfig()
        return RunConfig(
            mode=self.mode,
            frames=frames,
            seed=seed,
            scene=replace(base.scene, n_pedestrians=self.walkers),
            cameras=base.cameras[: self.n_cameras],
        )


# Why each workload exists is recorded in BENCHMARK.json and README.md. The
# rates make a run at --seconds 20 about 20 s of frames on a 2-vCPU x86_64
# VM: 4 scenes of 125 frames on sparse_default, 2 of 100 on crowd_full and 8
# of 100 on loopback, whose run also replays scene 0 through run_sim,
# untimed. The scene counts keep the paper scores steady from seed to seed:
# with one 500-frame sparse_default scene per run, the MOTA and IDF1 spreads
# across ten seeds were 0.29 and 0.24 of the median. With 2 cameras a
# loopback scene's MODA and block count vary more, so it takes 8 scenes;
# 4 scenes of 100 frames gave a MODA spread of 0.033.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sparse_default",
            mode="mvsparse",
            walkers=20,
            n_cameras=4,
            scene_rate=25.0,
            scene_frames=125,
            runner="sim",
        ),
        Workload(
            name="crowd_full",
            mode="full",
            walkers=60,
            n_cameras=4,
            scene_rate=10.0,
            scene_frames=100,
            runner="sim",
        ),
        Workload(
            name="loopback",
            mode="mvsparse",
            walkers=20,
            n_cameras=2,
            scene_rate=40.0,
            scene_frames=100,
            runner="loopback",
        ),
    )
}
