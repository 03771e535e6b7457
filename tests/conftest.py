import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from mvsparse.geometry import BlockGrid, CameraModel
from mvsparse.runtime.simulation import run_sim


def pytest_collection_modifyitems(items):
    # tests that wait for the acceptance runs go last, so the rest of the
    # suite runs while the pool works
    items.sort(key=lambda item: "scene_runs" in item.fixturenames)


@pytest.fixture(scope="session")
def scene_runs():
    """Submit every shared acceptance run (``test_acceptance.SCENES``) at once
    to one pool of at most four worker processes, where a RuntimeWarning is
    an error too; yields the submit time and each run's future. Runs no test
    waited for are cancelled at teardown. Workers are spawned, since the test
    process may hold threads."""
    from test_acceptance import SCENES, scenario_cfg

    pool = ProcessPoolExecutor(
        min(4, os.cpu_count() or 1),
        mp_context=multiprocessing.get_context("spawn"),
        initializer=warnings.simplefilter,
        initargs=("error", RuntimeWarning),
    )
    try:
        t0 = time.monotonic()
        futures = {
            (mode, seed, k): pool.submit(run_sim, scenario_cfg(mode, seed, k_views=k))
            for mode, seed, k in SCENES
        }
        yield t0, futures
    finally:
        pool.shutdown(cancel_futures=True)


@pytest.fixture(scope="session", autouse=True)
def start_scene_runs(request):
    """Start the acceptance runs with the session, and only when a collected
    test waits for them."""
    if any("scene_runs" in item.fixturenames for item in request.session.items):
        request.getfixturevalue("scene_runs")


@pytest.fixture
def unit_camera():
    """Identity intrinsics/rotation, center at (0, 0, -10): the ground plane
    sits 10 m in front of the optical axis."""
    return CameraModel(
        camera_id=0,
        intrinsics=np.eye(3),
        rotation=np.eye(3),
        translation=np.array([0.0, 0.0, -10.0]),
        image_size=(1152, 640),
    )


@pytest.fixture
def paper_grid():
    return BlockGrid.for_image(1152, 640, 128)
