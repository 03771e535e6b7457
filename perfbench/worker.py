"""One measured process of a benchmark run; started by run.py, one fresh
process per call, with ``src`` on PYTHONPATH.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --spawned-at T [--setup-only | --trace --spans-out FILE]

``--spawned-at`` is the parent's ``time.monotonic()`` just before the spawn,
so set-up time covers interpreter start, imports, config and runtime
construction. Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import socket
import sys
import threading
import time

# default rig: a 1152x640 image in 128-pixel blocks is a 5x9 grid
FULL_BLOCKS = 45.0
THREAD_JOIN_S = 60.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans-out")
    return p.parse_args(argv)


def run_loopback(cfg) -> dict:
    """run_server in this thread, one run_camera_node thread per camera,
    over 127.0.0.1 TCP on a free port."""
    from mvsparse.runtime.distributed import run_camera_node, run_server

    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    ready = threading.Event()
    errors: list[BaseException] = []

    def camera(cam_id: int) -> None:
        try:
            if not ready.wait(cfg.network.frame_timeout_s):
                raise TimeoutError("server never started listening")
            run_camera_node(cfg, cam_id, server=("127.0.0.1", port))
        except Exception as exc:  # reported by the server thread below
            errors.append(exc)

    threads = [
        threading.Thread(target=camera, args=(cam,), name=f"camera-{cam}", daemon=True)
        for cam in cfg.camera_ids
    ]
    for t in threads:
        t.start()
    try:
        report = run_server(cfg, port=port, ready=ready)
    finally:
        ready.set()
        for t in threads:
            t.join(THREAD_JOIN_S)
    if errors:
        raise errors[0]
    if any(t.is_alive() for t in threads):
        raise RuntimeError("camera thread did not finish")
    return report


def check_report(workload, cfg, report: dict) -> list[str]:
    """Invariants every report of the workload must satisfy."""
    errors = []
    frames = report["completed_frames"]
    scores = report["scores"]
    series = report["series"]
    if report["mode"] != cfg.mode or report["frames"] != cfg.frames:
        errors.append("report mode/frames differ from the config")
    if len(series["blocks"]) != frames or len(series["bytes"]) != frames:
        errors.append("series length differs from completed frames")
    for key in ("moda", "mota", "idf1", "blocks_per_camera_frame"):
        value = scores.get(key)
        if value is None or not math.isfinite(value):
            errors.append(f"score {key} missing or not finite")
    if errors:
        return errors
    if not (scores["moda"] <= 1.0 and scores["mota"] <= 1.0 and 0.0 <= scores["idf1"] <= 1.0):
        errors.append("score out of range")
    n_cam = len(cfg.cameras)
    bpcf = scores["blocks_per_camera_frame"]
    if not math.isclose(bpcf, sum(series["blocks"]) / (frames * n_cam), rel_tol=1e-12):
        errors.append("blocks_per_camera_frame disagrees with the blocks series")
    if not math.isclose(
        report["resources"]["mb_per_frame"], sum(series["bytes"]) / frames / 1e6, rel_tol=1e-12
    ):
        errors.append("mb_per_frame disagrees with the bytes series")
    if workload.mode == "full" and bpcf != FULL_BLOCKS:
        errors.append(f"full mode processed {bpcf} blocks per camera-frame, expected {FULL_BLOCKS}")
    if not 0.0 < bpcf <= FULL_BLOCKS:
        errors.append(f"{bpcf} blocks per camera-frame is outside (0, {FULL_BLOCKS}]")
    return errors


def main(argv=None) -> int:
    args = _parse(argv)
    from mvsparse import run_sim
    from mvsparse.runtime.report import dumps_report

    import hooks
    from workloads import REPEAT_FRAMES, WORKLOADS

    def digest(report: dict) -> str:
        return hashlib.sha256(dumps_report(report).encode()).hexdigest()

    wl = WORKLOADS[args.workload]
    runner = run_loopback if wl.runner == "loopback" else run_sim
    # (config, kind) per pass, in run order. The measured scenes are "timed".
    # Traced: each scene again right after, traced, so the two timings see
    # the same frames at nearly the same time and the reports must agree.
    # Untraced: then a short scene twice, untimed, whose digests must agree.
    scenes = wl.scenes(args.seed, args.seconds)
    if args.setup_only:
        plan = [(wl.config(args.seed, 1), "setup")]
    elif args.trace:
        plan = [(cfg, kind) for cfg in scenes for kind in ("timed", "traced")]
    else:
        short = wl.config(args.seed, REPEAT_FRAMES)
        plan = [(cfg, "timed") for cfg in scenes] + [(short, "repeat"), (short, "repeat")]

    tracer = hooks.Tracer()
    fclock = hooks.FrameClock()
    passes = []
    setup_s = None
    for cfg, kind in plan:
        entry = {"kind": kind, "scene_seed": cfg.seed, "frames": cfg.frames}
        fclock.arm()
        if kind == "traced":
            tracer.install()
        try:
            report = runner(cfg)
            end = hooks.clock()
        except Exception as exc:
            entry.update(completed=0, errors=[f"run raised {exc!r}"])
            passes.append(entry)
            continue
        finally:
            tracer.close()
        if setup_s is None and fclock.start is not None:
            # the parent stamped the spawn with time.monotonic(); map the
            # first frame's perf_counter stamp onto that clock
            setup_s = fclock.start + (time.monotonic() - hooks.clock()) - args.spawned_at
        entry.update(
            completed=report["completed_frames"],
            wall_s=end - fclock.start,
            frame_s=fclock.frame_times(),
            digest=digest(report),
            scores={
                "moda": report["scores"]["moda"],
                "mota": report["scores"]["mota"],
                "idf1": report["scores"]["idf1"],
                "blocks_per_camera_frame": report["scores"]["blocks_per_camera_frame"],
                "mb_per_frame": report["resources"]["mb_per_frame"],
            },
            errors=check_report(wl, cfg, report),
        )
        if wl.runner == "loopback" and kind == "timed" and cfg is scenes[0]:
            # untimed: loopback must reproduce run_sim of the same config exactly
            try:
                reference = digest(run_sim(cfg))
            except Exception as exc:
                reference = f"run_sim raised {exc!r}"
            if entry["digest"] != reference:
                entry["errors"].append("loopback report differs from run_sim of the same config")
        passes.append(entry)
    fclock.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    out = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "passes": passes}
    if args.trace:
        spans, counts = tracer.collect()
        frames = sum(p["completed"] for p in passes if p["kind"] == "traced")
        out["layers"] = hooks.summarize(spans, counts, frames, wl.walkers) if frames else {}
        out["coverage_errors"] = hooks.coverage_errors(wl.name, counts)
        out["span_count"] = len(spans)
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start_s", "end_s", "parent", "frame"], "spans": spans}, fh)

    import numpy
    import scipy

    out["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
