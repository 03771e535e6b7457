"""Paired-seed comparison of two arms of mvsparse.

    python3 tools/paired.py run --src DIR --mode M --seeds 11-22 --frames 1000 \
        [--config FILE] --out A.json
    python3 tools/paired.py compare A.json B.json

``run`` runs ``run_sim`` once per seed with the program in ``DIR/src`` (a
checkout of any commit), in a spawned pool of at most four worker
processes where a RuntimeWarning is an error, as the acceptance runs do.
The config is ``FILE`` (or the default config) with the mode, seed and
frame count overridden. For each seed it writes the config digest, the
report's sha256 and six figures: MODA, MOTA, IDF1, id switches, blocks per
camera-frame and bytes per frame.

``compare`` pairs the two arms seed by seed (both must hold the same
seeds) and prints, for each figure, the mean of the differences B - A, its
95% t-interval, the number of seeds on which B is better (ties count for
neither) and the per-seed differences. Two runs of one arm give zero
differences, since a report is a function of its config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import statistics
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

# (figure, where in the report, whether higher is better)
FIGURES = (
    ("moda", "moda", True),
    ("mota", "mota", True),
    ("idf1", "idf1", True),
    ("id_switches", "id_switches", False),
    ("blocks", "blocks_per_camera_frame", False),
    ("bytes", "bytes_per_frame", False),
)
# two-sided 95% quantiles of Student's t, t(0.975, df) for df = 1..30
T975 = (
    12.706205, 4.302653, 3.182446, 2.776445, 2.570582, 2.446912, 2.364624, 2.306004,
    2.262157, 2.228139, 2.200985, 2.178813, 2.160369, 2.144787, 2.131450, 2.119905,
    2.109816, 2.100922, 2.093024, 2.085963, 2.079614, 2.073873, 2.068658, 2.063899,
    2.059539, 2.055529, 2.051831, 2.048407, 2.045230, 2.042272,
)


def t975(df: int) -> float:
    """t(0.975, df); above 30 degrees of freedom, df = 30's value, which is
    wider than the true one."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    return T975[min(df, len(T975)) - 1]


def interval(diffs: list[float]) -> tuple[float, float, float]:
    """(mean, low, high): the mean of the differences and its 95%
    t-interval; the interval is NaN for fewer than two differences."""
    mean = statistics.fmean(diffs)
    if len(diffs) < 2:
        return mean, math.nan, math.nan
    half = t975(len(diffs) - 1) * statistics.stdev(diffs) / math.sqrt(len(diffs))
    return mean, mean - half, mean + half


def parse_seeds(text: str) -> list[int]:
    """'11-22' or '1,3,5' (ranges may be mixed in) to a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _init_worker(src: str) -> None:
    sys.path.insert(0, src)
    warnings.simplefilter("error", RuntimeWarning)


def run_one(mode: str, seed: int, frames: int, config: str | None) -> dict:
    """One seed of an arm, in a worker whose ``mvsparse`` is the arm's."""
    import mvsparse
    from mvsparse.runtime.config import RunConfig, config_digest, load_config
    from mvsparse.runtime.report import dumps_report
    from mvsparse.runtime.simulation import run_sim

    base = load_config(config) if config else RunConfig()
    cfg = base.with_overrides(mode=mode, seed=seed, frames=frames)
    report = run_sim(cfg)
    scores = report["scores"]
    return {
        "seed": seed,
        "program": mvsparse.__file__,
        "config_digest": config_digest(cfg),
        "report_sha256": hashlib.sha256(dumps_report(report).encode()).hexdigest(),
        **{name: scores[key] for name, key, _ in FIGURES},
    }


def run_arm(src: str, mode: str, seeds: list[int], frames: int, config: str | None) -> dict:
    src_dir = str((Path(src) / "src").resolve())
    with ProcessPoolExecutor(
        min(4, os.cpu_count() or 1, len(seeds)),
        mp_context=multiprocessing.get_context("spawn"),
        initializer=_init_worker,
        initargs=(src_dir,),
    ) as pool:
        runs = list(pool.map(run_one, *zip(*[(mode, s, frames, config) for s in seeds])))
    stray = [r["program"] for r in runs if not r["program"].startswith(src_dir)]
    if stray:
        raise RuntimeError(f"workers imported mvsparse from {stray[0]}, not {src_dir}")
    return {"src": src_dir, "mode": mode, "frames": frames, "config": config, "runs": runs}


def compare(a: dict, b: dict) -> list[dict]:
    """Per figure: the per-seed differences B - A, their mean and 95%
    t-interval, and the seeds on which B is better."""
    runs_a = {r["seed"]: r for r in a["runs"]}
    runs_b = {r["seed"]: r for r in b["runs"]}
    if runs_a.keys() != runs_b.keys():
        raise ValueError(f"the arms hold different seeds: {sorted(runs_a)} and {sorted(runs_b)}")
    seeds = sorted(runs_a)
    rows = []
    for name, _, higher in FIGURES:
        diffs = [runs_b[s][name] - runs_a[s][name] for s in seeds]
        mean, low, high = interval(diffs)
        wins = sum(d > 0 if higher else d < 0 for d in diffs)
        rows.append({"figure": name, "diffs": diffs, "mean": mean, "low": low, "high": high, "wins": wins})
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'figure':<12} {'mean B-A':>11} {'95% interval':>25} {'B wins':>7}  per-seed B-A"]
    for r in rows:
        span = f"[{r['low']:+.4f}, {r['high']:+.4f}]"
        diffs = " ".join(f"{d:+.4g}" for d in r["diffs"])
        lines.append(f"{r['figure']:<12} {r['mean']:>+11.4f} {span:>25} {r['wins']:>3}/{len(r['diffs']):<3}  {diffs}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one arm on a list of seeds")
    run_p.add_argument("--src", required=True, help="checkout whose src/ holds the program")
    run_p.add_argument("--mode", required=True)
    run_p.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 11-22 or 1,3,5")
    run_p.add_argument("--frames", type=int, default=1000)
    run_p.add_argument("--config", help="config file; the default config when absent")
    run_p.add_argument("--out", required=True, help="JSON file to write")
    cmp_p = sub.add_parser("compare", help="paired differences B - A of two arms")
    cmp_p.add_argument("a")
    cmp_p.add_argument("b")
    args = parser.parse_args(argv)

    if args.command == "run":
        arm = run_arm(args.src, args.mode, args.seeds, args.frames, args.config)
        Path(args.out).write_text(json.dumps(arm, indent=2) + "\n")
        return 0
    a, b = (json.loads(Path(p).read_text()) for p in (args.a, args.b))
    print(f"A: {a['src']} ({a['mode']}, {a['frames']} frames)\nB: {b['src']} ({b['mode']}, {b['frames']} frames)")
    print(format_rows(compare(a, b)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
