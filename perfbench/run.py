"""mvsparse benchmark: end-to-end frame latency, throughput, set-up time,
memory and paper scores per workload; with --trace 1, the per-layer split.

    python3 perfbench/run.py --workload sparse_default --seed 11 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root. Every measurement runs in a fresh worker
process (perfbench/worker.py) that imports the program from ``src``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, with the
environment it was measured in, is written under ``perfbench/out/``.
Exit code 0 when every correctness check passed, 1 when one failed, 2 when
the program or the benchmark definition cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 2  # set-up-only processes per untraced run, besides the main worker
RUN_DEADLINE_S = 170.0  # every run must end within 180 s
OUT_DIR = HERE / "out"
# the files whose content decides what a run measures
MEASURING_FILES = ("run.py", "worker.py", "hooks.py", "workloads.py")
# Percentile of frame_ms_tail. Higher ones read the host, not the program:
# on a shared 2-vCPU VM, slow frames came in bursts of tens of frames, and
# over ten seeds the quartile spread of p98 was 0.19 in one set of runs and
# 0.39 in another (p95: 0.12 and 0.30; p90: 0.10 and 0.11).
TAIL_PERCENTILE = 90.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def _spawn_worker(root: Path, args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("run deadline passed before the worker started")
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def _digest_files(root: Path, paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def pin_to_one_cpu() -> int:
    """Restrict this process, and the workers it starts, to one CPU.

    The loopback threads take turns on the interpreter lock; left free to
    migrate, their wake-ups cross CPUs and the frame-time tail swings with
    the scheduler (on a shared 2-vCPU VM the loopback p99 varied by 25%
    between runs unpinned and by 9% pinned). The last usable CPU is taken
    because the first one handles more interrupts.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(root: Path, versions: dict, cpus: dict) -> dict:
    commit = None
    if (root / ".git").exists():  # never look above a checkout that is no repository
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        **cpus,
        "machine": platform.machine(),
        "platform": platform.platform(),
        **versions,
        "git_commit": commit,
        "source_sha256": _digest_files(root, (root / "src").rglob("*.py")),
        "benchmark_sha256": _digest_files(root, [HERE / f for f in MEASURING_FILES] + [root / "BENCHMARK.json"]),
    }


class Gate:
    """Failed frames and the reasons, against the frames attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add_passes(self, label: str, passes: list[dict]) -> None:
        first_digest: dict[tuple[int, int], str] = {}
        for p in passes:
            self.attempted += p["frames"]
            bad = list(p["errors"])
            if "digest" in p:
                ref = first_digest.setdefault((p["scene_seed"], p["frames"]), p["digest"])
                if p["digest"] != ref:
                    bad.append("report digest differs from the earlier run of this scene")
            # a failed check fails the pass's every frame, else the uncompleted ones
            self.failed += p["frames"] if bad else p["frames"] - p["completed"]
            if p["completed"] < p["frames"]:
                bad.append(f"completed {p['completed']} of {p['frames']} frames")
            self.errors += [f"{label} {p['kind']} scene seed {p['scene_seed']}: {e}" for e in bad]

    def fail_all(self, reason: str) -> None:
        self.failed = self.attempted or 1
        self.attempted = max(self.attempted, 1)
        self.errors.append(reason)

    @property
    def correct(self) -> bool:
        return not self.errors


def _timing(passes: list[dict]) -> dict:
    if not passes or any("wall_s" not in p for p in passes):
        raise RuntimeError("a measured scene did not complete")
    frame_ms = [1000.0 * s for p in passes for s in p["frame_s"]]
    return {
        "frame_ms_p50": statistics.median(frame_ms),
        "frame_ms_tail": percentile(frame_ms, TAIL_PERCENTILE),
        "frames_per_s": sum(p["completed"] for p in passes) / sum(p["wall_s"] for p in passes),
        "samples": len(frame_ms),
    }


def _scores(passes: list[dict]) -> dict:
    """Mean of each score over the measured scenes."""
    return {k: statistics.fmean(p["scores"][k] for p in passes) for k in passes[0]["scores"]}


def _of_kind(passes: list[dict], kind: str) -> list[dict]:
    return [p for p in passes if p["kind"] == kind]


def measure(root: Path, bench: dict, cpus: dict, name: str, seed: int, seconds: float,
            trace: bool) -> tuple[dict, dict]:
    """One benchmark run of one workload. Returns (contract result, full record)."""
    wl = WORKLOADS[name]
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = ["--workload", name, "--seed", str(seed)]
    gate = Gate()
    record: dict = {"workload": name, "params": wl.params(), "seed": seed,
                    "seconds": seconds, "trace": int(trace), "started_unix": time.time()}
    metrics: dict[str, float] = {}
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    try:
        if not trace:
            setups = [
                _spawn_worker(root, base + ["--seconds", str(seconds), "--setup-only"], deadline)
                for _ in range(SETUP_PROBES)
            ]
            main = _spawn_worker(root, base + ["--seconds", str(seconds)], deadline)
            gate.add_passes("run", main["passes"])
            gate.add_passes("setup probe", [p for w in setups for p in w["passes"]])
            setup_samples = [w["setup_s"] for w in setups + [main]]
            scenes = _of_kind(main["passes"], "timed")
            timing = _timing(scenes)
            metrics = {
                "frame_ms_p50": timing["frame_ms_p50"],
                "frame_ms_tail": timing["frame_ms_tail"],
                "frames_per_s": timing["frames_per_s"],
                "setup_s": statistics.median(setup_samples),
                "peak_rss_mb": main["peak_rss_mb"],
                **_scores(scenes),
            }
            record.update(
                tail_percentile=TAIL_PERCENTILE,
                frame_samples=timing["samples"],
                setup_samples_s=setup_samples,
                passes=main["passes"],
            )
            versions = main["versions"]
        else:
            OUT_DIR.mkdir(exist_ok=True)
            spans_file = OUT_DIR / f"spans-{name}-s{seed}.json"
            worker = _spawn_worker(
                root,
                base + ["--seconds", str(seconds), "--trace", "--spans-out", str(spans_file)],
                deadline,
            )
            # one gate over both, so traced reports must match untraced ones
            gate.add_passes("run", worker["passes"])
            for err in worker["coverage_errors"]:
                gate.errors.append(f"wrapper coverage: {err}")
            t_plain = _timing(_of_kind(worker["passes"], "timed"))
            t_traced = _timing(_of_kind(worker["passes"], "traced"))
            metrics = dict(worker["layers"])
            metrics["trace.frame_ms_p50"] = t_traced["frame_ms_p50"]
            metrics["trace.overhead_ms"] = t_traced["frame_ms_p50"] - t_plain["frame_ms_p50"]
            record.update(
                untraced_frame_ms_p50=t_plain["frame_ms_p50"],
                span_count=worker["span_count"],
                spans_file=str(spans_file.relative_to(root)),
                passes=worker["passes"],
            )
            versions = worker["versions"]
        record["environment"] = environment(root, versions, cpus)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, KeyError, ValueError,
            json.JSONDecodeError, statistics.StatisticsError, ZeroDivisionError) as exc:
        gate.fail_all(f"run aborted: {exc!r}")
    if metrics and set(metrics) != set(declared):
        gate.errors.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
        metrics = {k: v for k, v in metrics.items() if k in declared}
    record.update(attempted=gate.attempted, failed=gate.failed, errors=gate.errors,
                  metrics=metrics)
    result = {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }
    return result, record


def _print_human(result: dict, record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']:g}  trace {record['trace']}")
    for key, m in result["metrics"].items():
        note = ""
        if key == "frame_ms_tail":
            note = f"  (p{record['tail_percentile']:g} of {record['frame_samples']} frames)"
        print(f"  {key:32s} {m['value']:14.6g} {m['unit']}{note}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':32s} {frac:14.6g} ratio  ({result['failed']} of {result['attempted']} frames)")
    for err in record["errors"]:
        print(f"  FAILED: {err}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--seconds", type=float, default=None,
                   help="run length; default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    bench_path = root / "BENCHMARK.json"
    if not (root / "src" / "mvsparse" / "__init__.py").is_file() or not bench_path.is_file():
        print("run from the repository root: src/mvsparse and BENCHMARK.json are required",
              file=sys.stderr)
        return 2
    bench = json.loads(bench_path.read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    cpus = {"cpus_usable": len(os.sched_getaffinity(0))}
    cpus["pinned_cpu"] = pin_to_one_cpu()
    OUT_DIR.mkdir(exist_ok=True)
    results = {}
    for name in names:
        result, record = measure(root, bench, cpus, name, args.seed, seconds, bool(args.trace))
        stamp = time.strftime("%Y%m%dT%H%M%S")
        out = OUT_DIR / f"result-{name}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        _print_human(result, record)
        results[name] = result

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
