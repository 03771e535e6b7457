"""Compare benchmark results of a parent commit and a change.

    python3 perfbench/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are result files written by run.py (perfbench/out/
result-*.json) or directories holding them; only untraced results are
used. For every workload and end-to-end metric it prints each side's median
and quartiles, the pairs the change won, and a verdict with the bounds fixed
in BENCHMARK.json. The k-th run of a seed on one side, in the order the runs
started, pairs with the k-th run of that seed on the other side, so ten runs
of one seed per side make ten pairs; runs left without a partner are listed
and count for no pair. Verdicts:

- improved: at least ten pairs, the change wins at least nine tenths of
  them (ties count for neither), and the medians differ in the change's
  favour by more than the distance between the parent's quartiles;
- regressed: the change's median is worse than the parent's by more than
  the bound (a share of the parent's median);
- unresolved: not regressed, but the parent's own spread (quartile
  distance over median) is wider than the bound, and not every run of the
  change reads better than every run of the parent;
- unchanged: otherwise.

Results measured in different environments or with different benchmark
settings are refused (exit code 2), never compared silently, and so are
runs of one seed on one side whose reports differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import Counter
from pathlib import Path

# Environment fields that identify the program version and may differ
# between the two sides; every other field must match.
VERSION_FIELDS = ("git_commit", "source_sha256")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_results(path: str) -> list[dict]:
    """Untraced results, in the order the runs started."""
    p = Path(path)
    files = sorted(p.glob("result-*.json")) if p.is_dir() else [p]
    records = [json.loads(f.read_text()) for f in files]
    records = [r for r in records if r.get("trace") == 0 and r.get("metrics")]
    return sorted(records, key=lambda r: r["started_unix"])


def keyed(records: list[dict]) -> dict[tuple[str, int, int], dict]:
    """(workload, seed, k) -> the k-th run of that workload and seed."""
    out: dict[tuple[str, int, int], dict] = {}
    seen: Counter = Counter()
    for r in records:
        k = seen[r["workload"], r["seed"]]
        seen[r["workload"], r["seed"]] += 1
        out[r["workload"], r["seed"], k] = r
    return out


def _digests(record: dict) -> tuple:
    return tuple(p.get("digest") for p in record["passes"] if p["kind"] == "timed")


def _environment(record: dict) -> dict:
    return {k: v for k, v in record["environment"].items() if k not in VERSION_FIELDS}


def mismatches(parent: list[dict], change: list[dict]) -> list[str]:
    """Differences in environment between any two results, in workload
    settings between results of one workload, and in program version
    within one side."""
    problems = set()
    env_ref = _environment(parent[0])
    settings_ref: dict[str, tuple] = {}
    for r in parent + change:
        settings_ref.setdefault(r["workload"], (r["params"], r["seconds"]))
    for side, records in (("parent", parent), ("change", change)):
        versions = {tuple(r["environment"].get(k) for k in VERSION_FIELDS) for r in records}
        if len(versions) > 1:
            problems.add(f"{side} results come from {len(versions)} program versions")
        for r in records:
            env = _environment(r)
            for key in sorted(set(env_ref) | set(env)):
                if env.get(key) != env_ref.get(key):
                    problems.add(f"{side}: {key} is {env.get(key)!r}, "
                                 f"first parent result has {env_ref.get(key)!r}")
            if (r["params"], r["seconds"]) != settings_ref[r["workload"]]:
                problems.add(f"{side}: {r['workload']} workload parameters or run length differ")
        digests: dict[tuple[str, int], set] = {}
        for r in records:
            digests.setdefault((r["workload"], r["seed"]), set()).add(_digests(r))
        for (workload, seed), found in sorted(digests.items()):
            if len(found) > 1:
                problems.add(f"{side}: {workload} seed {seed} runs gave {len(found)} different reports")
    return sorted(problems)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: dict, change: dict, higher_better: bool, bound: float) -> dict:
    """Verdict for one metric on one workload; the dicts map a run's pairing
    key -> value, and runs with the same key form a pair."""
    sign = 1.0 if higher_better else -1.0
    p_vals, c_vals = list(parent.values()), list(change.values())
    p1, pm, p3 = quartiles(p_vals)
    c1, cm, c3 = quartiles(c_vals)
    pairs = sorted(set(parent) & set(change))
    wins = sum(1 for k in pairs if sign * (change[k] - parent[k]) > 0)
    gain = sign * (cm - pm)
    worse_share = -gain / abs(pm) if pm else 0.0
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    all_better = all(sign * (c - p) > 0 for c in c_vals for p in p_vals)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > p3 - p1:
        result = "improved"
    elif worse_share > bound:
        result = "regressed"
    elif spread > bound and not all_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return {
        "parent": (pm, p1, p3, len(p_vals)),
        "change": (cm, c1, c3, len(c_vals)),
        "wins": wins,
        "pairs": len(pairs),
        "verdict": result,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args(argv)

    metrics = json.loads(Path(args.benchmark).read_text())["end_to_end"]
    parent, change = load_results(args.parent), load_results(args.change)
    if not parent or not change:
        print("no untraced results found on one side", file=sys.stderr)
        return 2
    problems = mismatches(parent, change)
    if problems:
        print("refusing to compare results measured under different settings:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 2

    sides = keyed(parent), keyed(change)
    unpaired = sorted(set(sides[0]) ^ set(sides[1]))
    for wl, seed, k in unpaired:
        side = "parent" if (wl, seed, k) in sides[0] else "change"
        print(f"unpaired: {side} run {k + 1} of {wl} seed {seed}", file=sys.stderr)
    workloads = sorted({r["workload"] for r in parent} & {r["workload"] for r in change})
    header = f"{'workload':15s} {'metric':24s} {'parent median [q1, q3] n':34s} {'change median [q1, q3] n':34s} {'wins':>7s}  verdict"
    print(header)
    print("-" * len(header))
    for wl in workloads:
        for m in metrics:
            name = m["name"]
            values = [{key: r["metrics"][name] for key, r in rs.items()
                       if key[0] == wl and name in r["metrics"]} for rs in sides]
            if not values[0] or not values[1]:
                continue
            v = verdict(values[0], values[1], m["better"] == "higher", m["bound"])

            def fmt(q):
                return f"{q[0]:.5g} [{q[1]:.5g}, {q[2]:.5g}] {q[3]}"

            print(f"{wl:15s} {name:24s} {fmt(v['parent']):34s} {fmt(v['change']):34s} "
                  f"{v['wins']:>3d}/{v['pairs']:<3d}  {v['verdict']} (bound {m['bound']:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
