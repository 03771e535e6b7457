"""Run report serialization and trend comparison.

Reports are canonical JSON (sorted keys, no wall-clock content), so two
runs that computed the same numbers produce byte-identical files.
"""

from __future__ import annotations

import json


def dumps_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_report(report))


def load_report(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def fmt(value) -> str:
    """A report value as printed: n/a for None, four decimals for a float."""
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def compare_table(a: dict, b: dict) -> str:
    """Side-by-side trend table for two run reports."""
    rows = []
    label_a = a.get("mode", "a")
    label_b = b.get("mode", "b")
    rows.append(("metric", label_a, label_b, "b/a"))
    sa, sb = a.get("scores", {}), b.get("scores", {})

    def ratio(x, y):
        if x in (None, 0) or y is None:
            return "n/a"
        return f"{y / x:.3f}"

    for key in ("moda", "modp", "precision", "recall", "mota", "idf1"):
        rows.append((key, fmt(sa.get(key)), fmt(sb.get(key)), ratio(sa.get(key), sb.get(key))))
    for key in ("blocks_per_camera_frame", "bytes_per_frame"):
        rows.append((key, fmt(sa.get(key)), fmt(sb.get(key)), ratio(sa.get(key), sb.get(key))))
    ra, rb = a.get("resources", {}), b.get("resources", {})
    for key in ("mb_per_frame", "transmission_ms_per_frame"):
        rows.append((key, fmt(ra.get(key)), fmt(rb.get(key)), ratio(ra.get(key), rb.get(key))))

    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * widths[j] for j in range(4)))
    return "\n".join(lines)
