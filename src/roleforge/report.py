"""Plain-text rendering of the group, measure-mean, and capitalist share tables."""

from __future__ import annotations

import numpy as np

from .capitalists import SLICES

P_FLOOR = 1e-300


def format_percent(x: float) -> str:
    return f"{x:.2f}%"


def format_p(p: float) -> str:
    """P-value for text output; sub-1e-300 values are clamped to '<1e-300'."""
    if p != p:
        return "NA"
    if p < P_FLOOR:
        return "<1e-300"
    return f"{p:.6g}"


def group_summary_rows(sizes, roles) -> list[tuple[int, int, float, str]]:
    """(group, size, share %, role) rows; groups are reported 1-based."""
    total = int(np.sum(sizes))
    rows = []
    for i, (size, role) in enumerate(zip(sizes, roles), start=1):
        share = 100.0 * size / total if total else 0.0
        rows.append((i, int(size), share, role))
    return rows


def render_report(group_rows, mean_rows, measure_names, crosstabs, k, *,
                  overlap_min: float, in_degree_min: int) -> str:
    """The full text report: group sizes and roles, per-group measure means,
    and capitalist shares per (band, behavior) slice."""
    lines = []
    lines.append("== Role groups ==")
    lines.append("group\tsize\tshare\trole")
    for g, size, share, role in group_rows:
        lines.append(f"{g}\t{size}\t{format_percent(share)}\t{role}")
    lines.append("")
    lines.append("== Group means of the within-community z-scores of the role measures ==")
    lines.append("group\t" + "\t".join(measure_names))
    for i, means in enumerate(mean_rows, start=1):
        lines.append(f"{i}\t" + "\t".join(f"{m:.2f}" for m in means))
    lines.append("")
    lines.append(
        f"== Capitalist share per group (overlap_min={overlap_min}, in_degree_min={in_degree_min}) =="
    )
    lines.append("band\tbehavior\trow\t" + "\t".join(f"G{i}" for i in range(1, k + 1)))
    for band, behavior in SLICES:
        row_a, row_b = crosstabs[(band, behavior)]
        lines.append(f"{band}\t{behavior}\tshare_of_capitalists\t" + "\t".join(format_percent(v) for v in row_a))
        lines.append(f"{band}\t{behavior}\tshare_of_group\t" + "\t".join(format_percent(v) for v in row_b))
    return "\n".join(lines) + "\n"
