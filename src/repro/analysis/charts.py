"""Terminal bar charts — the closest thing to the paper's figures a
text report can carry."""

from __future__ import annotations

from typing import Sequence


def ascii_bars(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 50,
    title: str | None = None,
    unit: str = "",
) -> str:
    """Horizontal bar chart, one bar per (label, value)."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have the same length")
    out: list[str] = []
    if title:
        out.append(title)
    if not values:
        return "\n".join(out + ["(no data)"])
    peak = max(abs(v) for v in values) or 1.0
    label_width = max(len(str(l)) for l in labels)
    for label, value in zip(labels, values):
        bar = "#" * max(0, int(round(abs(value) / peak * width)))
        out.append(f"{str(label).rjust(label_width)} | {bar} {value:.4g}{unit}")
    return "\n".join(out)


def ascii_series(
    x_labels: Sequence[str],
    series: dict[str, Sequence[float]],
    width: int = 50,
    title: str | None = None,
    unit: str = "",
) -> str:
    """Grouped bars: several named series over the same x labels.

    Mirrors the paper's grouped-bar figures (e.g. conventional vs PPB
    across speed differences).
    """
    out: list[str] = []
    if title:
        out.append(title)
    all_values = [v for values in series.values() for v in values]
    if not all_values:
        return "\n".join(out + ["(no data)"])
    peak = max(abs(v) for v in all_values) or 1.0
    name_width = max(len(name) for name in series)
    label_width = max(len(str(l)) for l in x_labels)
    for i, x in enumerate(x_labels):
        for name, values in series.items():
            value = values[i]
            bar = "#" * max(0, int(round(abs(value) / peak * width)))
            out.append(
                f"{str(x).rjust(label_width)} {name.ljust(name_width)} | "
                f"{bar} {value:.4g}{unit}"
            )
        out.append("")
    return "\n".join(out[:-1] if out and out[-1] == "" else out)
