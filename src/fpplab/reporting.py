"""Deterministic serialization: JSON, CSV and a dependency-free SVG chart.

Byte-for-byte stability is a contract here: the same object must always
serialize to the same bytes. JSON goes through the standard library with
sorted keys; dataclasses, numpy scalars and arrays are first normalized to
plain Python values. Floats are written as `repr`, the shortest text that
reads back as the same binary64 value, in JSON and CSV alike, so no value
is lost. Non-finite floats are rejected rather than written as NaN/Infinity.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, is_dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError


def _normalize(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return _normalize(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_normalize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, floats as repr, one trailing newline."""
    try:
        text = json.dumps(_normalize(obj), sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:  # the only one left after _normalize: NaN or inf
        raise DomainError("non-finite float in a report; encode it as null/flag") from exc
    except TypeError as exc:
        raise DomainError(f"cannot serialize deterministically: {exc}") from exc
    return text + "\n"


def write_json(obj, path) -> Path:
    path = Path(path)
    path.write_text(dumps(obj), encoding="utf-8")
    return path


def format_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        x = float(v)
        if not math.isfinite(x):
            raise DomainError(f"non-finite float {x!r} in a report; encode it as null/flag")
        return repr(x)
    return str(v)


def write_csv(header: list[str], rows, path) -> Path:
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_svg_lines(
    path,
    x,
    series: dict,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> Path:
    """Minimal multi-series line chart, no external plotting dependency;
    every series holds one y per x."""
    x = [float(v) for v in x]
    if not x or not series or any(len(ys) != len(x) for ys in series.values()):
        raise DomainError("svg chart needs at least one point and one series, "
                          "and one y per x in every series")
    width, height, margin = 640, 420, 56
    values = [float(v) for ys in series.values() for v in ys]
    x_min, x_max = min(x), max(x)
    y_min, y_max = min(values), max(values)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    def sx(v):
        return margin + (v - x_min) / (x_max - x_min) * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - y_min) / (y_max - y_min) * (height - 2 * margin)

    colors = ["#1f6feb", "#d73a49", "#22863a", "#b08800", "#6f42c1", "#e36209"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="#444"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="#444"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{x_label}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="16" y="{height / 2:.0f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {height / 2:.0f})">{y_label}</text>'
        )
    for idx, (name, ys) in enumerate(sorted(series.items())):
        pts = " ".join(f"{sx(xv):.2f},{sy(float(yv)):.2f}" for xv, yv in zip(x, ys))
        color = colors[idx % len(colors)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 14 * idx + 10}" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    path = Path(path)
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return path
