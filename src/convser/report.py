"""Result tables: the 8-row-per-width CSV schema, a text renderer, and an
optional SVG bar chart of averaged accuracy."""

from __future__ import annotations

import csv
import io
import re
from html import escape
from pathlib import Path

from .exceptions import ParameterError
from .train_eval import GridFailure, METRIC_NAMES, RunReport

CSV_COLUMNS = (
    "Model",
    "Filters",
    "Kernel Size",
    "LSTM Neurons",
    "Ø Accuracy",
    "Ø Precision",
    "Ø Sensitivity",
    "Ø F1-Score",
)

_METRIC_COLUMNS = dict(zip(METRIC_NAMES, CSV_COLUMNS[4:]))

# what a metric cell may hold: a percent (at most 100), an undefined ratio, or a
# failed cell
_METRIC_CELL = re.compile(r"\d+(\.\d+)?%|n/a|failed")


def format_percent(value) -> str:
    return "n/a" if value is None else f"{100.0 * value:.2f}%"


def format_metrics(m) -> str:
    """`accuracy A, precision P, sensitivity S, f1 F` of a MetricsReport."""
    return ", ".join(f"{name} {format_percent(getattr(m, name))}" for name in METRIC_NAMES)


def parse_percent(text: str):
    """The fraction in a percent cell; None for `n/a` or `failed`."""
    return float(text[:-1]) / 100.0 if text.endswith("%") else None


def result_row(result) -> dict:
    cfg = result.model_config
    row = {
        "Model": result.model_id,
        "Filters": str(cfg.filters),
        "Kernel Size": str(cfg.kernel_size),
        "LSTM Neurons": str(cfg.lstm_units),
    }
    if isinstance(result, GridFailure):
        for name in METRIC_NAMES:
            row[_METRIC_COLUMNS[name]] = "failed"
        return row
    for name in METRIC_NAMES:
        row[_METRIC_COLUMNS[name]] = format_percent(getattr(result.averaged, name))
    return row


def results_csv(results) -> str:
    """The text of a results table: one row per grid cell in M1..M8 order,
    Table-schema columns."""
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(map(result_row, results))
    return text.getvalue()


def read_results_csv(path) -> list[dict]:
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_COLUMNS:
            raise ParameterError(
                f"{path}: unexpected columns {reader.fieldnames!r}; expected {list(CSV_COLUMNS)}"
            )
        rows = [dict(row) for row in reader]
    for row in rows:
        for col in CSV_COLUMNS[4:]:
            cell = row[col] or ""
            if not (_METRIC_CELL.fullmatch(cell) and (parse_percent(cell) or 0.0) <= 1.0):
                raise ParameterError(f"{path}: model {row['Model']!r} has {col} {row[col]!r}; "
                                     "expected a percent of at most 100%, n/a or failed")
    return rows


def render_text_table(rows: list[dict]) -> str:
    """Aligned text rendering of a results CSV, with an averaging footnote
    whenever undefined ("n/a") metrics were excluded."""
    widths = {col: len(col) for col in CSV_COLUMNS}
    for row in rows:
        for col in CSV_COLUMNS:
            widths[col] = max(widths[col], len(row.get(col, "")))
    lines = [
        "  ".join(col.ljust(widths[col]) for col in CSV_COLUMNS),
        "  ".join("-" * widths[col] for col in CSV_COLUMNS),
    ]
    for row in rows:
        lines.append("  ".join(row.get(col, "").ljust(widths[col]) for col in CSV_COLUMNS))
    if any("n/a" in row.get(col, "") for row in rows for col in CSV_COLUMNS):
        lines.append(
            "note: n/a marks an undefined ratio (zero denominator); such folds are "
            "excluded from the averages."
        )
    return "\n".join(lines)


def render_accuracy_svg(rows: list[dict], path) -> None:
    """Bar chart of the averaged accuracy column, one bar per model row."""
    width, height, margin = 640, 360, 48
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    n = max(len(rows), 1)
    bar_w = plot_w / n * 0.7

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        'stroke="black"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = height - margin - tick * plot_h
        parts.append(
            f'<text x="{margin - 6}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-size="11">{tick:.2f}</text>'
        )
    for i, row in enumerate(rows):
        cell = row.get("Ø Accuracy", "n/a")
        acc = parse_percent(cell)
        x = margin + (i + 0.15) * plot_w / n
        if acc is None:  # labelled n/a or failed
            parts.append(
                f'<text x="{x + bar_w / 2:.1f}" y="{height - margin - 6}" '
                f'text-anchor="middle" font-size="11">{cell}</text>'
            )
        else:
            bar_h = acc * plot_h
            parts.append(
                f'<rect x="{x:.1f}" y="{height - margin - bar_h:.1f}" '
                f'width="{bar_w:.1f}" height="{bar_h:.1f}" fill="#4878a8"/>'
            )
        label = escape(row.get("Model", "?"), quote=False)  # text content: quotes need no entity
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{height - margin + 14}" '
            f'text-anchor="middle" font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
