"""Deterministic SVG pictures of paths and their stretched diagrams.

Two styles.  "grid": the path on its dm x dn lattice with the main
diagonal and the dinv-contributing cells marked (green, with a * for
monochrome printing).  "diagram": the stretched arrow picture on the
(dm+dn) x dmn rectangle with circled start levels, up arrows in red with
a + marker, down arrows in blue with a - marker, and optionally the green
sweep line through one step's start.

Output is byte-stable for fixed inputs: fixed sizes, fixed color tokens,
all coordinates formatted to two decimals.
"""

from __future__ import annotations

from .errors import IndexOutOfRange
from .paths import NORTH, StepWord, require_dyck, start_ranks
from .stats import dinv_cell_list

RED = "#cc2222"
BLUE = "#2244cc"
GREEN = "#22aa44"
GRID_GRAY = "#cccccc"
DIAG_GRAY = "#888888"

CELL = 40  # grid style: pixels per lattice unit
COL_W = 48  # diagram style: pixels per column
ROW_H = 18  # diagram style: pixels per level


def _f(v) -> str:
    return f"{float(v):.2f}"


def _svg(width: float, height: float, body: list[str]) -> str:
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(width)}" '
        f'height="{_f(height)}" viewBox="0 0 {_f(width)} {_f(height)}">',
        f'<rect x="0" y="0" width="{_f(width)}" height="{_f(height)}" fill="white"/>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _line(x1, y1, x2, y2, stroke: str, width: float, extra: str = "") -> str:
    """One `<line>`; `extra` is appended after the stroke width."""
    return (
        f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
        f'stroke="{stroke}" stroke-width="{_f(width)}"{extra}/>'
    )


def _text(x, y, size: int, fill: str, content, anchor: str | None = None) -> str:
    """One sans-serif `<text>`, with a `text-anchor` only when given."""
    anchor_attr = f' text-anchor="{anchor}"' if anchor is not None else ""
    return (
        f'<text x="{_f(x)}" y="{_f(y)}" font-family="sans-serif" '
        f'font-size="{size}"{anchor_attr} fill="{fill}">{content}</text>'
    )


def render_grid(word: StepWord) -> str:
    """The path in the traditional lattice picture."""
    require_dyck(word)
    params = word.params
    dm, dn = params.east_count, params.north_count
    margin = 30
    width = dm * CELL + 2 * margin
    height = dn * CELL + 2 * margin

    def px(x):
        return margin + x * CELL

    def py(y):
        return margin + (dn - y) * CELL

    body = []
    for (x, y) in dinv_cell_list(word):
        body.append(
            f'<rect x="{_f(px(x))}" y="{_f(py(y + 1))}" width="{_f(CELL)}" '
            f'height="{_f(CELL)}" fill="#ccebc5" stroke="{GREEN}" stroke-width="1.50"/>'
        )
        body.append(_text(px(x) + CELL / 2, py(y) - CELL / 2 + 6, 20, GREEN, "*", "middle"))
    for x in range(dm + 1):
        body.append(_line(px(x), py(0), px(x), py(dn), GRID_GRAY, 1))
    for y in range(dn + 1):
        body.append(_line(px(0), py(y), px(dm), py(y), GRID_GRAY, 1))
    body.append(_line(px(0), py(0), px(dm), py(dn), DIAG_GRAY, 1.5, ' stroke-dasharray="6 4"'))
    x = y = 0
    points = [f"{_f(px(0))},{_f(py(0))}"]
    for ch in word.steps:
        if ch == NORTH:
            y += 1
        else:
            x += 1
        points.append(f"{_f(px(x))},{_f(py(y))}")
    body.append(
        f'<polyline points="{" ".join(points)}" fill="none" stroke="black" '
        f'stroke-width="3.00"/>'
    )
    return _svg(width, height, body)


def render_diagram(word: StepWord, highlight: int | None = None) -> str:
    """The stretched arrow picture; `highlight` draws the green sweep line
    through that step's start (an int, 1-based)."""
    require_dyck(word)
    if highlight is not None and not (type(highlight) is int and 1 <= highlight <= len(word)):
        raise IndexOutOfRange(f"highlight step {highlight!r} outside 1..{len(word)}")
    params = word.params
    cols, levels = params.step_count, params.rect_height
    left, right, top, bottom = 50, 20, 20, 36
    width = cols * COL_W + left + right
    height = levels * ROW_H + top + bottom

    def px(x):
        return left + x * COL_W

    def py(level):
        return top + (levels - level) * ROW_H

    body = []
    for level in range(levels + 1):
        body.append(_line(px(0), py(level), px(cols), py(level), GRID_GRAY, 1))
        body.append(_text(px(0) - 8, py(level) + 4, 11, "black", level, "end"))
    for x in range(cols + 1):
        body.append(_line(px(x), py(0), px(x), py(levels), GRID_GRAY, 1))

    ranks = start_ranks(word)
    if highlight is not None:
        level, x0 = ranks[highlight - 1], highlight - 1
        rise = 0.5 / cols  # levels per column: small, so no line is crossed
        y_left = level - rise * x0
        y_right = level + rise * (cols - x0)
        body.append(_line(px(0), py(y_left), px(cols), py(y_right), GREEN, 3))
        body.append(_text(px(cols) + 4, py(y_right) + 4, 14, GREEN, "*"))

    for column, (letter, rank) in enumerate(zip(word.steps, ranks), start=1):
        up = letter == NORTH
        color = RED if up else BLUE
        end = rank + (params.m if up else -params.n)
        x1, y1 = px(column - 1), py(rank)
        x2, y2 = px(column), py(end)
        body.append(_line(x1, y1, x2, y2, color, 2.5))
        # arrowhead: short barbs at the end point
        sign = -1 if up else 1
        body.append(
            f'<path d="M {_f(x2 - 9)} {_f(y2 + sign * 1)} L {_f(x2)} {_f(y2)} '
            f'L {_f(x2 - 3)} {_f(y2 + sign * 9)}" fill="none" stroke="{color}" '
            f'stroke-width="2.50"/>'
        )
        body.append(
            f'<circle cx="{_f(x1)}" cy="{_f(y1)}" r="8.50" fill="white" '
            f'stroke="{color}" stroke-width="1.50"/>'
        )
        body.append(_text(x1, y1 + 4, 10, "black", rank, "middle"))
        marker = "+" if up else "-"
        body.append(_text((x1 + x2) / 2 + 6, (y1 + y2) / 2, 13, color, marker))
        body.append(_text((x1 + x2) / 2, py(0) + 24, 13, "black", letter, "middle"))
    return _svg(width, height, body)
