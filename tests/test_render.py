"""The SVG figures of `render`, pinned byte for byte beyond the golden
files: d = 2, the base and corner paths, and the sweep line at every step."""

import hashlib

from sweeplab import base_path, corner_path, make_params
from sweeplab.render import render_diagram, render_grid


def test_figures_byte_for_byte():
    figures = {}
    for m, n, d in [(3, 2, 1), (5, 3, 1), (2, 1, 2)]:
        params = make_params(m, n, d)
        tag = f"{m}x{n}x{d}"
        base = base_path(params)
        for name, word in [("base", base), ("corner", corner_path(params))]:
            figures[f"{tag}_{name}_grid.svg"] = render_grid(word)
            figures[f"{tag}_{name}_diagram.svg"] = render_diagram(word)
        for step in range(1, len(base) + 1):
            figures[f"{tag}_base_sweepline_{step}.svg"] = render_diagram(base, highlight=step)
    assert len(figures) == 31
    # every figure, read in sorted-name order
    digest = hashlib.sha256()
    for name in sorted(figures):
        digest.update(figures[name].encode())
    assert digest.hexdigest() == (
        "3d9e7254e053ef8ecafe0a848ac9dd40f9b628a2f7810930e077f286ad7f3be4"
    )
