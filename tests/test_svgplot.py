import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import heatmap_pixels
from oversmooth.core import ContractError
from oversmooth.svgplot import (MARGIN_L, MARGIN_T, NON_FINITE_COLOR, PLOT_H,
                                PLOT_W, RAMP, bar_chart, heatmap, line_plot,
                                ramp_colors)

SVG = "{http://www.w3.org/2000/svg}"


def scalar_ramp_color(x):
    """The per-value ramp lookup the vector path replaced: clamp, find the
    first stop at or above x, interpolate, round each channel with Python's
    round; NaN falls through every comparison to the top colour."""
    x = min(max(float(x), 0.0), 1.0)
    for (x0, c0), (x1, c1) in zip(RAMP, RAMP[1:]):
        if x <= x1:
            w = (x - x0) / (x1 - x0)
            rgb = tuple(round(a + w * (b - a)) for a, b in zip(c0, c1))
            return "#{:02x}{:02x}{:02x}".format(*rgb)
    return "#fafad2"


def heatmap_cases():
    rng = np.random.default_rng(20261018)
    nonfinite = rng.normal(size=(6, 7))
    nonfinite[1, 2], nonfinite[3, 4], nonfinite[5, 0] = np.nan, np.inf, -np.inf
    plus_inf = rng.normal(size=(5, 4))
    plus_inf[2, 1] = np.inf
    minus_inf = rng.normal(size=(4, 5))
    minus_inf[0, 3] = -np.inf
    return {
        # scaled values hit the stops 0, .25, .5, .75 and 1 exactly
        "ramp_stops": np.array([[0.0, 1.0, 2.0, 3.0, 4.0],
                                [4.0, 3.0, 2.0, 1.0, 0.0]]),
        "constant": np.full((6, 5), 2.5),
        "one_row": rng.normal(size=(1, 17)),
        "one_column": rng.normal(size=(23, 1)),
        "random_515x78": rng.normal(size=(515, 78)),
        "nan_and_infs": nonfinite,
        "plus_inf": plus_inf,
        "minus_inf": minus_inf,
        "all_nan": np.full((3, 4), np.nan),
    }


def pixel_colors(pixels):
    hexes = np.ascontiguousarray(pixels).tobytes().hex()
    return ["#" + hexes[i:i + 6] for i in range(0, len(hexes), 6)]


def expected_colors(m):
    """Cell colours in C order: the ramp over the finite cells' range,
    NON_FINITE_COLOR for NaN and +-inf."""
    finite = np.isfinite(m).ravel()
    values = m.ravel()[finite]
    colors = [NON_FINITE_COLOR] * m.size
    if values.size:
        lo, hi = values.min(), values.max()
        ramp = ramp_colors((values - lo) / (hi - lo if hi > lo else 1.0))
        for i, color in zip(np.flatnonzero(finite), ramp):
            colors[i] = color
    return colors


# The cells are pinned through the decoded raster, not through a digest of
# the SVG: the PNG's compressed bytes depend on the zlib build.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(heatmap_cases()))
def test_heatmap_bytes_are_pinned(name):
    m = heatmap_cases()[name]
    svg = heatmap(m, "t", "x", "y")
    assert heatmap(m, "t", "x", "y") == svg
    pixels = heatmap_pixels(svg)  # checks the PNG's structure and CRCs
    assert pixels.shape == m.shape + (3,)
    assert pixel_colors(pixels) == expected_colors(m)
    root = ET.fromstring(svg)
    (image,) = root.iter(f"{SVG}image")
    assert [image.get(k) for k in ("x", "y", "width", "height")] == \
        [str(MARGIN_L), str(MARGIN_T), str(PLOT_W), str(PLOT_H)]
    bar = [r.get("fill") for r in root.iter(f"{SVG}rect")
           if r.get("width") == "14"]
    assert bar == [scalar_ramp_color(i / 31) for i in range(32)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["nan_and_infs", "plus_inf", "minus_inf",
                                  "all_nan"])
def test_heatmap_scales_by_the_finite_cells(name):
    m = heatmap_cases()[name]
    svg = heatmap(m, "t", "x", "y")
    assert pixel_colors(heatmap_pixels(svg)) == expected_colors(m)
    finite = np.isfinite(m).ravel()
    values = m.ravel()[finite]
    if values.size:
        lo, hi = values.min(), values.max()
        assert f">{hi:.6g}</text>" in svg and f">{lo:.6g}</text>" in svg
    assert NON_FINITE_COLOR not in ramp_colors(np.linspace(0.0, 1.0, 4097))
    assert f">{(~finite).sum()} non-finite</text>" in svg
    assert "nan<" not in svg and "inf<" not in svg


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0), (5,), (2, 3, 4)])
def test_heatmap_rejects_grids_without_cells(shape):
    with pytest.raises(ContractError, match=re.escape(str(shape))):
        heatmap(np.zeros(shape), "t", "x", "y")


def test_ramp_colors_match_the_scalar_lookup():
    rng = np.random.default_rng(5)
    stops = [x for x, _ in RAMP]
    xs = np.concatenate([rng.uniform(-0.1, 1.1, size=100_000), stops,
                         np.nextafter(stops, 2.0), np.nextafter(stops, -1.0),
                         [np.nan, np.inf, -np.inf, -0.0]])
    assert ramp_colors(xs) == [scalar_ramp_color(x) for x in xs]
    for x in xs[::997]:
        assert ramp_colors([x])[0] == scalar_ramp_color(x)


def test_ramp_colors_round_channel_ties_half_to_even():
    ties = []
    for (x0, c0), (x1, c1) in zip(RAMP, RAMP[1:]):
        for a, b in zip(c0, c1):
            d = abs(b - a)
            for m in range(1, 2 * d, 2):  # channel a + (b - a) * m / (2 d)
                x = x0 + (x1 - x0) * m / (2 * d)
                if (a + (x - x0) / (x1 - x0) * (b - a)) % 1 == 0.5:
                    ties.append(x)
    assert len(ties) > 500
    assert ramp_colors(ties) == [scalar_ramp_color(x) for x in ties]


MARKUP = "a&b <c> \"d\" 'e' &amp;"
ESCAPED = "a&amp;b &lt;c&gt; \"d\" 'e' &amp;amp;"


@pytest.mark.parametrize("plot", [
    lambda t: line_plot((t, [0, 1], [0, 1]), t, t, t),
    lambda t: heatmap(np.eye(3), t, t, t),
    lambda t: bar_chart([t], [1.0], t, t),
])
def test_text_escapes_markup_and_leaves_quotes(plot):
    svg = plot(MARKUP)
    texts = [el.text for el in ET.fromstring(svg).iter(f"{SVG}text")]
    assert texts.count(MARKUP) >= 3  # title, a label, and a legend or axis
    assert svg.count(f">{ESCAPED}</text>") == texts.count(MARKUP)
    assert MARKUP not in svg
