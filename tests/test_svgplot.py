import hashlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from oversmooth.svgplot import (NON_FINITE_COLOR, PLOT_W, RAMP, heatmap,
                                ramp_color, ramp_colors)

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


# sha256 of heatmap(case, "t", "x", "y"). The all-finite cases were recorded
# with the per-cell scalar implementation (one ramp_color and six formats per
# cell); the non-finite ones with the finite-range rule, whose cells
# test_heatmap_scales_by_the_finite_cells checks one by one.
HEATMAP_SHA256 = {
    "ramp_stops": "2db362c1bea4fc72c4febf2cb03e04be59deaaf98faebacf9c99b4dabce08c0d",
    "constant": "b01ca695af2565dfbe714cc00987252efcd02436c15b4a67b9e7b795bb9eb11d",
    "one_row": "5bc4bfa183f9a20406e3ac817602829324367565b2744b96c74e160939d6d84c",
    "one_column": "a7eea4712327f52c9801a6b047c3ec467d4cfbcbd036c877a9af92fee3514ca6",
    "random_515x78": "1a1df4ed84b6f6b7c49d27d9a377e1f3cd60627b2827fbb02e52850bcada7c03",
    "nan_and_infs": "f5e4a9c2404684d20c4dc53611fd40a7c0732bfd9c71ac16f43141dd70430d84",
    "plus_inf": "83bbda6748d6b29257737962c8e533143497c82d99ee36d1a3b2fca0750f4e5d",
    "minus_inf": "72458fe4ff07fee88408a8cec2987197fb1a47326405e0e4df6a101ee4fb62bb",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(HEATMAP_SHA256))
def test_heatmap_bytes_are_pinned(name):
    svg = heatmap(heatmap_cases()[name], "t", "x", "y")
    assert hashlib.sha256(svg.encode()).hexdigest() == HEATMAP_SHA256[name]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["nan_and_infs", "plus_inf", "minus_inf",
                                  "all_nan"])
def test_heatmap_scales_by_the_finite_cells(name):
    m = heatmap_cases()[name]
    svg = heatmap(m, "t", "x", "y")
    rows, cols = m.shape
    cell_w = f"{PLOT_W / cols + 0.5:.6g}"
    fills = [r.get("fill") for r in ET.fromstring(svg).iter(f"{SVG}rect")
             if r.get("width") == cell_w]
    assert len(fills) == rows * cols
    finite = np.isfinite(m).ravel()
    values = m.ravel()[finite]
    if values.size:
        lo, hi = values.min(), values.max()
        assert [f for f, ok in zip(fills, finite) if ok] == \
            ramp_colors((values - lo) / (hi - lo))
    assert [f for f, ok in zip(fills, finite) if not ok] == \
        [NON_FINITE_COLOR] * int((~finite).sum())
    assert NON_FINITE_COLOR not in ramp_colors(np.linspace(0.0, 1.0, 4097))
    assert f">{(~finite).sum()} non-finite</text>" in svg
    assert "nan<" not in svg and "inf<" not in svg


def test_ramp_colors_match_the_scalar_lookup():
    rng = np.random.default_rng(5)
    stops = [x for x, _ in RAMP]
    xs = np.concatenate([rng.uniform(-0.1, 1.1, size=100_000), stops,
                         np.nextafter(stops, 2.0), np.nextafter(stops, -1.0),
                         [np.nan, np.inf, -np.inf, -0.0]])
    assert ramp_colors(xs) == [scalar_ramp_color(x) for x in xs]
    for x in xs[::997]:
        assert ramp_color(x) == scalar_ramp_color(x)


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
