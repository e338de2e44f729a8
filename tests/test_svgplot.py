"""SVG charts: the refusals of a series and of a chart with nothing to draw."""

import math

import numpy as np
import pytest

from fracheat import svgplot


def chart(x, y):
    return svgplot.line_chart([svgplot.Series("s", x, y)], title="t", xlabel="x", ylabel="y")


@pytest.mark.parametrize(("call", "message"), [
    (lambda: svgplot.Series("s", np.arange(3.0), np.arange(4.0)), "series 's': x and y must be equal-length 1-d"),
    (lambda: svgplot.Series("s", np.ones((2, 2)), np.ones((2, 2))), "series 's': x and y must be equal-length 1-d"),
    (lambda: chart([math.nan, 1.0], [1.0, math.inf]), "no plottable points after filtering non-finite values"),
])
def test_a_series_or_chart_with_nothing_to_draw_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()
