"""The chart writers' output bytes, pinned by sha256 for fixed inputs.

The inputs reach each corner of the writer: a zero loss (drawn at the
1e-16 floor of the log scale), a flat series (its bounds widened by 1),
seven series (the six-colour palette wraps) and the provenance comment,
which names the package version: a version bump changes every hash.
"""

import hashlib

import pytest

from typsgd.svg import line_chart, scatter_chart

SEVEN = [(f"run {i}", [0, 10, 20, 30], [1.0 / (i + 1), 0.1 * (i + 1), 0.0 if i == 3 else 1e-3, 2.5e-7]) for i in range(7)]

LINE_CHARTS = {
    "seven_series_with_a_zero": dict(series=SEVEN, title="training loss (sgd, first seed)", config_digest="0123abcd4567ef89"),
    "flat": dict(series=[("srs", [0, 25, 50], [0.5, 0.5, 0.5])], title="flat", y_label="suboptimality"),
}
SCATTERS = {
    "two_groups": dict(
        groups=[("H (dense)", [0.25, -1.5, 3.0], [2.0, 0.125, -7.5]), ("L (rest)", [10.0, 12.5], [-3.0, 4.0])],
        title="embedding strata (gamma=0.3)",
        config_digest="feedface00000000",
    ),
    "seven_groups_on_one_x": dict(
        groups=[(str(i), [1.5, 1.5], [float(i), i + 0.5]) for i in range(7)], title="one column"
    ),
}

EXPECTED = {
    "seven_series_with_a_zero": "2a4a62e15abc9e9bf8cc8379d5a91f084bffcb9d94cc45945cc173bfa25d3368",
    "flat": "69084fd42e7c4b524e8a083429f721455aa921eabefe66f173179ec3ec24b52b",
    "two_groups": "71c88d25717130be9041f35db3fca98e5dfc94ccf5acf4cc13d930d78ea18b0d",
    "seven_groups_on_one_x": "9ffe5c707e7ee66d7d769e5d77fd5d6ffc0df5a1960d005c79c655b58b1f3299",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(LINE_CHARTS))
def test_line_chart_bytes(tmp_path, name):
    path = tmp_path / "chart.svg"
    line_chart(path, **LINE_CHARTS[name])
    assert sha256(path) == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(SCATTERS))
def test_scatter_chart_bytes(tmp_path, name):
    path = tmp_path / "chart.svg"
    scatter_chart(path, **SCATTERS[name])
    assert sha256(path) == EXPECTED[name]

