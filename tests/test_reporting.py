import pytest

from repro.errors import ConfigurationError
from repro.reporting import ascii_chart, table


class TestAsciiChart:
    def test_renders_all_series_markers(self):
        chart = ascii_chart(
            {"a": [0, 1, 2, 3], "b": [3, 2, 1, 0]}, width=20, height=6
        )
        assert "o" in chart and "x" in chart
        assert "a" in chart and "b" in chart  # legend

    def test_extremes_on_first_and_last_rows(self):
        chart = ascii_chart({"up": [0.0, 1.0]}, width=10, height=5)
        lines = chart.splitlines()
        assert "o" in lines[0]  # max on top row
        assert "o" in lines[-2]  # min on bottom value row

    def test_scale_labels_present(self):
        chart = ascii_chart({"s": [10.0, 20.0]}, width=10, height=4)
        assert "20" in chart and "10" in chart

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ascii_chart({})
        with pytest.raises(ConfigurationError):
            ascii_chart({"a": [1, 2], "b": [1, 2, 3]})
        with pytest.raises(ConfigurationError):
            ascii_chart({"a": [1.0]})

    def test_constant_series_does_not_crash(self):
        chart = ascii_chart({"flat": [5.0, 5.0, 5.0]}, width=10, height=4)
        assert "o" in chart


class TestTable:
    def test_alignment(self):
        text = table(["name", "v"], [["a", 1], ["longer", 22]])
        lines = text.splitlines()
        assert len({line.index("1") if "1" in line else None for line in lines[2:]})
        assert lines[1].startswith("----")

    def test_row_width_checked(self):
        with pytest.raises(ConfigurationError):
            table(["a", "b"], [["only-one"]])

    def test_empty_rows_ok(self):
        text = table(["a", "b"], [])
        assert "a" in text and "b" in text
