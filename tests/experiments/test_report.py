"""Tests for the table renderers."""

from repro.experiments import render_bars, render_series, render_table


class TestRenderTable:
    def test_basic_alignment(self):
        out = render_table(["name", "value"], [["a", 1.5], ["bb", 2.25]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "----" in lines[1]
        assert "1.50" in out
        assert "2.25" in out

    def test_title(self):
        out = render_table(["x"], [[1]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_ndigits(self):
        out = render_table(["x"], [[3.14159]], ndigits=4)
        assert "3.1416" in out

    def test_ints_not_decorated(self):
        out = render_table(["x"], [[42]])
        assert "42" in out
        assert "42.00" not in out


class TestRenderSeries:
    def test_label_column_has_a_blank_average(self):
        out = render_series({
            "a": {"interval": "64K", "dirty %": 10.0},
            "b": {"interval": "1M", "dirty %": 20.0},
        })
        average = out.splitlines()[-1].split()
        assert average == ["average", "15.00"]


class TestRenderBars:
    def test_scaled_to_peak(self):
        out = render_bars({"a": 50.0, "b": 100.0}, width=10)
        lines = out.splitlines()
        assert lines[0].count("█") == 5
        assert lines[1].count("█") == 10

    def test_values_shown(self):
        out = render_bars({"x": 12.3})
        assert "12.3%" in out

    def test_zero_values(self):
        out = render_bars({"a": 0.0, "b": 0.0})
        assert "█" not in out

    def test_nan_safe(self):
        out = render_bars({"a": float("nan"), "b": 2.0})
        assert "nan" in out

    def test_empty(self):
        assert render_bars({}, title="t") == "t"

    def test_title_and_alignment(self):
        out = render_bars({"long-name": 1.0, "x": 1.0}, title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert lines[1].index("|") == lines[2].index("|")


class TestRenderSeries:
    def test_average_row_added(self):
        series = {"a": {"c1": 1.0, "c2": 3.0}, "b": {"c1": 3.0, "c2": 5.0}}
        out = render_series(series)
        assert "average" in out
        lines = out.splitlines()
        assert "2.00" in lines[-1]
        assert "4.00" in lines[-1]

    def test_no_average_when_disabled(self):
        out = render_series({"a": {"c": 1.0}}, average_row=False)
        assert "average" not in out

    def test_missing_cells_render_nan(self):
        series = {"a": {"c1": 1.0}, "b": {"c2": 2.0}}
        out = render_series(series)
        assert "nan" in out

    def test_column_order_follows_first_seen(self):
        series = {"a": {"z": 1.0, "y": 2.0}}
        header = render_series(series).splitlines()[0]
        assert header.index("z") < header.index("y")
