"""Tests for table rendering."""

from repro.experiments.reporting import format_table


def test_format_table_floats_and_strings():
    out = format_table(["name", "val"], [["a", 1.23456], ["b", 7]])
    assert "1.235" in out
    assert "7" in out


def test_undefined_cells_render_as_n_a():
    out = format_table(["a", "b", "c"], [[None, float("nan"), 0.5]])
    assert out.splitlines()[2].split(" | ") == ["n/a", "n/a", "0.500"]


def test_format_table_title_optional():
    out = format_table(["x"], [[1]])
    assert not out.startswith("\n")
    titled = format_table(["x"], [[1]], title="Tbl")
    assert titled.splitlines()[0] == "Tbl"
