"""Tests for table rendering."""

import pytest

from repro.experiments.reporting import format_normalized, format_table


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


def test_format_normalized_missing_baseline():
    with pytest.raises(KeyError):
        format_normalized({"ATC": 1.0}, baseline="CR")


def test_format_normalized_uses_shared_normalization():
    out = format_normalized({"CR": 2.0, "ATC": 1.0})
    assert "0.500" in out and "1.000" in out


def test_format_normalized_missing_baseline_is_descriptive():
    with pytest.raises(KeyError, match="baseline 'CR' missing"):
        format_normalized({"ATC": 1.0}, baseline="CR")


def test_format_normalized_zero_baseline_is_descriptive():
    with pytest.raises(ZeroDivisionError, match="baseline execution time is zero"):
        format_normalized({"CR": 0.0, "ATC": 1.0})
