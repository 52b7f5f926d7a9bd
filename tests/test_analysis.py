"""Unit tests for the statistics and reporting helpers."""

import pytest

from repro.analysis.reporting import format_comparison_rows, format_table
from repro.analysis.stats import (
    coefficient_of_variation,
    mean,
    percentile,
    population_std,
    windowed_mean,
)
from repro.sim.comparison import ComparisonRow


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        assert mean([]) == 0.0

    def test_population_std(self):
        assert population_std([2.0, 2.0, 2.0]) == 0.0
        assert population_std([1.0, 3.0]) == pytest.approx(1.0)
        assert population_std([5.0]) == 0.0

    def test_coefficient_of_variation(self):
        assert coefficient_of_variation([1.0, 3.0]) == pytest.approx(0.5)
        assert coefficient_of_variation([0.0, 0.0]) == 0.0

    def test_percentile(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 5.0
        assert percentile(values, 50) == 3.0
        assert percentile(values, 25) == pytest.approx(2.0)
        assert percentile([7.0], 90) == 7.0

    def test_percentile_invalid_inputs(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 120)

    def test_windowed_mean(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert windowed_mean(values, 2) == pytest.approx([1.0, 1.5, 2.5, 3.5])
        assert windowed_mean(values, 10) == pytest.approx([1.0, 1.5, 2.0, 2.5])
        with pytest.raises(ValueError):
            windowed_mean(values, 0)


class TestReporting:
    def test_format_table_contains_headers_and_cells(self):
        text = format_table(["name", "value"], [("alpha", 1), ("beta", 22)], title="Demo")
        assert "Demo" in text
        assert "| name " in text
        assert "alpha" in text and "22" in text
        # Every row renders with the same width.
        lines = [line for line in text.splitlines() if line.startswith("|")]
        assert len({len(line) for line in lines}) == 1

    def test_format_table_handles_wide_cells(self):
        text = format_table(["x"], [("a-very-long-cell-value",)])
        assert "a-very-long-cell-value" in text

    def test_format_comparison_rows(self):
        rows = [
            ComparisonRow(
                methodology="Proposed",
                normalized_energy=1.11,
                normalized_performance=0.96,
                total_energy_j=100.0,
                average_power_w=2.0,
                deadline_miss_ratio=0.05,
            )
        ]
        text = format_comparison_rows(rows, title="Table I")
        assert "Proposed" in text
        assert "1.11" in text
        assert "0.96" in text
