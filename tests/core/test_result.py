"""Measurement and ResultTable behaviour."""

import math

import pytest

from repro.core.result import Measurement, ResultTable, geometric_mean


class TestMeasurement:
    def test_from_samples_uses_median(self):
        m = Measurement.from_samples([1.0, 100.0, 2.0], unit="s")
        assert m.value == 2.0
        assert m.samples == 3
        assert m.minimum == 1.0
        assert m.maximum == 100.0

    def test_single_sample_has_zero_stddev(self):
        m = Measurement.from_samples([5.0])
        assert m.stddev == 0.0

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            Measurement.from_samples([])

    @pytest.mark.parametrize("samples", [
        [math.nan, 1.0, 2.0],
        [1.0, math.nan, 2.0],
        [1.0, 2.0, math.inf],
        [-math.inf],
    ])
    def test_non_finite_samples_rejected(self, samples):
        # A NaN would make the median depend on where it sits.
        bad = next(v for v in samples if not math.isfinite(v))
        with pytest.raises(ValueError, match=f"finite, got {bad}"):
            Measurement.from_samples(samples)

    def test_float_conversion(self):
        assert float(Measurement(0.87, unit="s")) == 0.87

    def test_repr_mentions_sample_count(self):
        m = Measurement.from_samples([1.0, 2.0, 3.0], unit="J")
        assert "n=3" in repr(m)


class TestResultTable:
    def _table(self) -> ResultTable:
        table = ResultTable("demo", ["x", "y"], caption="cap")
        table.add_row("a", x=1, y=2)
        table.add_row("b", x=3)
        return table

    def test_rows_and_labels(self):
        table = self._table()
        assert table.labels() == ["a", "b"]
        assert len(table) == 2

    def test_unknown_column_rejected(self):
        with pytest.raises(ValueError, match="unknown columns"):
            self._table().add_row("c", z=1)

    def test_missing_cells_default_none(self):
        assert self._table().row("b").get("y") is None

    def test_column_extraction(self):
        assert self._table().column("x") == [1, 3]

    def test_unknown_column_lookup_raises(self):
        with pytest.raises(KeyError):
            self._table().column("z")

    def test_unknown_row_raises(self):
        with pytest.raises(KeyError):
            self._table().row("missing")

    def test_to_records_round_trip(self):
        records = self._table().to_records()
        assert records[0] == {"label": "a", "x": 1, "y": 2}

    def test_notes_accumulate(self):
        table = self._table()
        table.add_note("first")
        table.add_note("second")
        assert table.notes == ["first", "second"]

    def test_row_getitem(self):
        assert self._table().row("a")["x"] == 1


class TestGeometricMean:
    def test_matches_closed_form(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)

    def test_single_value(self):
        assert geometric_mean([7.0]) == pytest.approx(7.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_log_identity(self):
        values = [0.5, 2.0, 8.0]
        expected = math.exp(sum(math.log(v) for v in values) / 3)
        assert geometric_mean(values) == pytest.approx(expected)
