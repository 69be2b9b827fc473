"""Units checker: the real tree is dimension-clean; each UNIT rule fires
on a seeded defect with its exact rule id; the suffix grammar and the
shared suppression comments behave."""

import textwrap

from repro.check import units
from repro.check.unit_maps import ANNOTATION_DIMS
from repro.check.units import parse_name_dims
from repro.core import quantity
from repro.core.dimension import (
    BANDWIDTH,
    DIMENSIONLESS,
    ENERGY,
    ENERGY_DELAY,
    FREQUENCY,
    POWER,
    THERMAL_RESISTANCE,
    TIME,
)


def check(snippet, path="src/repro/analysis/example.py"):
    return units.check_source(textwrap.dedent(snippet), path)


def rules_of(findings):
    return {finding.rule for finding in findings}


class TestRealTreeIsClean:
    def test_package_checks_clean(self):
        assert units.run() == []

    def test_package_root_is_the_installed_package(self):
        assert (units.package_root() / "cli.py").exists()

    def test_every_rule_has_severity_and_description(self):
        for rule, (severity, description) in units.RULES.items():
            assert rule.startswith("UNIT")
            assert severity is not None and description

    def test_annotation_table_names_every_unit_alias(self):
        aliases = {name for name, value in vars(quantity).items()
                   if value is float}
        assert aliases == set(ANNOTATION_DIMS)


class TestSuffixGrammar:
    def test_simple_units(self):
        assert parse_name_dims("latency_s") == (TIME, 1.0)
        assert parse_name_dims("latency_ms") == (TIME, 1e-3)
        assert parse_name_dims("energy_j") == (ENERGY, 1.0)
        assert parse_name_dims("energy_mj") == (ENERGY, 1e-3)
        assert parse_name_dims("power_w") == (POWER, 1.0)
        assert parse_name_dims("clock_ghz") == (FREQUENCY, 1e9)

    def test_per_ratios(self):
        assert parse_name_dims("bandwidth_bytes_per_s") == (BANDWIDTH, 1.0)
        assert parse_name_dims("r_passive_c_per_w") == (THERMAL_RESISTANCE, 1.0)

    def test_chained_per_ratio_walks_left(self):
        dims = parse_name_dims("drift_c_per_w_per_s")
        assert dims is not None
        assert dims[0] == THERMAL_RESISTANCE / TIME

    def test_compound_product_suffix(self):
        assert parse_name_dims("edp_mj_ms") == (ENERGY_DELAY, 1e-6)

    def test_dimensionless_tokens(self):
        assert parse_name_dims("utilization") == (DIMENSIONLESS, 1.0)
        assert parse_name_dims("speedup_ratio") == (DIMENSIONLESS, 1.0)

    def test_non_units_stay_unclassified(self):
        assert parse_name_dims("table") is None
        assert parse_name_dims("model_name") is None
        # bare single letters are loop variables, not seconds/joules/watts
        assert parse_name_dims("s") is None
        assert parse_name_dims("w") is None
        # Inception blocks end in _b/_c but are not bytes/temperatures
        assert parse_name_dims("_inception_c") is None
        assert parse_name_dims("_reduction_b") is None
        # int.from_bytes builds an integer, not a byte count
        assert parse_name_dims("from_bytes") is None


class TestUnit001AddAcrossUnits:
    def test_seconds_plus_joules(self):
        snippet = """
        def total(latency_s, energy_j):
            return latency_s + energy_j
        """
        findings = check(snippet)
        assert rules_of(findings) == {"UNIT001"}
        assert findings[0].location == "repro/analysis/example.py:3"

    def test_milliseconds_plus_seconds(self):
        snippet = """
        def total_ms(latency_ms, overhead_s):
            total_ms = latency_ms + overhead_s
            return total_ms
        """
        assert rules_of(check(snippet)) == {"UNIT001"}

    def test_matching_units_are_fine(self):
        snippet = """
        def total_s(latency_s, overhead_s):
            return latency_s + overhead_s
        """
        assert check(snippet) == []

    def test_conversion_first_is_fine(self):
        snippet = """
        from repro.core.quantity import MILLI

        def total_s(latency_ms, overhead_s):
            return latency_ms * MILLI + overhead_s
        """
        assert check(snippet) == []


class TestUnit002CompareAcrossUnits:
    def test_ms_compared_with_s(self):
        snippet = """
        def throttled(latency_ms, deadline_s):
            return latency_ms > deadline_s
        """
        assert rules_of(check(snippet)) == {"UNIT002"}

    def test_min_across_dimensions(self):
        snippet = """
        def floor_s(latency_s, energy_j):
            return min(latency_s, energy_j)
        """
        assert rules_of(check(snippet)) == {"UNIT002"}

    def test_same_unit_comparison_is_fine(self):
        snippet = """
        def throttled(latency_s, deadline_s):
            return latency_s > deadline_s
        """
        assert check(snippet) == []


class TestUnit003ReturnContradictsDeclaration:
    def test_suffix_s_function_returning_ms(self):
        snippet = """
        def startup_s(init_ms):
            return init_ms
        """
        assert rules_of(check(snippet)) == {"UNIT003"}

    def test_annotation_contradicted(self):
        snippet = """
        from repro.core.quantity import Seconds

        def startup(energy_j) -> Seconds:
            return energy_j
        """
        assert rules_of(check(snippet)) == {"UNIT003"}

    def test_converted_return_is_fine(self):
        snippet = """
        from repro.core.quantity import MILLI

        def startup_s(init_ms):
            return init_ms * MILLI
        """
        assert check(snippet) == []

    def test_seconds_fed_an_energy(self):
        snippet = """
        from repro.core.quantity import Seconds

        def wrap(energy_j) -> Seconds:
            return Seconds(energy_j)
        """
        assert rules_of(check(snippet)) == {"UNIT003"}

    def test_seconds_fed_milliseconds(self):
        snippet = """
        from repro.core.quantity import Seconds

        def wrap(latency_ms) -> Seconds:
            return Seconds(latency_ms)
        """
        assert rules_of(check(snippet)) == {"UNIT003"}

    def test_seconds_fed_seconds_is_fine(self):
        snippet = """
        from repro.core.quantity import MILLI, Seconds

        def wrap(latency_s, latency_ms) -> Seconds:
            return Seconds(latency_s) + Seconds(latency_ms * MILLI)
        """
        assert check(snippet) == []


class TestUnit004DoubleConversion:
    def test_milli_applied_twice(self):
        snippet = """
        from repro.core.quantity import MILLI

        def startup_s(init_ms):
            value = init_ms * MILLI
            return value * MILLI
        """
        findings = check(snippet)
        assert "UNIT004" in rules_of(findings)

    def test_single_conversion_is_fine(self):
        snippet = """
        from repro.core.quantity import MILLI

        def startup_s(init_ms):
            return init_ms * MILLI
        """
        assert check(snippet) == []


class TestUnit006MixedAccumulator:
    def test_count_accumulates_seconds(self):
        snippet = """
        def tally(latencies_s):
            n_runs = 0
            for latency_s in latencies_s:
                n_runs += latency_s
            return n_runs
        """
        assert "UNIT006" in rules_of(check(snippet))

    def test_scale_mismatch_in_accumulator_is_unit001(self):
        snippet = """
        def tally_s(latencies_ms):
            total_s = 0.0
            for latency_ms in latencies_ms:
                total_s += latency_ms
            return total_s
        """
        assert "UNIT001" in rules_of(check(snippet))

    def test_homogeneous_accumulation_is_fine(self):
        snippet = """
        def tally_s(latencies_s):
            total_s = 0.0
            for latency_s in latencies_s:
                total_s += latency_s
            return total_s
        """
        assert check(snippet) == []


class TestUnit007SuffixContradiction:
    def test_energy_bound_to_power(self):
        snippet = """
        def record_j(power_w):
            energy_j = power_w
            return energy_j
        """
        assert rules_of(check(snippet)) == {"UNIT007"}

    def test_ms_name_bound_to_seconds(self):
        snippet = """
        def record_ms(latency_s):
            latency_ms = latency_s
            return latency_ms
        """
        assert rules_of(check(snippet)) == {"UNIT007"}

    def test_keyword_argument_contradiction(self):
        snippet = """
        def fill(table, latency_s):
            table.add_row("row", latency_ms=latency_s)
        """
        assert rules_of(check(snippet)) == {"UNIT007"}

    def test_product_resolving_to_the_suffix_is_fine(self):
        snippet = """
        def record_j(power_w, duration_s):
            energy_j = power_w * duration_s
            return energy_j
        """
        assert check(snippet) == []


class TestUnit008UndeclaredPublicReturn:
    def test_power_escaping_unnamed(self):
        snippet = """
        def draw(idle_w, active_w, utilization):
            return idle_w + utilization * (active_w - idle_w)
        """
        findings = check(snippet)
        assert rules_of(findings) == {"UNIT008"}
        assert findings[0].severity.value == "warning"

    def test_private_functions_are_exempt(self):
        snippet = """
        def _draw(idle_w, active_w):
            return idle_w + active_w
        """
        assert check(snippet) == []

    def test_suffixed_name_is_declared_enough(self):
        snippet = """
        def draw_w(idle_w, active_w):
            return idle_w + active_w
        """
        assert check(snippet) == []

    def test_annotation_call_declares_nothing(self):
        snippet = """
        from repro.core.quantity import Watts

        def draw(idle_w, active_w):
            return Watts(idle_w + active_w)
        """
        assert rules_of(check(snippet)) == {"UNIT008"}

    def test_container_annotation_declares_the_element_unit(self):
        snippet = """
        from repro.core.quantity import Seconds

        def runs(latency_s, n) -> list[Seconds]:
            return [latency_s, latency_s]
        """
        assert check(snippet) == []


class TestDerivedDimensions:
    def test_power_times_time_is_energy(self):
        snippet = """
        def energy_j(power_w, duration_s):
            return power_w * duration_s
        """
        assert check(snippet) == []

    def test_energy_over_time_is_power(self):
        snippet = """
        def power_w(energy_j, duration_s):
            return energy_j / duration_s
        """
        assert check(snippet) == []

    def test_macs_over_time_is_throughput(self):
        snippet = """
        def rate_macs_per_s(macs, duration_s):
            return macs / duration_s
        """
        assert check(snippet) == []

    def test_inverse_latency_is_frequency(self):
        snippet = """
        def throughput_fps(latency_s):
            return 1.0 / latency_s
        """
        assert check(snippet) == []

    def test_watt_hours_are_an_energy(self):
        snippet = """
        def life_hours(battery_wh, draw_w):
            return battery_wh / draw_w
        """
        assert check(snippet) == []

    def test_power_squared_product_contradicts_energy(self):
        # the classic W*W slip: multiplying two powers cannot be an energy
        snippet = """
        def energy_j(idle_w, active_w):
            return idle_w * active_w
        """
        assert rules_of(check(snippet)) == {"UNIT003"}

    def test_scale_tracking_through_ratio(self):
        # ms/ms cancels the scale, so the ratio compares fine with 1.0
        snippet = """
        def slowdown_ratio(sustained_ms, burst_ms):
            return sustained_ms / burst_ms
        """
        assert check(snippet) == []


class TestConservatism:
    def test_unknown_names_propagate_silently(self):
        snippet = """
        def combine(a, b):
            return a + b
        """
        assert check(snippet) == []

    def test_raw_literal_conversion_blurs_the_scale(self):
        # `* 1e3` reads as a unit conversion; the scale becomes unknown
        # rather than wrong, so downstream sums do not false-positive.
        snippet = """
        def present_ms(latency_s, budget_ms):
            latency_ms = latency_s * 1e3
            return latency_ms + budget_ms
        """
        assert check(snippet) == []

    def test_branches_merge_to_agreement(self):
        snippet = """
        def pick_s(fast_s, slow_s, use_fast):
            if use_fast:
                value = fast_s
            else:
                value = slow_s
            return value
        """
        assert check(snippet) == []


class TestSuppression:
    def test_line_suppression_silences_one_line(self):
        snippet = """
        def total(latency_s, energy_j):
            return latency_s + energy_j  # repro: allow[UNIT001]
        """
        assert check(snippet) == []

    def test_file_suppression_silences_the_module(self):
        snippet = """
        # repro: allow-file[UNIT001] fixture mixes units on purpose

        def total(latency_s, energy_j):
            return latency_s + energy_j

        def again(latency_ms, power_w):
            return latency_ms + power_w
        """
        assert check(snippet) == []

    def test_file_suppression_is_rule_specific(self):
        snippet = """
        # repro: allow-file[UNIT002]

        def total(latency_s, energy_j):
            return latency_s + energy_j
        """
        assert rules_of(check(snippet)) == {"UNIT001"}
