"""Tests for the Figure-2 census."""

from __future__ import annotations

from collections import Counter

from repro.analysis import (
    CensusResult,
    census_of_programs,
    census_of_random_schedules,
    example1_programs,
    region_report,
    text_table,
)
from repro.classes import classify
from repro.obs import RecordingTracer
from repro.schedules import Schedule


class TestExample1Census:
    def test_covers_all_interleavings(self):
        result = census_of_programs(
            example1_programs(), [{"x"}, {"y"}]
        )
        assert result.total == 35
        assert result.containment_failures == 0

    def test_region_counts_sum_to_total(self):
        result = census_of_programs(
            example1_programs(), [{"x"}, {"y"}]
        )
        assert sum(result.by_region.values()) == result.total

    def test_strict_gains_nonnegative(self):
        result = census_of_programs(
            example1_programs(), [{"x"}, {"y"}]
        )
        assert all(gain >= 0 for gain in result.strict_gains().values())

    def test_extensions_actually_gain(self):
        # The whole point of Section 4: the extended classes admit
        # strictly more schedules on this canonical program set.
        result = census_of_programs(
            example1_programs(), [{"x"}, {"y"}]
        )
        gains = result.strict_gains()
        assert gains["MVSR − SR"] > 0
        assert gains["PWCSR − CSR"] > 0

    def test_limit_respected(self):
        result = census_of_programs(
            example1_programs(), [{"x"}, {"y"}], limit=10
        )
        assert result.total == 10


class TestBlindWriteCensus:
    def test_reaches_blind_write_regions(self):
        from repro.analysis import blind_write_programs

        result = census_of_programs(blind_write_programs(), [{"x"}])
        assert result.total == 12
        assert result.containment_failures == 0
        assert result.by_region.get(5, 0) > 0
        assert result.by_region.get(7, 0) > 0

    def test_complements_example1(self):
        from repro.analysis import blind_write_programs

        example1 = census_of_programs(
            example1_programs(), [{"x"}, {"y"}]
        )
        blind = census_of_programs(blind_write_programs(), [{"x"}])
        covered = set(example1.by_region) | set(blind.by_region)
        assert {1, 3, 4, 5, 7, 9} <= covered


class TestFigure2Reachability:
    def test_all_nine_regions_nonempty(self):
        """Figure 2's non-emptiness, by exhaustion over five program
        families (the figure's central structural claim)."""
        from repro.analysis import figure2_reachability

        merged = figure2_reachability()
        for region in range(1, 10):
            assert merged.get(region, 0) > 0, f"region {region} empty"

    def test_families_are_well_formed(self):
        from repro.analysis import REGION_FAMILIES
        from repro.schedules import Schedule

        for name, (text, objects) in REGION_FAMILIES.items():
            schedule = Schedule.parse(text)
            assert schedule.is_serial(), name
            mentioned = set().union(*objects)
            assert schedule.entities <= mentioned, name


class TestCensusEngines:
    """The dedup cache, exact mode, and jobs fan-out change nothing
    but the wall clock."""

    @staticmethod
    def counts(result):
        return (
            result.total,
            result.by_region,
            result.by_class,
            result.containment_failures,
        )

    def test_exact_mode_counts_identical(self):
        fast = census_of_programs(example1_programs(), [{"x"}, {"y"}])
        exact = census_of_programs(
            example1_programs(), [{"x"}, {"y"}], exact=True
        )
        assert self.counts(fast) == self.counts(exact)

    def test_four_transaction_census_staged_equals_exact(self):
        """1680 interleavings, high fingerprint collision: the staged
        engine with dedup counts what the exact one does, running
        strictly fewer checks of every class."""
        programs = Schedule.parse(
            "r1(x) w1(x) r2(x) r2(y) w2(y) r3(y) w3(x) w4(y)"
        ).programs()
        checks = {}
        results = {}
        for mode, kwargs in (
            ("exact", {"exact": True, "dedup": False}),
            ("fast", {}),
        ):
            tracer = RecordingTracer()
            results[mode] = census_of_programs(
                programs, [{"x"}, {"y"}], tracer=tracer, **kwargs
            )
            checks[mode] = Counter(
                span.attrs["cls"] for span in tracer.of_kind("class.check")
            )
        assert self.counts(results["fast"]) == self.counts(results["exact"])
        assert results["exact"].total == 1680
        assert results["exact"].containment_failures == 0
        assert checks["exact"]["CSR"] == 1680
        for cls, count in checks["exact"].items():
            assert checks["fast"][cls] < count, cls

    def test_dedup_counts_identical_and_cache_hits(self):
        cached = census_of_programs(example1_programs(), [{"x"}, {"y"}])
        uncached = census_of_programs(
            example1_programs(), [{"x"}, {"y"}], dedup=False
        )
        assert self.counts(cached) == self.counts(uncached)
        assert cached.cache_hits > 0
        assert uncached.cache_hits == 0

    def test_jobs_merge_equals_single_process(self):
        single = census_of_programs(example1_programs(), [{"x"}, {"y"}])
        striped = census_of_programs(
            example1_programs(), [{"x"}, {"y"}], jobs=2
        )
        # cache_hits may differ (per-worker caches); the counts not.
        assert self.counts(single) == self.counts(striped)

    def test_merge_sums_fields(self):
        a = CensusResult(
            total=2,
            by_region={9: 2},
            by_class={"CSR": 2},
            cache_hits=1,
        )
        b = CensusResult(
            total=3,
            by_region={9: 1, 6: 2},
            by_class={"CSR": 1, "SR": 3},
            containment_failures=1,
        )
        merged = a.merge(b)
        assert merged is a
        assert merged.total == 5
        assert merged.by_region == {9: 3, 6: 2}
        assert merged.by_class == {"CSR": 3, "SR": 3}
        assert merged.containment_failures == 1
        assert merged.cache_hits == 1

    def test_fingerprint_groups_equivalent_interleavings(self):
        from repro.analysis import schedule_fingerprint

        a = Schedule.parse("r1(x) r2(y) w1(x)")
        b = Schedule.parse("r2(y) r1(x) w1(x)")  # swap non-conflicting
        c = Schedule.parse("r1(x) w1(x) r2(y)")
        assert schedule_fingerprint(a) == schedule_fingerprint(b)
        assert schedule_fingerprint(a) == schedule_fingerprint(c)
        d = Schedule.parse("r1(x) w2(x)")
        e = Schedule.parse("w2(x) r1(x)")  # conflict order flipped
        assert schedule_fingerprint(d) != schedule_fingerprint(e)


class TestRandomCensus:
    def test_reproducible(self):
        a = census_of_random_schedules(30, seed=5)
        b = census_of_random_schedules(30, seed=5)
        assert a.by_region == b.by_region

    def test_containments_hold_at_scale(self):
        result = census_of_random_schedules(
            100, num_transactions=3, ops_per_transaction=3, seed=11
        )
        assert result.containment_failures == 0
        assert result.total == 100

    def test_fraction_helper(self):
        result = census_of_random_schedules(20, seed=2)
        assert 0.0 <= result.fraction_in("CSR") <= 1.0
        assert result.fraction_in("PC") >= result.fraction_in("CSR")


class TestReporting:
    def test_region_report_lists_all_regions(self):
        result = census_of_programs(
            example1_programs(), [{"x"}, {"y"}]
        )
        report = region_report(result.by_region)
        for region in range(1, 10):
            assert str(region) in report

    def test_text_table_alignment(self):
        table = text_table(
            [{"a": 1, "b": "xx"}, {"a": 222, "b": "y"}]
        )
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[:2])) >= 1

    def test_empty_table(self):
        assert text_table([]) == "(no rows)"

    def test_manual_record(self):
        result = CensusResult()
        membership = classify(Schedule.parse("r1(x) w1(x)"))
        result.record(membership)
        assert result.total == 1
        assert result.by_class["CSR"] == 1
