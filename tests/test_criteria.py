"""Condition checkers: verdict patterns, witnesses, scan semantics."""
import math
from fractions import Fraction as F

import numpy as np
import pytest

import asymlp as a
from asymlp import criteria, families, quadrature


class TestShiftLattice:
    def test_default_uses_min_spacing(self):
        fam = a.g_family(4)  # spacing 1/16
        lat = a.ShiftLattice.default_for(fam)
        assert lat.step == F(1, 16)
        assert lat.count == 16

    def test_magnitudes_ascend(self):
        lat = a.ShiftLattice(F(1, 8), 3)
        assert list(lat.magnitudes()) == [F(1, 8), F(2, 8), F(3, 8)]
        assert set(lat.shifts()) == {F(1, 8), F(-1, 8), F(2, 8), F(-2, 8), F(3, 8), F(-3, 8)}

    def test_invalid_lattice(self):
        with pytest.raises(a.GridError):
            a.ShiftLattice(F(0), 4)
        with pytest.raises(a.GridError):
            a.ShiftLattice(F(1, 8), 0)


class TestTailCondition:
    def test_plateau_family_passes_with_small_radius(self):
        fam = a.f_family(20, 1.0)
        out = a.check_tail(fam, 0.5)
        assert out.verdict == "pass"
        # support is [0,1]: mass beyond R is 1 - R, needs R > 1/2
        assert 0.5 < out.witness <= 1.0

    def test_escaping_family_fails_with_offender(self):
        fam = a.g_family(30)
        out = a.check_tail(fam, 0.5)
        assert out.verdict == "fail"
        assert out.offending_value == 1.0
        # the offender's support starts at the largest scanned radius
        assert out.offender_index >= 16

    def test_witness_reverified(self):
        fam = a.u_family(10, 1.0)
        out = a.check_tail(fam, 0.5)
        assert out.verdict == "pass"
        worst = max(
            a.integrate_transformed(m, a.ClampPower(1.0), a.Outside(a.as_fraction(out.witness)))
            for m in fam.members
        )
        assert worst < 0.5

    def test_pass_detail_is_measured_at_the_witness(self):
        fam = a.u_family(12, 1.0)
        out = a.check_tail(fam, 0.5)
        worst = max(
            a.integrate_transformed(m, a.ClampPower(1.0), a.Outside(out.witness))
            for m in fam.members
        )
        assert out.detail == f"worst member integral {worst:.6g} < 0.5"

    def test_tighter_eps_needs_larger_radius(self):
        fam = a.u_family(12, 1.0)
        r1 = a.check_tail(fam, 0.5).witness
        r2 = a.check_tail(fam, 0.25).witness
        assert r2 > r1


class TestLevelCondition:
    def test_unit_indicators_pass_at_one(self):
        fam = a.g_family(10)
        out = a.check_level(fam, 0.5)
        assert out.verdict == "pass"
        assert out.witness == 1.0  # |{|g_k| > 1}| = 0 by strictness

    def test_growing_plateaus_fail(self):
        fam = a.f_family(100, 1.0)
        out = a.check_level(fam, 0.5)
        assert out.verdict == "fail"
        assert out.offending_value == 1.0

    def test_pass_detail_is_measured_at_the_witness(self):
        fam = a.spike_family(12)
        out = a.check_level(fam, 0.25)
        assert out.verdict == "pass"
        worst = max(a.superlevel_measure(m, out.witness) for m in fam.members)
        assert out.detail == f"worst superlevel measure {worst:.6g} < 0.25"

    def test_level_scan_bounded_by_sup(self):
        fam = a.f_family(100, 1.0)
        out = a.check_level(fam, 0.5)
        assert out.scan["to"] <= fam.sup_abs() + 1.0


def _one_ulp_high(kernel_of, first_only=False):
    """kernel_of, with the worst member of every answer read one ulp high.

    With first_only, only the first answer of each kernel is off.
    """
    def build(*args):
        kernel = kernel_of(*args)
        answers = []

        def values(cand):
            out = kernel(cand)
            if not (first_only and answers):
                i = out.index(max(out))
                out[i] = math.nextafter(out[i], math.inf)
            answers.append(cand)
            return out

        return values

    return build


def _one_unit_off(group_fsums):
    """group_fsums, with every positive integer length read one unit long."""
    return lambda owner, tv, lengths, cuts, scale, n: group_fsums(
        owner, tv, lengths + (lengths > 0), cuts, scale, n
    )


def _spy_outside_calls(monkeypatch) -> list:
    """The radius of every per-member ``Outside`` integral made from now on."""
    calls = []
    integrate = quadrature.integrate_transformed

    def spy(f, transform, region=None):
        if isinstance(region, a.Outside):
            calls.append(region.radius)
        return integrate(f, transform, region)

    for module in (criteria, quadrature):
        monkeypatch.setattr(module, "integrate_transformed", spy)
    return calls


class TestWitnessSearch:
    """One family pass per candidate; the reported worst member is recounted."""

    def test_recount_catches_a_kernel_one_ulp_high(self, monkeypatch):
        monkeypatch.setattr(criteria, "_outside_kernel", _one_ulp_high(quadrature._outside_kernel))
        monkeypatch.setattr(criteria, "_level_kernel", _one_ulp_high(quadrature._level_kernel))
        # a witness and a failure for each condition
        for check, fam in (
            (a.check_tail, a.u_family(10, 1.0)), (a.check_tail, a.g_family(30)),
            (a.check_level, a.spike_family(12)), (a.check_level, a.f_family(100, 1.0)),
        ):
            with pytest.raises(a.GridError, match="recounts"):
                check(fam, 0.5)

    def test_recount_catches_a_kernel_off_before_the_witness_only(self, monkeypatch):
        fam = a.u_family(10, 1.0)
        for check, kernel in ((a.check_tail, "_outside_kernel"), (a.check_level, "_level_kernel")):
            out = check(fam, 0.5)
            # the first candidate fails and a later one is the witness
            assert out.passed and out.witness > out.scan["from"]
            monkeypatch.setattr(criteria, kernel, _one_ulp_high(getattr(quadrature, kernel), True))
            with pytest.raises(a.GridError, match=f"candidate {out.scan['from']:.6g}: member"):
                check(fam, 0.5)

    def test_recount_catches_a_grouped_sum_one_unit_off(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_group_fsums", _one_unit_off(quadrature._group_fsums))
        for fam in (a.u_family(10, 1.0), a.g_family(30)):
            with pytest.raises(a.GridError, match="recounts"):
                a.check_tail(fam, 0.5)

    def test_tail_searches_make_one_per_member_outside_call_per_candidate(self, monkeypatch):
        calls = _spy_outside_calls(monkeypatch)
        report = a.full_report(a.u_family(16, 1.0), [0.5])
        tail_searches = [e for e in report.entries if e.condition in ("tail", "lp-tail")]
        assert len(tail_searches) == 2
        # the recount of each candidate's worst member, not one call per member
        assert len(calls) == sum(e.scan["evaluations"] for e in tail_searches)

    def test_a_report_builds_the_family_runs_once(self, monkeypatch):
        want = a.full_report(a.u_family(16, 1.0), [0.5, 0.25])
        calls = []
        family_runs = families._family_runs

        def spy(members):
            calls.append(len(members))
            return family_runs(members)

        monkeypatch.setattr(families, "_family_runs", spy)
        # tail, lp-tail and level at two eps: six kernels from one build
        assert a.full_report(a.u_family(16, 1.0), [0.5, 0.25]) == want
        assert calls == [16]

    def test_a_refused_family_makes_one_call_per_member_and_candidate(self, monkeypatch):
        # 2-d members: the batch gate refuses the family, so each member
        # makes the per-member call once per candidate and nothing repeats it
        i, j = np.indices((16, 16))
        members = tuple(
            a.grid_function(((-2, 2), (-2, 2)), (F(1, 4), F(1, 4)), ((i + 2 * j + k) % 5) / 4.0)
            for k in range(5)
        )
        fam = a.FamilySpec("plane", 1.0, members, (1, 2, 3, 4, 5))
        assert quadrature._outside_kernel(members, a.ClampPower(1.0), fam._kernel_runs) is None
        calls = _spy_outside_calls(monkeypatch)
        out = a.check_tail(fam, 0.5)
        assert (out.verdict, out.witness, out.scan["evaluations"]) == ("pass", 1.94140625, 12)
        assert len(calls) == 5 * 12
        worst = max(
            a.integrate_transformed(m, a.ClampPower(1.0), a.Outside(out.witness)) for m in members
        )
        assert out.detail == f"worst member integral {worst:.6g} < 0.5"


class TestTranslationCondition:
    def test_exact_prefix_witness_for_plateaus(self):
        fam = a.f_family(50, 1.0)
        out = a.check_translation(fam, 0.5)
        # defect is 2|y|: passes for |y| < 1/4, fails at 1/4 exactly
        assert out.verdict == "pass"
        assert out.witness == 0.25
        assert out.detail and "first violation" in out.detail

    def test_rademacher_fails_at_smallest_shift(self):
        fam = a.h_family(10)
        out = a.check_translation(fam, 0.5)
        assert out.verdict == "fail"
        assert out.offender_index == 10
        assert out.offending_shift == float(F(1, 2048))
        assert out.offending_value == 1025 / 2048

    def test_pass_when_all_magnitudes_hold(self):
        fam = a.g_family(5)
        out = a.check_translation(fam, 1.0)  # threshold 1: 2|y| < 1 for |y| <= 16/16? no: fails at 1/2
        assert out.verdict == "pass"
        assert out.witness == 0.5

    def test_custom_lattice(self):
        fam = a.g_family(5)
        out = a.check_translation(fam, 0.5, a.ShiftLattice(F(1, 64), 4))
        assert out.verdict == "pass"
        # all four magnitudes pass: witness extends one step beyond the scan
        assert out.witness == pytest.approx(5 / 64, abs=0)
        assert out.scan["certified_upper_bounds"] is False  # zero tails: exact

    def test_live_tail_bound_is_flagged(self):
        fam = a.v_family(6, 2.0)
        out = a.check_translation(fam, 0.5)
        assert out.verdict == "pass"
        assert out.scan["certified_upper_bounds"] is True


class TestTranslationScan:
    """The batched scan, its recount on the per-shift sweep, and its blocks."""

    def test_counts_scanned_shifts_and_recounts(self):
        out = a.check_translation(a.g_family(20), 0.5)
        # magnitudes 1/16..3/16 pass in both signs, +4/16 violates
        assert out.witness == 0.25
        assert out.scan["evaluations"] == 7
        assert out.scan["rechecks"] == 7
        assert a.check_translation(a.h_family(10), 0.5).scan["evaluations"] == 1

    def test_first_shift_is_a_block_of_its_own(self, monkeypatch):
        rows = []
        profile = criteria._family_profile

        def spy(members, shifts, transform):
            rows.append(len(shifts))
            return profile(members, shifts, transform)

        monkeypatch.setattr(criteria, "_family_profile", spy)
        fam = a.h_family(10)  # every member violates at +1/2048
        assert a.check_translation(fam, 0.5).verdict == "fail"
        assert rows == [1]  # one kernel call for the whole family

        rows.clear()
        fam = a.g_family(5)
        out = a.check_translation(fam, 0.5, a.ShiftLattice(F(1, 256), 16))
        assert out.scan["evaluations"] == 32  # every shift passes
        assert rows == [1, 3, 4, 8, 16]

    def test_recount_catches_a_merge_one_unit_off(self, monkeypatch):
        merge = quadrature._merge

        def off_by_one(p, q):
            left, lengths, vp, vq = merge(p, q)
            lengths = lengths.copy()
            lengths[np.flatnonzero(vp != vq)[:1]] += 1
            return left, lengths, vp, vq

        monkeypatch.setattr(quadrature, "_merge", off_by_one)
        with pytest.raises(a.GridError, match="recounts"):
            a.check_translation(a.g_family(20), 0.5)

    def test_recount_catches_a_kernel_one_unit_off(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_group_fsums", _one_unit_off(quadrature._group_fsums))
        with pytest.raises(a.GridError, match="recounts"):
            a.check_translation(a.g_family(20), 0.5)

    def test_element_budget_splits_blocks_without_changing_outcomes(self, monkeypatch):
        families = (a.g_family(20), a.h_family(10), a.u_family(8, 1.0), a.v_family(6, 2.0))
        want = [a.full_report(fam, [0.5, 0.25]) for fam in families]
        rows = []
        profile_grid = quadrature._profile_grid

        def spy(edges, values, shifts, clip, scale, transform):
            rows.append(len(shifts))
            return profile_grid(edges, values, shifts, clip, scale, transform)

        monkeypatch.setattr(quadrature, "_profile_grid", spy)
        monkeypatch.setattr(quadrature, "_PROFILE_BUDGET", 1)
        assert [a.full_report(fam, [0.5, 0.25]) for fam in families] == want
        assert rows and max(rows) == 1

    def test_a_shift_past_the_guard_after_the_violation_is_never_reached(self):
        # on the lattice 1/S the shift -10/S puts the right edge 2 at
        # 2S + 10 = 2**62; magnitude 9/S already violates in the same block
        S = 2**61 - 5
        f = a.constant(1.0, (0, 2), 1)
        with pytest.raises(a.GridError):
            a.translation_defect(f, F(-10, S), a.ClampPower(1.0))
        fam = a.FamilySpec("edge", 1.0, (f,), (1,))
        out = a.check_translation(fam, 17 / S, a.ShiftLattice(F(1, S), 16))
        assert out.verdict == "pass"
        assert out.witness == float(F(9, S))
        assert f"first violation at y={float(F(9, S)):.6g}" in out.detail
        assert out.scan["evaluations"] == 17

    def test_a_refused_block_makes_one_call_per_member_and_shift(self, monkeypatch):
        # the lattice 1/S is past 2**53, so the batch gate refuses every
        # block: each member makes the per-shift call once per scanned
        # shift and nothing recounts it
        S = 2**61 - 5
        members = (a.constant(1.0, (0, 2), 1), a.constant(1.0, (0, 1), 1))
        assert quadrature._family_profile(members, [F(1, S)], a.ClampPower(1.0)) is None
        calls = []
        defect = quadrature.translation_defect

        def spy(f, y, transform, window=None):
            calls.append(y)
            return defect(f, y, transform, window)

        monkeypatch.setattr(quadrature, "translation_defect", spy)
        fam = a.FamilySpec("edge", 1.0, members, (1, 2))
        out = a.check_translation(fam, 17 / S, a.ShiftLattice(F(1, S), 16))
        assert (out.verdict, out.witness, out.offender_index) == ("pass", float(F(9, S)), None)
        assert f"first violation at y={float(F(9, S)):.6g} (member 1, " in out.detail
        assert (out.scan["evaluations"], out.scan["rechecks"]) == (17, 0)
        assert len(calls) == 2 * 17

    def test_an_overflow_after_the_violation_is_never_reached(self):
        # the live tail's bound term overflows from |y| = 48 on, in the
        # block of magnitudes 40..64 where 40 already violates: the block
        # is refused and the per-shift calls stop at the violation
        tail = a.TailSpec.power_law(0.8, 2.0, 4)
        f = a.GridFunction(((-124, 4),), (8,), np.zeros(16), tail)
        t = a.AbsPower(7000.0)
        with pytest.raises(a.GridError, match="overflows"):
            a.translation_defect_bounds(f, 48, t)
        assert quadrature._family_profile([f], [40, -40, 48, -48], t) is None
        fam = a.FamilySpec("steep", 7000.0, (f,), (1,))
        out = a.check_kr_lp(fam, 0.998)[1]
        assert (out.verdict, out.witness) == ("pass", 40.0)
        value = a.translation_defect_bounds(f, 40, t)[1]
        assert f"first violation at y=40 (member 1, {value:.6g})" in out.detail
        # the eight shifts before 40 were recounted, 40 itself was not
        assert (out.scan["evaluations"], out.scan["rechecks"]) == (9, 8)


class TestClassicalConditions:
    def test_u_family_rejected_nowhere_but_fails_tail(self):
        fam = a.u_family(40, 1.0)
        tail, trans = a.check_kr_lp(fam, 0.5)
        assert tail.condition == "lp-tail"
        assert tail.verdict == "fail"
        assert tail.offending_value == pytest.approx(1.0, abs=1e-12)
        assert trans.verdict == "fail"

    def test_g_family_matches_clamped_behaviour(self):
        fam = a.g_family(20)
        tail, trans = a.check_kr_lp(fam, 0.5)
        assert tail.verdict == "fail"
        assert trans.verdict == "pass"


class TestFullReport:
    def test_entry_lookup_and_flag(self):
        fam = a.g_family(8)
        rep = a.full_report(fam, [0.5])
        assert rep.entry("tail", 0.5).verdict == "fail"
        assert rep.entry("translation", 0.5).verdict == "pass"
        assert rep.entry("level", 0.5).verdict == "pass"
        assert not rep.candidate_totally_bounded

    def test_unknown_entry_raises(self):
        fam = a.g_family(4)
        rep = a.full_report(fam, [0.5])
        with pytest.raises(KeyError):
            rep.entry("tail", 0.75)

    def test_multiple_eps_ordered(self):
        fam = a.u_family(8, 1.0)
        rep = a.full_report(fam, [0.5, 0.25])
        conditions = [(e.condition, e.eps) for e in rep.entries]
        assert conditions == [
            ("tail", 0.5), ("translation", 0.5), ("level", 0.5),
            ("lp-tail", 0.5), ("lp-translation", 0.5),
            ("tail", 0.25), ("translation", 0.25), ("level", 0.25),
            ("lp-tail", 0.25), ("lp-translation", 0.25),
        ]

    def test_report_string_has_one_line_per_entry(self):
        fam = a.g_family(4)
        rep = a.full_report(fam, [0.5])
        lines = [ln for ln in str(rep).splitlines() if "eps=" in ln]
        assert len(lines) == 5

    def test_skip_lp_block(self):
        fam = a.g_family(4)
        rep = a.full_report(fam, [0.5], include_lp=False)
        assert len(rep.entries) == 3

    def test_eps_must_be_positive(self):
        fam = a.g_family(4)
        with pytest.raises(a.GridError):
            a.check_tail(fam, 0.0)
        with pytest.raises(a.GridError):
            a.full_report(fam, [])
