"""Exact sweeps: transforms, regions, translation defects, superlevel sets."""
import math
from fractions import Fraction as F

import numpy as np
import pytest

import asymlp as a
import oracles


def box_fn(values, lo=F(0), h=F(1, 4), tail=a.ZERO_TAIL):
    hi = lo + h * len(values)
    return a.grid_function((lo, hi), h, values, tail)


class TestTransforms:
    def test_abs_power_indicator(self):
        f = box_fn([0.0, -3.0, 2.0, 0.0])
        # integral |f|^2 = (9 + 4) / 4
        assert a.integrate_transformed(f, a.AbsPower(2.0)) == pytest.approx(13 / 4, abs=0)

    def test_clamp_power(self):
        f = box_fn([0.5, -3.0, 1.0, 0.0])
        # min(|f|,1)^1: (0.5 + 1 + 1) / 4
        assert a.integrate_transformed(f, a.ClampPower(1.0)) == pytest.approx(
            2.5 / 4, abs=0
        )

    def test_threshold(self):
        f = box_fn([0.5, -3.0, 1.0, 1.5])
        # strict |f| > 1: two cells
        assert a.integrate_transformed(f, a.Threshold(1.0)) == pytest.approx(0.5, abs=0)

    def test_threshold_negative_level_unbounded(self):
        f = box_fn([1.0, 0.0, 0.0, 0.0])
        # |f| > -1 holds everywhere: infinite mass
        assert a.integrate_transformed(f, a.Threshold(-1.0)) == math.inf

    def test_threshold_negative_level_windowed(self):
        f = box_fn([1.0, 0.0, 0.0, 0.0])
        got = a.integrate_transformed(f, a.Threshold(-1.0), a.Window(F(-1), F(2)))
        assert got == pytest.approx(3.0, abs=0)


class TestRegions:
    def test_window_splits_total(self):
        f = box_fn([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], h=F(1, 8))
        t = a.ClampPower(2.0)
        total = a.integrate_transformed(f, t)
        left = a.integrate_transformed(f, t, a.Window(None, F(1, 2)))
        right = a.integrate_transformed(f, t, a.Window(F(1, 2), None))
        assert left + right == pytest.approx(total, abs=1e-15)

    def test_window_cuts_mid_cell(self):
        f = box_fn([2.0], h=F(1))
        got = a.integrate_transformed(f, a.AbsPower(1.0), a.Window(F(1, 3), F(2, 3)))
        assert got == pytest.approx(2 / 3, abs=1e-15)

    def test_outside_region_1d(self):
        f = box_fn([1.0] * 8, lo=F(-1), h=F(1, 4))
        # outside |x| > 1/2 leaves [-1,-1/2) and (1/2,1]: length 1
        got = a.integrate_transformed(f, a.ClampPower(1.0), a.Outside(F(1, 2)))
        assert got == pytest.approx(1.0, abs=0)

    def test_outside_region_with_tail(self):
        tail = a.TailSpec.power_law(1.0, 2.0, 1)
        f = a.grid_function((F(-1), F(1)), F(1, 2), [0.0] * 4, tail)
        # integral_{|x|>2} min(x**-2, 1) = integral_2^inf x**-2 = 1/2
        got = a.integrate_transformed(f, a.ClampPower(1.0), a.Outside(F(2)))
        assert got == pytest.approx(0.5, abs=1e-12)
        oracle = oracles.tail_integral(tail, 1.0, clamp=True) - (1 - 1 / 2)
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_outside_region_2d_sup_norm(self):
        f = a.grid_function(
            ((F(-1), F(1)), (F(-1), F(1))), (F(1, 2), F(1, 2)), np.ones((4, 4))
        )
        # sup-norm ball of radius 1/2 removed: area 4 - 1 = 3
        got = a.integrate_transformed(f, a.AbsPower(1.0), a.Outside(F(1, 2)))
        assert got == pytest.approx(3.0, abs=1e-12)

    def test_window_2d_rejected(self):
        f = a.grid_function(((F(0), F(1)), (F(0), F(1))), (F(1, 2), F(1, 2)), np.ones((2, 2)))
        with pytest.raises(a.GridError):
            a.integrate_transformed(f, a.AbsPower(1.0), a.Window(F(0), F(1)))


class TestOracleAgreement:
    def test_integrals_match_brute_force(self, corpus_members):
        for label, member, p in corpus_members:
            got = a.integrate_transformed(member, a.ClampPower(p))
            want = oracles.brute_clamp_power(member, p)
            assert got == pytest.approx(want, abs=1e-12, rel=1e-12), label

    def test_difference_integral_matches_midpoint_oracle(self):
        f = box_fn([3.0, -1.0, 0.25, 2.0], h=F(1, 3))
        g = box_fn([1.0, 1.0, -0.5], lo=F(1, 2), h=F(1, 2))
        for p in (1.0, 2.0):
            got = a.difference_integral(f, g, a.ClampPower(p))
            want = oracles.brute_distance_1d(f, g, p, clamp=True)
            assert got == pytest.approx(want, abs=1e-14)
            got = a.difference_integral(f, g, a.AbsPower(p))
            want = oracles.brute_distance_1d(f, g, p, clamp=False)
            assert got == pytest.approx(want, abs=1e-14)

    def test_difference_with_identical_tails_cancels(self):
        v4, v6 = a.family_v(4, 2.0), a.family_v(6, 2.0)
        got = a.difference_integral(v4, v6, a.ClampPower(2.0))
        want = oracles.brute_distance_1d(v4, v6, 2.0, clamp=True)
        assert got == pytest.approx(want, abs=1e-12)

    def test_difference_with_incompatible_tails_rejected(self):
        v = a.family_v(4, 2.0)
        w = a.grid_function((F(-1), F(1)), F(1, 2), [0.0] * 4,
                            a.TailSpec.power_law(2.0, 2.0, 1))
        with pytest.raises(a.IncompatibleGridsError):
            a.difference_integral(v, w, a.ClampPower(2.0))


class TestTranslationDefect:
    def test_indicator_defect_is_twice_shift(self):
        g = a.family_g(3)
        for y in (F(1, 16), F(3, 16), F(1, 2)):
            got = a.translation_defect(g, y, a.ClampPower(1.0))
            assert got == pytest.approx(2 * float(y), abs=1e-15)

    def test_defect_handles_unaligned_shift(self):
        # shift that is not a multiple of the spacing still integrates exactly
        g = a.family_g(2)  # spacing 1/16
        got = a.translation_defect(g, F(1, 48), a.ClampPower(1.0))
        assert got == pytest.approx(2 / 48, abs=1e-15)

    def test_defect_symmetry(self):
        f = box_fn([1.0, -2.0, 0.5, 3.0, -1.0, 0.0, 2.0, 1.5], h=F(1, 8))
        for y in (F(1, 8), F(3, 16)):
            d1 = a.translation_defect(f, y, a.ClampPower(2.0))
            d2 = a.translation_defect(f, -y, a.ClampPower(2.0))
            assert d1 == pytest.approx(d2, abs=1e-15)

    def test_zero_shift_zero_defect(self):
        f = box_fn([1.0, 2.0, 3.0, 4.0])
        assert a.translation_defect(f, F(0), a.ClampPower(1.0)) == 0.0

    def test_windowed_defect(self):
        h3 = a.rademacher(3, K_grid=4)
        y = F(1, 8)  # one full plateau: global sign flip on the overlap
        d = a.translation_defect(h3, y, a.ClampPower(1.0), window=a.Window(F(0), 1 - y))
        assert d == 7 / 8

    def test_bounds_bracket_exact_value_for_zero_tail(self):
        f = a.family_u(3, 1.0)
        lo, hi = a.translation_defect_bounds(f, F(1, 32), a.ClampPower(1.0))
        exact = a.translation_defect(f, F(1, 32), a.ClampPower(1.0))
        assert lo == exact == hi

    def test_bounds_are_sound_for_power_tails(self):
        # certified upper bound vs a reference where the analytic tail is
        # replaced by sampled 1/x out to x = 64 (the ignored remainder of
        # the defect integral beyond 64 is ~ (y/64**2)**2, far below 1e-9)
        v = a.family_v(4, 2.0)
        y = F(1, 64)
        lo, hi = a.translation_defect_bounds(v, y, a.ClampPower(2.0))
        assert lo <= hi
        h = v.spacing[0]
        big = v.pad_to_box((F(-64), F(1)))
        n_ext = int(63 / h)
        mids = 1.0 + (np.arange(n_ext) + 0.5) * float(h)
        ext_vals = np.concatenate([big.values, 1.0 / mids])
        ext = a.grid_function((F(-64), F(64)), h, ext_vals)
        ref = a.translation_defect(ext, y, a.ClampPower(2.0))
        assert ref <= hi + 1e-9
        assert lo <= ref + 1e-6  # lo is the exact below-onset part

    def test_defect_with_window_and_negative_level(self):
        f = box_fn([2.0, 0.0, 1.0, 0.5])
        got = a.translation_defect(f, F(1, 4), a.Threshold(-0.5), window=a.Window(F(0), F(1)))
        assert got == pytest.approx(1.0, abs=0)


class TestLatticeGuard:
    """Edges 2**62 or more from the origin raise instead of wrapping in int64."""

    def test_shifted_edges_past_int64_raise(self):
        # scale 2**52, 4096 unit cells: the last edge is 2**64
        f = a.constant(1.0, (0, 4096), 1)
        with pytest.raises(a.GridError):
            a.translation_defect(f, F(1, 2**52), a.ClampPower(1.0))

    def test_window_refining_the_lattice_past_int64_raises(self):
        f = a.grid_function((0, 4096), 1, np.arange(4096.0))
        with pytest.raises(a.GridError):
            a.integrate_transformed(f, a.AbsPower(1.0), a.Window(F(1, 2**52), None))


class TestSuperlevel:
    def test_measure_strict_inequality(self):
        f = box_fn([0.5, 1.0, 1.5, 2.0])
        assert a.superlevel_measure(f, 1.0) == pytest.approx(0.5, abs=0)
        assert a.superlevel_measure(f, 0.25) == pytest.approx(1.0, abs=0)

    def test_set_matches_measure(self, corpus_members):
        for label, member, _p in corpus_members:
            if not member.tail.is_zero or member.dim != 1:
                continue
            for level in (0.5, 1.0, 2.0):
                s = a.superlevel_set(member, level)
                assert s.measure() == a.superlevel_measure(member, level), label

    def test_set_with_tail_leak_rejected(self):
        v = a.family_v(4, 2.0)
        # level below the tail sup: the superlevel set extends past the box
        with pytest.raises(a.GridError):
            a.superlevel_set(v, 0.5)
        # but the measure is still computable
        got = a.superlevel_measure(v, 0.5)
        # grid part {cells > 1/2} is roughly (1/4, 1]... plus tail part (1, 2)
        assert got == pytest.approx((1 - 0.25) + 1.0, rel=0.05)

    def test_negative_level_infinite(self):
        f = box_fn([1.0, 0.0, 0.0, 0.0])
        assert a.superlevel_measure(f, -1.0) == math.inf
