"""Grid containers: construction, validation, algebra, measurable sets."""
import math
from fractions import Fraction as F

import numpy as np
import pytest

import asymlp as a
from asymlp import quadrature


class TestConstruction:
    def test_simple_1d(self):
        f = a.grid_function((F(0), F(1)), F(1, 4), [1.0, -2.0, 0.5, 3.0])
        assert f.dim == 1
        assert f.counts == (4,)
        assert f.cell_volume == F(1, 4)
        assert f.value_at(0.375) == -2.0

    def test_box_not_multiple_of_spacing(self):
        with pytest.raises(a.GridError, match="multiple"):
            a.grid_function((F(0), F(1)), F(3, 8), [1.0, 2.0])

    def test_degenerate_box(self):
        with pytest.raises(a.GridError, match="degenerate"):
            a.grid_function((F(1), F(1)), F(1, 4), [])

    def test_wrong_value_count(self):
        with pytest.raises(a.GridError, match="shape"):
            a.grid_function((F(0), F(1)), F(1, 2), [1.0, 2.0, 3.0])

    def test_nonfinite_values_rejected(self):
        with pytest.raises(a.GridError, match="finite"):
            a.grid_function((F(0), F(1)), F(1, 2), [1.0, float("inf")])

    def test_values_are_read_only(self):
        f = a.constant(1.0, (F(0), F(1)), F(1, 2))
        with pytest.raises(ValueError):
            f.values[0] = 5.0

    def test_2d(self):
        f = a.grid_function(((F(0), F(1)), (F(0), F(2))), (F(1, 2), F(1)), np.ones((2, 2)))
        assert f.dim == 2
        assert f.cell_volume == F(1, 2)
        assert f.value_at((0.25, 1.5)) == 1.0

    def test_value_at_outside_box_is_zero(self):
        f = a.constant(3.0, (F(0), F(1)), F(1, 2))
        assert f.value_at(2.0) == 0.0
        assert f.value_at(-0.5) == 0.0


class TestTails:
    def test_onset_must_match_right_edge(self):
        tail = a.TailSpec.power_law(1.0, 1.0, 2)
        with pytest.raises(a.GridError):
            a.grid_function((F(-1), F(1)), F(1, 2), [0.0] * 4, tail)

    def test_box_must_cover_symmetric_interval(self):
        tail = a.TailSpec.power_law(1.0, 1.0, 1)
        with pytest.raises(a.GridError):
            a.grid_function((F(0), F(1)), F(1, 2), [0.0, 0.0], tail)

    def test_valid_power_tail(self):
        tail = a.TailSpec.power_law(2.0, 1.5, 1)
        f = a.grid_function((F(-1), F(1)), F(1, 2), [0.0] * 4, tail)
        assert f.value_at(4.0) == 2.0 * 4.0**-1.5
        assert f.sup_abs() == 2.0  # attained at the onset

    def test_tail_validation(self):
        with pytest.raises(a.GridError):
            a.TailSpec.power_law(-1.0, 1.0, 1)
        with pytest.raises(a.GridError):
            a.TailSpec.power_law(1.0, 0.0, 1)
        with pytest.raises(a.GridError):
            a.TailSpec.power_law(1.0, 1.0, 0)

    def test_membership_depends_on_exponent(self):
        # clamp integral of x**-alpha beyond 1 diverges iff alpha*p <= 1
        good = a.grid_function((F(-1), F(1)), F(1, 2), [0.0] * 4,
                               a.TailSpec.power_law(1.0, 2.0, 1))
        assert good.in_lambda_p(1.0)
        bad = a.grid_function((F(-1), F(1)), F(1, 2), [0.0] * 4,
                              a.TailSpec.power_law(1.0, 1.0, 1))
        assert not bad.in_lambda_p(1.0)
        assert bad.in_lambda_p(2.0)

    def test_closed_form_tail_integrals(self):
        # integral_2^inf (3 x**-2)**2 dx = 9/3 * 2**-3 = 3/8
        assert a.power_tail_integral(3.0, 2.0, 2.0, 2.0) == pytest.approx(3 / 8, abs=1e-15)
        assert a.power_tail_integral(1.0, 1.0, 1.0, 1.0) == float("inf")
        # clamped: saturation at x = 3 (3/x >= 1 there), so the integral is
        # (3-2)*1 + integral_3^inf 9 x**-2 dx = 1 + 3
        got = a.clamped_power_tail_integral(3.0, 1.0, 2.0, 2.0)
        assert got == pytest.approx(4.0, abs=1e-12)

    def test_overflowing_tail_terms_raise_grid_error(self):
        # the tail is 3 at its onset 1: its lp integral 3**700 / 1399 overflows
        f = a.grid_function((-1, 1), 1, [0.1, 0.2], a.TailSpec.power_law(3.0, 2.0, 1))
        for call in (
            lambda: a.integrate_transformed(f, a.AbsPower(700.0)),
            lambda: a.lp_norm(f, 700.0),
            lambda: a.check_kr_lp(a.FamilySpec("tail", 700.0, (f,), (1,)), 0.5),
            lambda: a.TailSpec.power_law(3.0, 0.01, 2).superlevel_length(1e-300),
            lambda: a.clamped_power_tail_integral(1e10, 0.01, 2.0, 1.0),
            lambda: quadrature._abs_power_between(3.0, 2.0, 700.0, 2.0, 3.0),
            lambda: a.TailSpec.power_law(1.0, 700.0, F(1, 4)).sup(),  # 4.0**700
        ):
            with pytest.raises(a.GridError, match="overflows"):
                call()


    def test_tail_integral_with_overflowing_powers_is_finite(self):
        # 3.0**700 overflows, yet the integral of (3 x**-2)**700 from 2 on
        # is 3**700 * 2**-1399 / 1399, about 5e-91
        exact = F(3) ** 700 / F(2) ** 1399 / 1399
        got = a.power_tail_integral(3.0, 2.0, 2.0, 700.0)
        assert abs(F(got) - exact) <= exact * F(4, 2**53)
        f = a.grid_function((-2, 2), 1, [0.1, 0.2, 0.3, 0.4], a.TailSpec.power_law(3.0, 2.0, 2))
        assert a.integrate_transformed(f, a.AbsPower(700.0), a.Outside(2.0)) == got
        assert a.alpha_norm(f, 700.0) > 0.0
        assert a.FamilySpec("tail", 700.0, (f,), (1,)).p == 700.0
        # powers that do not overflow keep the two-power formula
        assert a.power_tail_integral(3.0, 2.0, 2.0, 2.0) == 3.0**2 * 2.0**-3.0 / 3.0

    def test_grouped_sum_overflow_raises_grid_error(self):
        f = a.grid_function((0, 2), 1, [1e308, 1.5e308])
        for call in (
            lambda: a.integrate_transformed(f, a.AbsPower(1.0)),
            lambda: a.lp_norm(f, 1.0),
            lambda: quadrature._fsum([1e308, 1.5e308]),
        ):
            with pytest.raises(a.GridError, match="grouped sum overflows"):
                call()
        assert quadrature._fsum([1e308, -1e308, 1.0]) == 1.0
        assert quadrature._fsum([math.inf, 1.0]) == math.inf
        # a group that is already inf makes the sum inf, whatever the
        # finite groups beside it add up to
        assert quadrature._fsum([math.inf, 1e308, 1.5e308]) == math.inf
        for values in ([1e300, 1.5e298, 1.6e298], [1e300, 1.0, 2.0]):
            g = a.grid_function((0, 3 * 2**33), 2**33, values)
            with np.errstate(over="ignore"):  # 1e300 * 2**33
                assert a.integrate_transformed(g, a.AbsPower(1.0)) == math.inf
                assert a.lp_norm(g, 1.0) == math.inf


class TestAlgebra:
    def test_add_aligned(self):
        f = a.constant(1.0, (F(0), F(1)), F(1, 4))
        g = a.constant(1.0, (F(1, 2), F(3, 2)), F(1, 4))
        s = a.add(f, g)
        assert s.value_at(0.25) == 1.0
        assert s.value_at(0.75) == 2.0
        assert s.value_at(1.25) == 1.0

    def test_add_mixed_spacing_uses_gcd(self):
        f = a.constant(1.0, (F(0), F(1)), F(1, 2))
        g = a.constant(2.0, (F(0), F(1)), F(1, 3))
        s = a.add(f, g)
        assert s.spacing[0] == F(1, 6)
        assert np.all(s.values == 3.0)

    def test_subtract_self_is_zero(self):
        f = a.family_v(4, 2.0)
        d = a.subtract(f, f)
        assert np.all(d.values == 0.0)
        assert d.tail.is_zero  # identical tails cancel exactly

    def test_subtract_live_right_tail_not_representable(self):
        f = a.family_v(4, 2.0)
        g = a.constant(1.0, (F(-1), F(1)), F(1, 2))
        with pytest.raises(a.IncompatibleGridsError):
            a.subtract(g, f)  # 0 - tail would be a negative power law: fine?
        # f - g keeps f's tail because g is dead past the onset
        d = a.subtract(f, g)
        assert d.tail == f.tail

    def test_zero_coefficient_tail_combines_past_its_onset(self):
        # f vanishes past its onset, so g may extend beyond it
        f = a.grid_function((F(-1), F(1)), F(1, 2), [0.0] * 4,
                            a.TailSpec.power_law(0.0, 1.0, 1))
        g = a.constant(1.0, (F(0), F(2)), F(1, 2))
        for s in (a.add(f, g), a.subtract(g, f)):
            assert s.box == ((F(-1), F(2)),)
            assert s.tail.is_zero
            assert list(s.values) == [0.0, 0.0, 1.0, 1.0, 1.0, 1.0]

    def test_offset_grids_align_on_gcd(self):
        f = a.constant(1.0, (F(0), F(1)), F(1, 2))
        g = a.constant(1.0, (F(1, 3), F(4, 3)), F(1, 2))
        s = a.add(f, g)
        assert s.spacing[0] == F(1, 6)
        assert s.value_at(0.5) == 2.0

    def test_refine_preserves_integrals(self):
        f = a.grid_function((F(0), F(1)), F(1, 2), [2.0, -3.0])
        r = f.refine(F(1, 8))
        assert r.counts == (8,)
        assert a.alpha_norm(r, 1.0) == a.alpha_norm(f, 1.0)
        assert a.lp_norm(r, 2.0) == a.lp_norm(f, 2.0)

    def test_refine_must_divide(self):
        f = a.constant(1.0, (F(0), F(1)), F(1, 2))
        with pytest.raises(a.GridError):
            f.refine(F(1, 3))

    def test_cell_budget_is_checked_before_allocation(self, monkeypatch):
        monkeypatch.setattr("asymlp.grid.MAX_CELLS", 64)
        f = a.constant(1.0, (F(0), F(1)), F(1, 8))
        assert f.pad_to_box((F(-7), F(1))).counts == (64,)
        with pytest.raises(a.GridError, match="budget"):
            f.pad_to_box((F(-100), F(1)))
        with pytest.raises(a.GridError, match="budget"):
            f.refine(F(1, 128))
        with pytest.raises(a.GridError, match="budget"):
            a.add(f, a.constant(1.0, (F(99), F(100)), F(1, 8)))
        A = a.MeasurableSet.from_intervals([(F(0), F(1))], F(1, 8))
        B = a.MeasurableSet.from_intervals([(F(99), F(100))], F(1, 8))
        with pytest.raises(a.GridError, match="budget"):
            A.union(B)

    def test_pad_to_box(self):
        f = a.constant(1.0, (F(0), F(1)), F(1, 2))
        g = f.pad_to_box((F(-1), F(2)))
        assert g.counts == (6,)
        assert g.value_at(-0.5) == 0.0
        assert g.value_at(0.5) == 1.0
        assert a.alpha_norm(g, 1.0) == a.alpha_norm(f, 1.0)
        with pytest.raises(a.GridError):  # a power-law onset stays put
            a.family_v(4, 2.0).pad_to_box((F(-2), F(2)))


class TestMeasurableSet:
    def test_from_intervals_and_measure(self):
        E = a.MeasurableSet.from_intervals([(F(0), F(1, 2)), (F(1), F(3, 2))], F(1, 4))
        assert E.measure() == 1.0
        assert E.measure_fraction() == F(1)

    def test_box_must_be_whole_cells(self):
        # 2/5 as a float is not exactly 2/5, so [0, 1] is not two cells
        with pytest.raises(a.GridError, match="multiple"):
            a.MeasurableSet(((0, 1),), (2 / 5,), np.ones(2))

    def test_boolean_algebra(self):
        A = a.MeasurableSet.from_intervals([(F(0), F(1))], F(1, 4))
        B = a.MeasurableSet.from_intervals([(F(1, 2), F(3, 2))], F(1, 4))
        assert A.union(B).measure() == 1.5
        assert A.intersection(B).measure() == 0.5
        assert A.difference(B).measure() == 0.5
        assert A.symmetric_difference(B).measure() == 1.0

    def test_translate_exact(self):
        A = a.MeasurableSet.from_intervals([(F(0), F(1))], F(1, 8))
        moved = A.translate(F(3, 8))
        assert A.symmetric_difference(moved).measure() == pytest.approx(0.75, abs=0)

    def test_demorgan_on_common_box(self):
        A = a.MeasurableSet.from_intervals([(F(0), F(3, 4))], F(1, 4))
        B = a.MeasurableSet.from_intervals([(F(1, 4), F(1))], F(1, 4))
        lhs = A.difference(B)
        rhs = A.symmetric_difference(A.intersection(B))
        assert lhs.measure() == rhs.measure()


class TestFractions:
    def test_as_fraction_exact_floats(self):
        assert a.as_fraction(0.5) == F(1, 2)
        assert a.as_fraction("3/7") == F(3, 7)
        assert a.as_fraction(2) == F(2)

    def test_fraction_gcd(self):
        assert a.fraction_gcd(F(1, 4), F(1, 6)) == F(1, 12)
        assert a.fraction_gcd(F(3, 2), F(1)) == F(1, 2)
