"""Example family builders: exact geometry, values, and the parse grammar."""
import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

import asymlp as a


class TestMemberFunctions:
    def test_f_is_scaled_plateau(self):
        for p in (1.0, 2.0):
            for k in (1, 7, 100):
                f = a.family_f(k, p)
                assert f.box[0] == (F(0), F(1))
                assert np.all(np.asarray(f.values) == float(k) ** (1.0 / p))

    def test_g_is_escaping_indicator(self):
        g = a.family_g(12)
        assert g.box[0] == (F(12), F(13))
        assert np.all(np.asarray(g.values) == 1.0)
        assert g.spacing[0] == F(1, 16)

    def test_rademacher_alternates_on_dyadic_blocks(self):
        h = a.rademacher(2, K_grid=4)  # blocks of length 1/4 on grid 1/16
        vals = np.asarray(h.values)
        assert h.counts == (16,)
        expected = np.repeat([1.0, -1.0, 1.0, -1.0], 4)
        assert np.array_equal(vals, expected)

    def test_rademacher_default_grid(self):
        h = a.rademacher(3)
        assert h.spacing[0] == F(1, 16)  # K_grid defaults to k + 1

    def test_rademacher_misalignment_rejected(self):
        with pytest.raises(a.GridError):
            a.rademacher(4, K_grid=3)

    def test_u_is_phi_plus_bump(self):
        phi = a.default_phi()
        for k in (1, 3, 16):
            u = a.family_u(k, 1.0, phi)
            d = a.subtract(u, phi)
            # the difference is exactly the bump: k on [k, k + 1/k]
            assert a.lp_norm(d, 1.0) == pytest.approx(1.0, abs=1e-12)
            assert d.value_at(float(k) + 0.5 / k) == pytest.approx(float(k), abs=0)

    def test_v_cell_averages_of_reciprocal(self):
        k = 4
        v = a.family_v(k, 2.0)
        h = v.spacing[0]
        # cell [1/4, 1/4 + h]: average of 1/x is log((l+h)/l)/h
        left = F(1, 4)
        want = float(mpmath.log((left + h) / left) / h)
        assert v.value_at(float(left + h / 2)) == pytest.approx(want, rel=1e-15)
        assert v.value_at(-0.5) == 0.0
        assert v.tail == a.TailSpec.power_law(1.0, 1.0, 1)

    def test_v_values_match_fraction_edges_bit_for_bit(self):
        for k in (1, 7, 33, 64):
            v = a.family_v(k, 2.0)
            h = v.spacing[0]
            start = int((F(1, k) + 1) / h)
            lefts = np.array([float(-1 + i * h) for i in range(start, v.counts[0])])
            want = np.zeros(v.counts[0])
            want[start:] = (np.log(lefts + float(h)) - np.log(lefts)) / float(h)
            assert np.asarray(v.values).tobytes() == want.tobytes(), k

    def test_v_lp_square_close_to_k(self):
        for k in (4, 16, 64):
            v = a.family_v(k, 2.0)
            got = a.lp_norm(v, 2.0) ** 2
            assert got == pytest.approx(float(k), rel=1e-6)

    def test_v_requires_p_above_one(self):
        with pytest.raises(a.GridError):
            a.family_v(4, 1.0)

    def test_v_limit_distance_closed_form(self):
        # min(|v - v_k|, 1) = 1 on (0, 1/k) and 0 elsewhere, so the
        # p-th power of the distance is exactly 1/k; cross-check the
        # saturation claim with arbitrary-precision quadrature
        for p in (1.5, 2.0):
            for k in (1, 4, 64):
                d = a.v_limit_distance(k, p)
                assert d**p == pytest.approx(1 / k, abs=1e-15)
        k, p = 4, 2.0
        oracle = float(mpmath.quad(lambda x: min(1 / x, 1) ** p, [0, 1 / k]))
        assert oracle == pytest.approx(a.v_limit_distance(k, p) ** p, abs=1e-12)

    def test_spike_measure_shrinks(self):
        s = a.spike_family(5, 1.0)
        last = s.members[-1]
        assert a.superlevel_measure(last, 1.0) == pytest.approx(1 / 25, abs=0)

    def test_lipschitz_midpoint_samples(self):
        fam = a.lipschitz_family(2)
        f = fam.members[0]
        h = f.spacing[0]
        assert f.value_at(float(h) / 2) == pytest.approx(math.sin(float(h) / 2), abs=0)


class TestFamilySpec:
    def test_indices_match_members(self):
        fam = a.f_family((3, 6), 1.0)
        assert fam.indices == (3, 4, 5, 6)
        assert len(fam) == 4

    def test_validation_rejects_out_of_space_member(self):
        bad = a.grid_function((F(-1), F(1)), F(1, 2), [0.0] * 4,
                              a.TailSpec.power_law(1.0, 1.0, 1))
        with pytest.raises(a.NotInSpaceError):
            a.FamilySpec(name="bad", p=1.0, members=(bad,), indices=(1,))

    def test_subfamily_prefix(self):
        fam = a.g_family(8)
        sub = fam.subfamily(3)
        assert sub.indices == (1, 2, 3)
        assert sub.members == fam.members[:3]

    def test_min_spacing_and_radius(self):
        fam = a.u_family(4, 1.0)
        assert fam.min_spacing() == min(m.spacing[0] for m in fam.members)
        assert fam.max_box_radius() >= F(4)

    def test_generator_backed_extension(self):
        fam = a.u_family(4, 1.0)
        assert fam.generator is not None
        extra = fam.generator(7)
        assert extra.value_at(7.0 + 0.05) == pytest.approx(7.0, abs=0)


class TestParseGrammar:
    def test_range_and_p(self):
        fam = a.parse_family("f:k=2..5,p=2")
        assert fam.name == "f"
        assert fam.indices == (2, 3, 4, 5)
        assert fam.p == 2.0

    def test_count_form(self):
        fam = a.parse_family("g:k=6")
        assert fam.indices == (1, 2, 3, 4, 5, 6)

    def test_resolution_and_kgrid(self):
        v = a.parse_family("v:k=3,p=2,res=64")
        assert v.members[0].spacing[0] == F(1, 64)
        h = a.parse_family("h:k=2,kgrid=8")
        assert h.members[0].spacing[0] == F(1, 256)

    def test_unknown_builder(self):
        with pytest.raises(a.GridError):
            a.parse_family("zz:k=3")

    def test_malformed_descriptor(self):
        with pytest.raises(a.GridError):
            a.parse_family("f")
        with pytest.raises(a.GridError):
            a.parse_family("f:k=bogus")
