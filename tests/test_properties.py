"""Property-based invariants over randomly generated grid functions."""
import math
import re
from fractions import Fraction as F

import numpy as np

from hypothesis import given, settings, strategies as st
import pytest

import asymlp as a
import oracles
from asymlp import criteria, quadrature

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

_DENOMS = (1, 2, 3, 4, 6, 8)
_P = st.sampled_from((1.0, 1.5, 2.0))


@st.composite
def grids(draw):
    den = draw(st.sampled_from(_DENOMS))
    n = draw(st.integers(min_value=1, max_value=24))
    lo_num = draw(st.integers(min_value=-12, max_value=12))
    spacing = F(1, den)
    lo = F(lo_num, den)
    return (lo, lo + n * spacing), spacing, n


def _values(n):
    return st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False, width=64),
        min_size=n,
        max_size=n,
    )


@st.composite
def functions(draw):
    box, spacing, n = draw(grids())
    return a.grid_function(box, spacing, draw(_values(n)))


@st.composite
def triples(draw):
    """Three functions on one shared grid."""
    box, spacing, n = draw(grids())
    return tuple(
        a.grid_function(box, spacing, draw(_values(n))) for _ in range(3)
    )


class TestMetricAxioms:
    @given(triples(), _P)
    def test_triangle_inequality(self, fgh, p):
        f, g, h = fgh
        lhs = a.alpha_distance(f, h, p)
        rhs = a.alpha_distance(f, g, p) + a.alpha_distance(g, h, p)
        assert lhs <= rhs + 1e-9

    @given(triples(), _P)
    def test_symmetry_and_self_distance(self, fgh, p):
        f, g, _ = fgh
        assert a.alpha_distance(f, g, p) == a.alpha_distance(g, f, p)
        assert a.alpha_distance(f, f, p) == 0.0

    @given(functions(), st.floats(min_value=-1, max_value=1), _P)
    def test_scaling_down_contracts(self, f, lam, p):
        assert a.alpha_norm(a.scale(f, lam), p) <= a.alpha_norm(f, p) + 1e-12

    @given(functions(), _P)
    def test_clamped_norm_below_lp_norm(self, f, p):
        assert a.alpha_norm(f, p) <= a.lp_norm(f, p) + 1e-12


class TestQuadrature:
    @given(st.data())
    def test_window_splits_additively(self, data):
        f = data.draw(functions())
        p = data.draw(_P)
        (lo, hi), _, n = f.box[0], f.spacing[0], len(f.values)
        cut_steps = data.draw(st.integers(min_value=0, max_value=3 * n))
        mid = lo + F(cut_steps, 3) * f.spacing[0]
        t = a.ClampPower(p)
        left = a.integrate_transformed(f, t, a.Window(lo, mid))
        right = a.integrate_transformed(f, t, a.Window(mid, hi))
        whole = a.integrate_transformed(f, t, a.Window(lo, hi))
        assert math.isclose(left + right, whole, rel_tol=0, abs_tol=1e-9)

    @given(
        functions(),
        st.integers(min_value=1, max_value=20),
        st.sampled_from(_DENOMS),
        _P,
    )
    def test_defect_is_even_in_shift(self, f, num, den, p):
        y = F(num, den)
        t = a.ClampPower(p)
        fwd = a.translation_defect(f, y, t)
        bwd = a.translation_defect(f, -y, t)
        assert math.isclose(fwd, bwd, rel_tol=0, abs_tol=1e-12)

    @given(functions(), st.floats(min_value=0.05, max_value=12))
    def test_chebyshev_bound(self, f, level):
        p = 1.0
        mass = a.superlevel_measure(f, level) * min(level, 1.0) ** p
        assert mass <= a.alpha_norm(f, p) ** p + 1e-12


class TestOperators:
    @given(triples(), st.floats(min_value=1.01, max_value=8), _P)
    def test_truncation_is_nonexpansive(self, fgh, M, p):
        f, g, _ = fgh
        before = a.alpha_distance(f, g, p)
        after = a.alpha_distance(a.truncate(f, M), a.truncate(g, M), p)
        assert after <= before + 1e-12

    @given(functions(), st.integers(min_value=-16, max_value=16))
    def test_translation_preserves_norm(self, f, cells):
        y = cells * f.spacing[0]
        assert a.alpha_norm(a.translate(f, y), 1.0) == a.alpha_norm(f, 1.0)

    @given(functions(), st.floats(min_value=1.01, max_value=8))
    def test_clamp_commutes_with_truncation(self, f, M):
        lhs = a.clamp_unit(a.truncate(f, M))
        rhs = a.clamp_unit(f)
        assert a.alpha_distance(lhs, rhs, 1.0) == 0.0


class TestNets:
    @given(st.data())
    def test_greedy_net_survives_reverification(self, data):
        box, spacing, n = data.draw(grids())
        count = data.draw(st.integers(min_value=1, max_value=6))
        members = tuple(
            a.grid_function(box, spacing, data.draw(_values(n)))
            for _ in range(count)
        )
        family = a.FamilySpec(
            name="random", p=1.0, members=members,
            indices=tuple(range(1, count + 1)),
        )
        eps = data.draw(st.sampled_from((0.25, 0.5, 1.0)))
        net = a.greedy_net(family, eps)
        check = a.verify_covering(family, net)
        assert check.passed
        assert max(net.distances) < eps


# ---------------------------------------------------------------------------
# the exact sweep against a pure-Fraction evaluator
# ---------------------------------------------------------------------------

_BIG = 2**53  # integers from here on are no longer all exact doubles
_GUARD = 2**62  # lattice edges from here on raise GridError
_PRIMES = (1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
_TRANSFORMS = st.sampled_from((
    a.AbsPower(1.0), a.AbsPower(2.0), a.ClampPower(1.0), a.ClampPower(2.0),
    a.Threshold(0.5), a.Threshold(0.0),
))


def _exact_transform(t):
    """T as an exact map from the float difference to a Fraction."""
    if isinstance(t, a.Threshold):
        return lambda d: F(int(abs(d) > t.level))
    clamp = isinstance(t, a.ClampPower)
    return lambda d: (min(F(abs(d)), F(1)) if clamp else F(abs(d))) ** int(t.p)


def _within_rounding(got: float, exact: F) -> bool:
    """got is exact up to one rounding per group: of the group's measure,
    its transformed value and their product, plus fsum's final rounding.
    The absolute term covers transformed values that underflow."""
    return abs(F(got) - exact) <= exact * F(5, _BIG) + F(1, 2**1000)


_SCALES = st.one_of(
    st.integers(1, _BIG - 1), st.integers(_BIG - 8, _BIG + 8), st.integers(_BIG, _GUARD)
)


@st.composite
def _lattice_function(draw, den):
    """Zero-tail function whose box starts on the lattice 1/den."""
    h = F(draw(st.integers(1, 3)), den)
    n = draw(st.integers(1, 10))
    start = F(draw(st.integers(-4 * den, 4 * den)), den)
    pool = st.sampled_from((0.0, -0.0, 0.5, -1.25, 3.0, 5e-324))
    values = draw(st.lists(
        st.one_of(pool, st.floats(-4, 4, allow_nan=False)), min_size=n, max_size=n
    ))
    return a.grid_function((start, start + n * h), h, values)


@st.composite
def _coprime_pair(draw):
    return tuple(draw(_lattice_function(draw(st.sampled_from(_PRIMES)))) for _ in range(2))


@st.composite
def _off_lattice(draw):
    """A rational whose denominator is small or far past 2**40."""
    den = draw(st.one_of(st.integers(1, 64), st.integers(2**40, 2**56)))
    return F(draw(st.integers(-8 * den, 8 * den)), den)


@st.composite
def _mid_cell_window(draw, f):
    """Window bounds inside cells of f, or unbounded."""
    (lo, hi), = f.box
    h = f.spacing[0]

    def bound():
        cell = draw(st.integers(-2, round((hi - lo) / h) + 1))
        return lo + (cell + draw(_off_lattice()) % 1) * h

    x, y = sorted((bound(), bound()))
    return draw(st.sampled_from((None, x))), draw(st.sampled_from((None, y)))


def _lattice_fits(*fractions) -> bool:
    """Whether every coordinate lies below 2**62 on the common lattice."""
    scale = math.lcm(*(x.denominator for x in fractions))
    return all(abs(x * scale) < _GUARD for x in fractions)


def _geometry(f, shift=F(0)):
    (lo, hi), = f.box
    return [lo + shift, hi + shift, f.spacing[0]]


def _fresh(f):
    """The same function as a new instance, with nothing cached."""
    return a.grid_function(f.box, f.spacing, f.values.copy())


class TestExactSweep:
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from((0.0, 0.25, 1.0, 3.5)),
                          st.floats(0, 1e6, allow_nan=False)),
                st.one_of(st.integers(0, 2**20), st.integers(2**50, 2**59)),
            ),
            min_size=1, max_size=8,
        ),
        _SCALES,
    )
    def test_group_exact_matches_fraction_path_bit_for_bit(self, pieces, scale):
        tvals = np.array([t for t, _ in pieces])
        lengths = np.array([n for _, n in pieces], dtype=np.int64)
        groups = {}
        for t, n in pieces:
            if t != 0.0 and n > 0:
                groups[t] = groups.get(t, 0) + n
        want = math.fsum(float(F(n, scale)) * t for t, n in groups.items())
        assert quadrature._group_exact(tvals, lengths, scale) == want

    @given(_coprime_pair(), _TRANSFORMS, st.data())
    def test_integrate_transformed(self, fg, t, data):
        f, _ = fg
        lo, hi = data.draw(_mid_cell_window(f))
        window = a.Window(lo, hi)
        bounds = [b for b in (lo, hi) if b is not None]
        if not _lattice_fits(*_geometry(f), *bounds):
            with pytest.raises(a.GridError):
                a.integrate_transformed(f, t, window)
            return
        got = a.integrate_transformed(f, t, window)
        exact = oracles.exact_sweep_1d(f, None, _exact_transform(t), lo, hi)
        assert _within_rounding(got, exact)
        assert a.integrate_transformed(f, t, window) == got
        assert a.integrate_transformed(_fresh(f), t, window) == got

    @given(_coprime_pair(), _TRANSFORMS)
    def test_difference_integral(self, fg, t):
        f, g = fg
        got = a.difference_integral(f, g, t)
        exact = oracles.exact_sweep_1d(f, g, _exact_transform(t))
        assert _within_rounding(got, exact)
        assert a.difference_integral(f, g, t) == got
        assert a.difference_integral(_fresh(f), _fresh(g), t) == got

    @given(_coprime_pair(), _off_lattice(), _TRANSFORMS, st.data())
    def test_translation_defect(self, fg, y, t, data):
        f, _ = fg
        lo, hi = data.draw(_mid_cell_window(f))
        window = a.Window(lo, hi)
        bounds = [b for b in (lo, hi) if b is not None]
        if not _lattice_fits(*_geometry(f), *_geometry(f, -y), y, *bounds):
            with pytest.raises(a.GridError):
                a.translation_defect(f, y, t, window)
            return
        got = a.translation_defect(f, y, t, window)
        exact = oracles.exact_sweep_1d(f, f, _exact_transform(t), lo, hi, shift=y)
        assert _within_rounding(got, exact)
        assert a.translation_defect(f, y, t, window) == got
        assert a.translation_defect(_fresh(f), y, t, window) == got


# ---------------------------------------------------------------------------
# the batched translation kernel against the per-shift sweep
# ---------------------------------------------------------------------------

_PROFILE_TRANSFORMS = st.sampled_from((
    a.AbsPower(1.0), a.AbsPower(1.5), a.AbsPower(2.0), a.ClampPower(1.0),
    a.ClampPower(2.0), a.Threshold(0.5), a.Threshold(0.0), a.Threshold(-0.5),
))


@st.composite
def _tailed_function(draw, den):
    """Function with a power-law tail from the right box edge L on."""
    h = F(draw(st.integers(1, 3)), den)
    right = draw(st.integers(1, 6))
    n = 2 * right + draw(st.integers(0, 3))
    L = right * h
    values = draw(st.lists(st.floats(-4, 4, allow_nan=False), min_size=n, max_size=n))
    coefficient = draw(st.sampled_from((0.0, 0.5, 1.0, 3.0)))
    tail = a.TailSpec.power_law(coefficient, draw(st.sampled_from((0.5, 1.0, 2.0))), L)
    return a.GridFunction(((L - n * h, L),), (h,), np.array(values), tail)


def _per_shift(f, y, t):
    if f.tail.is_zero:
        return a.translation_defect(f, y, t)
    return a.translation_defect_bounds(f, y, t)[1]


class TestShiftProfile:
    def _check(self, f, shifts, t):
        try:
            want = [_per_shift(f, y, t) for y in shifts]
        except a.GridError:
            with pytest.raises(a.GridError):
                quadrature.translation_profile(f, shifts, t)
            return
        assert _bits(quadrature.translation_profile(f, shifts, t)) == _bits(want)

    @given(_coprime_pair(), st.lists(_off_lattice(), min_size=1, max_size=6), _PROFILE_TRANSFORMS)
    def test_zero_tail_matches_the_sweep_bit_for_bit(self, fg, shifts, t):
        self._check(fg[0], shifts, t)

    @given(st.sampled_from(_PRIMES).flatmap(_tailed_function),
           st.lists(_off_lattice(), min_size=1, max_size=6), _PROFILE_TRANSFORMS)
    def test_live_tail_matches_the_bounds_bit_for_bit(self, f, shifts, t):
        self._check(f, shifts, t)

    @given(_coprime_pair(), st.integers(1, 64), st.integers(1, 40), _PROFILE_TRANSFORMS)
    def test_lattice_shifts_in_one_call(self, fg, den, count, t):
        step = F(1, den)
        self._check(fg[0], [y for j in range(1, count + 1) for y in (j * step, -j * step)], t)

    def test_guard_raises_as_the_sweep_does(self):
        f = a.constant(1.0, (0, 4096), 1)  # TestLatticeGuard: last edge 2**64
        for shifts in ([F(1, 2**52)], [F(1, 2), F(1, 2**52)]):
            with pytest.raises(a.GridError):
                quadrature.translation_profile(f, shifts, a.ClampPower(1.0))


@st.composite
def _many_runs(draw, den):
    """Zero-tail function of 1 to 200 cells drawn from a few values, so
    its run count falls anywhere from 1 to the cell count."""
    h = F(draw(st.integers(1, 3)), den)
    n = draw(st.integers(1, 200))
    start = F(draw(st.integers(-4 * den, 4 * den)), den)
    values = draw(st.lists(st.sampled_from((0.0, 0.5, -1.25, 3.0)), min_size=n, max_size=n))
    return a.grid_function((start, start + n * h), h, values)


@st.composite
def _profile_family(draw):
    """1-5 members on coprime lattices, with live and zero tails, run
    counts from 1 to about 200, and lattice scales and spans on both
    sides of 2**53."""
    def member():
        den = draw(st.sampled_from(_PRIMES))
        return draw(st.one_of(
            _lattice_function(den), _tailed_function(den), _many_runs(den),
            _scaled_function(), _wide_function(),
        ))

    return [member() for _ in range(draw(st.integers(1, 5)))]


@st.composite
def _profile_shifts(draw):
    """Signed lattice shifts of one step, or off-lattice ones, whose
    denominators up to 2**56 put a row's lattice past 2**53."""
    if draw(st.booleans()):
        step = F(1, draw(st.integers(1, 64)))
        count = draw(st.integers(1, 8))
        return [y for j in range(1, count + 1) for y in (j * step, -j * step)]
    return draw(st.lists(_off_lattice(), min_size=1, max_size=6))


def _profile_admits(members, shifts, t) -> bool:
    """Whether the translation kernel's batch gate admits the block: every
    member 1-d and, on the lcm S of its lattice and every shift
    denominator, S, both box ends, shifted or not, and each row's span
    below 2**53.  A degenerate threshold builds no rows and is admitted."""
    if any(m.dim != 1 for m in members):
        return False
    if isinstance(t, a.Threshold) and t.level < 0:
        return True
    for m in members:
        (lo, hi), = m.box
        S = math.lcm(lo.denominator, m.spacing[0].denominator, *(y.denominator for y in shifts))
        for y in shifts:
            ends = [x * S for x in (lo, hi, lo - y, hi - y)]
            if S >= 2**53 or max(map(abs, ends)) >= 2**53 or max(ends) - min(ends) >= 2**53:
                return False
    return True


class TestFamilyProfile:
    """One pass per shift block for the whole family, bit for bit."""

    @given(_profile_family(), _profile_shifts(), _PROFILE_TRANSFORMS)
    def test_family_pass_matches_the_per_member_calls(self, members, shifts, t):
        got = quadrature._family_profile(members, shifts, t)
        try:
            want = [[_per_shift(m, y, t) for y in shifts] for m in members]
        except a.GridError:
            # refused: the per-shift calls raise it, in shift order
            assert got is None
            return
        assert (got is not None) == _profile_admits(members, shifts, t)
        if got is not None:
            assert [_bits(row) for row in got] == [_bits(row) for row in want]

    def test_rows_past_2_53_refuse_the_block(self):
        # TestFamilyKernels' geometry: a float division of these sums, or by
        # this scale, rounds away from the Fraction's
        L, S = 3650211806964173, 2**53 + 1
        wide = a.grid_function((0, 3 * F(L, 5)), F(L, 5), [1.0, 2.0, 3.0])
        fine = a.grid_function((0, F(3, S)), F(1, S), [1.0, 2.0, 3.0])
        small = a.grid_function((0, 3), 1, [1.0, 2.0, 3.0])
        # every edge of this one stays below 2**53 units of 1/5, shifted or
        # not, but at the shift s its |difference| is 1 on three pieces of
        # length s: a float division of the odd group sum 3s > 2**53 rounds
        # twice
        X, s = 2**53, 3002399751580337
        h, m = 35 * X // 100, X // 2
        straddle = a.grid_function((F(-m, 5), F(3 * h - m, 5)), F(h, 5), [1.0, 2.0, 3.0])
        assert max(3 * h - m, s + m) < X < 3 * s and float(3 * s) / 5 != float(F(3 * s, 5))
        t = a.AbsPower(1.0)
        assert quadrature._family_profile([small], [F(L, 5), -F(L, 5)], t) is not None
        for members, y in (
            # wide spans 4L > 2**53 units of 1/5 at this shift
            ([wide, small], F(L, 5)),
            # every row on the lattice 1/S
            ([fine, small], F(1, S)),
            # the row's span 3h + s passes 2**53
            ([straddle, small], F(s, 5)),
        ):
            assert quadrature._family_profile(members, [y, -y], t) is None
            for m in members:
                want = [a.translation_defect(m, z, t) for z in (y, -y)]
                assert quadrature.translation_profile(m, [y, -y], t) == want

    def test_each_row_meets_the_sweeps_guards(self):
        # on the lattice 1/S the shift -10/S puts the right edge 2 at
        # 2S + 10 = 2**62, the left edge stays at 10
        S = 2**61 - 5
        f = a.constant(1.0, (0, 2), 1)
        t = a.ClampPower(1.0)
        assert quadrature.translation_profile(f, [F(-9, S)], t) == [a.translation_defect(f, F(-9, S), t)]
        for shifts in ([F(-10, S)], [F(-9, S), F(-10, S)]):
            with pytest.raises(a.GridError, match="too fine"):
                a.translation_defect(f, shifts[-1], t)
            with pytest.raises(a.GridError, match="too fine"):
                quadrature.translation_profile(f, shifts, t)

    def test_no_shifts_give_an_empty_profile(self):
        for f in (a.constant(1.0, (0, 2), 1), a.v_family(2, 2.0).members[0]):
            for t in (a.ClampPower(1.0), a.Threshold(-0.5)):
                assert quadrature.translation_profile(f, [], t) == []
                assert quadrature.translation_profile(f, iter([F(1, 2)]), t) == [_per_shift(f, F(1, 2), t)]

    def test_padding_at_most_doubles_a_row(self, monkeypatch):
        widths = []
        profile_grid = quadrature._profile_grid

        def spy(edges, values, shifts, clip, scale, transform):
            widths.append(edges.shape[1])
            return profile_grid(edges, values, shifts, clip, scale, transform)

        monkeypatch.setattr(quadrature, "_profile_grid", spy)
        members = a.g_family(6).members + a.h_family(4).members + a.f_family(3, 1.0).members
        members += (a.grid_function((0, 3), 1, [1.0, 2.0, 3.0]),)
        edges = sorted({len(m.runs[0]) for m in members})
        assert edges == [2, 3, 4, 5, 9, 17]
        quadrature._family_profile(members, [F(1, 64)], a.ClampPower(1.0))
        # run-edge counts 2 | 3, 4 | 5 | 9 | 17: one pass each, padded to the
        # most edges of its members
        assert sorted(widths) == [2, 4, 5, 9, 17]


# ---------------------------------------------------------------------------
# the materialised common lattice against pointwise Fraction lookups
# ---------------------------------------------------------------------------

def _operand(fn, cells):
    """(start, spacing, cells) of a 1-d grid, as oracles.cell_value reads it."""
    return fn.box[0][0], fn.spacing[0], cells


def _pieces(*operands):
    """Neighbouring breakpoints over all cell edges of the operands."""
    points = sorted({a + i * h for a, h, cells in operands for i in range(len(cells) + 1)})
    return list(zip(points, points[1:]))


@st.composite
def _lattice_set(draw, den):
    """Bounded 1-d set whose box starts on the lattice 1/den."""
    h = F(draw(st.integers(1, 3)), den)
    n = draw(st.integers(1, 10))
    start = F(draw(st.integers(-4 * den, 4 * den)), den)
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return a.MeasurableSet(((start, start + n * h),), (h,), mask)


_SET_OPS = {
    "union": lambda x, y: x or y,
    "intersection": lambda x, y: x and y,
    "difference": lambda x, y: x and not y,
    "symmetric_difference": lambda x, y: x != y,
}


class TestCommonLattice:
    @given(_coprime_pair(), st.sampled_from(("add", "subtract")))
    def test_cell_values_are_pointwise_sums(self, fg, op):
        f, g = fg
        s = getattr(a, op)(f, g)
        (lo, hi), = s.box
        assert lo == min(f.box[0][0], g.box[0][0])
        assert hi == max(f.box[0][1], g.box[0][1])
        fo, go = _operand(f, f.values.tolist()), _operand(g, g.values.tolist())
        h = s.spacing[0]
        for i, got in enumerate(s.values.tolist()):
            mid = lo + (i + F(1, 2)) * h
            fv, gv = oracles.cell_value(*fo, mid), oracles.cell_value(*go, mid)
            assert got == (fv + gv if op == "add" else fv - gv)

    @given(_coprime_pair(), _TRANSFORMS)
    def test_materialised_difference_matches_the_sweep_bit_for_bit(self, fg, t):
        f, g = fg
        want = a.difference_integral(f, g, t)
        assert a.integrate_transformed(a.subtract(f, g), t).hex() == want.hex()

    @given(st.data(), st.sampled_from(sorted(_SET_OPS)))
    def test_set_algebra_measures_are_exact_cell_counts(self, data, op):
        A, B = (data.draw(_lattice_set(data.draw(st.sampled_from(_PRIMES)))) for _ in range(2))
        ao, bo = _operand(A, A.mask.tolist()), _operand(B, B.mask.tolist())
        want = F(0)
        for x0, x1 in _pieces(ao, bo):
            mid = (x0 + x1) / 2
            if _SET_OPS[op](bool(oracles.cell_value(*ao, mid)), bool(oracles.cell_value(*bo, mid))):
                want += x1 - x0
        assert getattr(A, op)(B).measure_fraction() == want


# ---------------------------------------------------------------------------
# two-dimensional integrals against exact per-value grouping
# ---------------------------------------------------------------------------

def _product(f, g):
    """The 2-d function (x, y) -> f(x) * g(y) on the product of two 1-d grids."""
    return a.grid_function(
        (f.box[0], g.box[0]), (f.spacing[0], g.spacing[0]), np.outer(f.values, g.values)
    )


def _float_transform(t, values):
    """T of every cell value; the catalog's exact value is a double here."""
    exact = _exact_transform(t)
    return np.array([float(exact(v)) for v in values.ravel().tolist()]).reshape(values.shape)


def _exact_groups(tvals, volume):
    """fsum over distinct T of T times the correctly rounded count * volume."""
    counts = {}
    for t in tvals.ravel().tolist():
        if t != 0.0:
            counts[t] = counts.get(t, 0) + 1
    return math.fsum(float(n * volume) * t for t, n in counts.items())


def _outside_2d(f, t, R, total=math.fsum):
    """Cells with no float overlap with [-R, R]**2 grouped exactly, plus the
    total of (area - overlap) * T over the cells partly inside."""
    overlaps = []
    for (lo, _), h, n in zip(f.box, f.spacing, f.counts):
        left = float(lo) + float(h) * np.arange(n)
        overlaps.append(np.clip(np.minimum(left + float(h), R) - np.maximum(left, -R), 0.0, None))
    inside = np.outer(*overlaps)
    area = float(f.spacing[0]) * float(f.spacing[1])
    tvals = _float_transform(t, f.values)
    partial = (inside > 0.0) & (inside < area)
    exact = _exact_groups(tvals[inside == 0.0], f.cell_volume)
    return exact + total(((area - inside) * tvals)[partial])


class TestGridIntegral2d:
    @given(_coprime_pair(), _TRANSFORMS)
    def test_cells_group_exactly_bit_for_bit(self, fg, t):
        f = _product(*fg)
        want = _exact_groups(_float_transform(t, f.values), f.cell_volume)
        assert a.integrate_transformed(f, t).hex() == want.hex()

    @given(_coprime_pair(), _TRANSFORMS, st.one_of(
        st.floats(0.0, 6.0), st.sampled_from((0.1, 0.3, 1 / 3, 0.5, 2.0))
    ))
    def test_outside_is_exact_groups_plus_fsum_of_partial_cells(self, fg, t, R):
        f = _product(*fg)
        assert a.integrate_transformed(f, t, a.Outside(R)).hex() == _outside_2d(f, t, R).hex()

    def test_partial_cells_are_summed_with_fsum(self):
        rng = np.random.default_rng(103)
        values = rng.normal(size=(24, 24)) * 10.0 ** rng.integers(-3, 4, size=(24, 24))
        f = a.grid_function(((F(-1), F(1)), (F(-1), F(1))), (F(1, 12), F(1, 12)), values)
        t, R = a.AbsPower(1.0), 0.3
        want = _outside_2d(f, t, R)
        # a plain float sum of the partial terms gives another float here
        assert _outside_2d(f, t, R, lambda terms: float(np.sum(terms))) != want
        assert a.integrate_transformed(f, t, a.Outside(R)).hex() == want.hex()


# ---------------------------------------------------------------------------
# pruned first-fit nets against the plain first-fit loop
# ---------------------------------------------------------------------------

_NET_PRIMES = (2, 3, 5, 7, 11, 13)


@st.composite
def _cell_values(draw, n):
    """n cell values tiled from a few drawn ones, so runs and repeats occur."""
    pool = st.sampled_from((0.0, 0.5, 1.0, -1.25, 3.0))
    vals = draw(st.lists(st.one_of(pool, st.floats(-4, 4, allow_nan=False)),
                         min_size=1, max_size=4))
    return np.resize(np.array(vals), n)


@st.composite
def _net_member(draw, tail, onset):
    """A member on the lattice 1/q: carrying the shared tail, or zero-tailed.

    Zero-tailed boxes start on an integer or mid-lattice and span whole
    units, so different members are disjoint, touching or overlapping;
    beside a live tail they end at or before its onset.
    """
    q = draw(st.sampled_from(_NET_PRIMES))
    h = F(1, q)
    if tail is not None and draw(st.booleans()):
        start = F(draw(st.integers(-onset - 2, -onset)))
        return a.grid_function((start, F(onset)), h, draw(_cell_values(int((onset - start) * q))), tail)
    start = draw(st.integers(-4, 3)) + draw(st.sampled_from((0, 0, draw(st.integers(1, q - 1))))) * h
    length = draw(st.integers(1, 2))
    if tail is not None:
        start = min(start, F(onset - length))
    return a.grid_function((start, start + length), h, draw(_cell_values(length * q)))


@st.composite
def _net_families(draw, tail_sups=(0.25, 1.0, 2.0, 8.0)):
    """1-7 members, zero-tailed or some sharing one power-law tail."""
    p = draw(_P)
    tail, onset = None, 0
    if draw(st.booleans()):
        onset = draw(st.integers(1, 3))
        exponent = draw(st.sampled_from((1.5, 2.0, 3.0)))
        coefficient = draw(st.sampled_from(tail_sups)) * onset**exponent
        tail = a.TailSpec.power_law(coefficient, exponent, onset)
    members = []
    for _ in range(draw(st.integers(1, 7))):
        if members and draw(st.integers(0, 4)) == 0:
            members.append(draw(st.sampled_from(members)))  # a repeat: distance 0
        else:
            members.append(draw(_net_member(tail, onset)))
    return a.FamilySpec(name="drawn", p=p, members=tuple(members),
                        indices=tuple(range(1, len(members) + 1)))


@st.composite
def _net_eps(draw, fam):
    """eps at random, or equal to a distance or to one of the pruning bounds."""
    p, ms = fam.p, fam.members
    f, g = draw(st.sampled_from(ms)), draw(st.sampled_from(ms))
    i_f, i_g = (a.integrate_transformed(m, a.ClampPower(p)) for m in (f, g))
    eps = draw(st.sampled_from((
        draw(st.floats(0.01, 4.0)),
        a.alpha_distance(f, g, p),
        abs(i_f ** (1 / p) - i_g ** (1 / p)),
        (i_f + i_g) ** (1 / p),
    )))
    return eps if eps > 0 else 0.5


def _bits(xs):
    return [x.hex() for x in xs]


class TestPrunedNets:
    @given(st.data())
    def test_greedy_net_and_profile_match_plain_first_fit(self, data):
        fam = data.draw(_net_families())
        eps = data.draw(_net_eps(fam))
        p, n = fam.p, len(fam)
        centers, assignment, distances = oracles.first_fit(
            fam.members, eps, lambda f, g: a.alpha_distance(f, g, p)
        )
        net = a.greedy_net(fam, eps)
        assert net.center_indices == tuple(c + 1 for c in centers)
        assert net.assignment == tuple(assignment)
        assert _bits(net.distances) == _bits(distances)
        Ks = range(1, n + 1)
        assert a.covering_profile(fam, eps, Ks) == [sum(c < K for c in centers) for K in Ks]

    @given(st.data())
    def test_truncation_lift_matches_plain_first_fit(self, data):
        fam = data.draw(_net_families())
        eta = data.draw(_net_eps(fam))
        p = fam.p
        try:
            net = a.truncation_lift_net(fam, eta)
        except a.LevelConditionError:
            return  # the cut search precedes the first-fit loop
        truncated = [a.truncate(m, net.extras["M"]) for m in fam.members]
        centers, assignment, _ = oracles.first_fit(
            truncated, eta / 2.0, lambda f, g: a.lp_distance(f, g, p)
        )
        assert net.center_indices == tuple(c + 1 for c in centers)
        assert net.assignment == tuple(assignment)
        lifted = [
            a.alpha_distance(m, truncated[centers[j]], p)
            for m, j in zip(fam.members, assignment)
        ]
        assert _bits(net.distances) == _bits(lifted)


# ---------------------------------------------------------------------------
# the witness searches' family kernels against the per-member functions
# ---------------------------------------------------------------------------

_KERNEL_TRANSFORMS = st.sampled_from((
    a.AbsPower(1.0), a.AbsPower(2.0), a.AbsPower(700.0), a.ClampPower(1.0),
    a.ClampPower(1.5), a.Threshold(0.5), a.Threshold(0.0),
))


@st.composite
def _scaled_function(draw):
    """Zero-tail function on the lattice 1/S, S on both sides of 2**53.

    Boxes start at an integer plus a few lattice steps, so for S near
    2**62 the edges pass the guard and the lattice is rejected.
    """
    S = draw(_SCALES)
    h = F(draw(st.integers(1, 3)), S)
    n = draw(st.integers(1, 6))
    start = draw(st.integers(-8, 8)) + F(draw(st.integers(0, 3)), S)
    return a.grid_function((start, start + n * h), h, draw(_cell_values(n)))


@st.composite
def _wide_function(draw):
    """Cells so long that the total lattice length reaches 2**53."""
    den = draw(st.sampled_from((1, 3, 96)))
    h = F(draw(st.integers(2**50, 2**52)), den)
    n = draw(st.integers(1, 6))
    return a.grid_function((-h, (n - 1) * h), h, draw(_cell_values(n)))


@st.composite
def _straddling_function(draw):
    """A constant run over (-w, w): one run holds both -R and R for R < w."""
    den = draw(st.sampled_from(_PRIMES + (96,)))
    w = draw(st.integers(1, 12))
    values = [draw(st.sampled_from((0.5, -1.25, 3.0)))] * (2 * w)
    return a.grid_function((F(-w, den), F(w, den)), F(1, den), values)


@st.composite
def _kernel_family(draw):
    """1-4 members: batchable ones, and 2-d ones and those on lattices past
    2**53, for which the batch gate refuses the family."""
    def member():
        den = draw(st.sampled_from(_PRIMES + (96,)))
        return draw(st.one_of(
            _lattice_function(den), _tailed_function(den), _straddling_function(),
            _scaled_function(), _wide_function(), _coprime_pair().map(lambda fg: _product(*fg)),
        ))

    return [member() for _ in range(draw(st.integers(1, 4)))]


def _run_edges(members):
    """Left edge, right edge and midpoint of every run of the 1-d members,
    and half the distance to 0 from a run's nearer end."""
    out = []
    for m in members:
        if m.dim != 1:
            continue
        bounds, _ = m.runs
        (lo, _), = m.box
        edges = [float(lo + int(b) * m.spacing[0]) for b in bounds]
        for l, r in zip(edges[:-1], edges[1:]):
            out += [abs(l), abs(r), abs(0.5 * (l + r)), 0.5 * min(abs(l), abs(r))]
    return out


def _outcome(values):
    """The bits of every value, or the error the computation raised."""
    try:
        return _bits(values())
    except a.GridError as e:
        return type(e), str(e)


def _batchable(m) -> bool:
    """Whether the kernels' batch gate admits m: 1-d, with a lattice scale
    and a total lattice length below 2**53."""
    if m.dim != 1:
        return False
    (lo, hi), = m.box
    S = math.lcm(lo.denominator, m.spacing[0].denominator)
    return S < 2**53 and (hi - lo) * S < 2**53


def _outside_kernel(members, t):
    return quadrature._outside_kernel(members, t, quadrature._family_runs(members))


def _level_kernel(members):
    return quadrature._level_kernel(members, quadrature._family_runs(members))


class TestFamilyKernels:
    """Both kernels answer every candidate as the per-member calls do."""

    @staticmethod
    @np.errstate(over="ignore")  # AbsPower(700) overflows on either side
    def _check(build, single, members, candidates):
        try:
            kernel = build(members)
        except a.GridError as e:
            # the lattice is rejected when the kernel is built; the
            # per-member call rejects it at the first candidate it sweeps
            with pytest.raises(a.GridError, match=re.escape(str(e))):
                for c in candidates:
                    [single(m, c) for m in members]
            return
        # the gate refuses exactly the families with a member it cannot
        # batch; their search takes the per-member calls, and the members
        # it admits still batch
        assert (kernel is not None) == all(map(_batchable, members))
        if kernel is None:
            members = [m for m in members if _batchable(m)]
            if not members:
                return
            kernel = build(members)
        for c in candidates:
            assert _outcome(lambda: kernel(c)) == _outcome(lambda: [single(m, c) for m in members])

    def _check_outside(self, t, members, radii):
        self._check(
            lambda ms: _outside_kernel(ms, t),
            lambda m, R: a.integrate_transformed(m, t, a.Outside(R)), members, radii,
        )

    @given(_kernel_family(), _KERNEL_TRANSFORMS, st.data())
    def test_outside_kernel_matches_integrate_transformed(self, members, t, data):
        radii = data.draw(st.lists(
            st.one_of(st.sampled_from(_run_edges(members) or [1.0]), st.floats(0.0, 16.0)),
            min_size=1, max_size=8,
        ))
        self._check_outside(t, members, radii)

    @given(_kernel_family(), st.data())
    def test_level_kernel_matches_superlevel_measure(self, members, data):
        # cuts equal to member values, |values| and the tail sups, and one
        # negative cut, where every measure is inf
        values = [float(v) for m in members for v in m.values.ravel()[:8]]
        values += [m.tail.sup() for m in members]
        cuts = [abs(v) for v in data.draw(st.lists(st.sampled_from(values), min_size=1, max_size=6))]
        self._check(_level_kernel, a.superlevel_measure, members, cuts + [-0.5])

    def test_integer_sums_past_2_53_take_the_per_member_call(self, monkeypatch):
        L, S = 3650211806964173, 2**53 + 1
        # a float division of these sums rounds away from the Fraction's
        assert float(3 * L) / 5 != float(F(3 * L, 5))
        assert 3 / float(S) != float(F(3, S))
        wide = a.grid_function((0, 3 * F(L, 5)), F(L, 5), [1.0, 2.0, 3.0])
        fine = a.grid_function((0, F(3, S)), F(1, S), [1.0, 2.0, 3.0])
        for members in ([wide], [fine], [wide, fine]):
            assert _level_kernel(members) is None
            assert _outside_kernel(members, a.ClampPower(1.0)) is None
        # the level search evaluates both members per cut, with no recount
        calls = []
        measure = criteria.superlevel_measure

        def spy(f, level):
            calls.append(level)
            return measure(f, level)

        monkeypatch.setattr(criteria, "superlevel_measure", spy)
        fam = a.FamilySpec("wide", 1.0, (wide, fine), (1, 2))
        out = a.check_level(fam, 0.5)
        assert out.verdict == "pass" and len(calls) == 2 * out.scan["evaluations"]
        worst = max(measure(m, out.witness) for m in (wide, fine))
        assert out.detail == f"worst superlevel measure {worst:.6g} < 0.5"

    def test_a_lattice_past_the_guard_raises_when_the_kernel_is_built(self):
        h = F(1, 2**61)
        f = a.grid_function((2, 2 + h), h, [1.0])  # left edge 2**62 on 1/2**61
        with pytest.raises(a.GridError):
            _outside_kernel([f], a.ClampPower(1.0))
        with pytest.raises(a.GridError):
            _level_kernel([f])
        # and the per-member calls raise the same error
        self._check_outside(a.ClampPower(1.0), [f], [1.0])
        self._check(_level_kernel, a.superlevel_measure, [f], [0.5])

    def test_zero_outside_mass_of_an_overflowing_group_is_no_nan(self):
        f = a.grid_function((-1, 1), F(1, 4), [0.5, 0.5, 3.0, 3.0, 3.0, 3.0, 0.5, 0.5])
        t = a.AbsPower(700.0)  # 3**700 overflows to inf
        with np.errstate(over="ignore"):
            kernel = _outside_kernel([f], t)
            for R in (0.5, 0.25, 2.0):
                assert _bits(kernel(R)) == _bits([a.integrate_transformed(f, t, a.Outside(R))])
        assert not math.isnan(kernel(0.5)[0])
        assert math.isinf(kernel(0.25)[0])
