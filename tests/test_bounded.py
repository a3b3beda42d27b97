"""Bounded-domain certificates and the crosscheck table."""
import math
from fractions import Fraction as F

import numpy as np
import pytest

import asymlp as a


class TestEquibounded:
    def test_lipschitz_passes_with_empty_exception_set(self):
        fam = a.lipschitz_family(4)
        cert = a.almost_equibounded_certificate(fam, 0.25)
        assert cert.passed
        assert cert.M >= 1.0
        assert all(mu < 0.25 for mu in cert.exceptional.measures)

    def test_rademacher_passes_at_level_one(self):
        fam = a.h_family(5)
        cert = a.almost_equibounded_certificate(fam, 0.25)
        assert cert.passed

    def test_spikes_pass_via_small_exceptional_sets(self):
        fam = a.spike_family(6, 1.0)
        cert = a.almost_equibounded_certificate(fam, 0.5)
        assert cert.passed
        # the k-th spike needs its support {measure 1/k**2} excised
        assert cert.exceptional.measures[-1] <= 1 / 36 + 1e-15

    def test_fails_when_eps_too_small(self):
        fam = a.f_family(10, 1.0)
        # each f_k exceeds every scanned level on measure 1: there is no
        # admissible cut, so the certificate comes back failed
        cert = a.almost_equibounded_certificate(fam, 0.5)
        assert not cert.passed
        assert cert.M is None


class TestEquicontinuity:
    def test_lipschitz_passes(self):
        fam = a.lipschitz_family(4)
        cert = a.almost_equicontinuity_certificate(fam, 0.25, F(1, 8))
        assert cert.passed

    def test_rademacher_fails(self):
        fam = a.h_family(5)
        cert = a.almost_equicontinuity_certificate(fam, 0.25, F(1, 32))
        assert not cert.passed
        assert cert.offender_index is not None

    def test_adjacent_jump_fails_on_the_oscillation_measure(self):
        f = a.grid_function((F(0), F(1)), F(1, 4), [0.0, 0.0, 5.0, 5.0])
        fam = a.FamilySpec(name="step", p=1.0, members=(f,), indices=(1,))
        cert = a.almost_equicontinuity_certificate(fam, 0.2, F(1, 4))
        assert not cert.passed
        # the two cells at the jump make up B_f
        assert cert.detail == "|B_f| = 0.5 >= 0.2 for member 1"
        assert cert.offender_index == 1
        assert cert.offender_pair is None and cert.offender_values is None

    def test_delta_below_spacing_rejected(self):
        fam = a.lipschitz_family(2)  # spacing 1/64
        with pytest.raises(a.GridError):
            a.almost_equicontinuity_certificate(fam, 0.25, F(1, 128))

    def test_requires_bounded_members(self):
        fam = a.v_family(3, 2.0)
        with pytest.raises(a.GridError):
            a.almost_equicontinuity_certificate(fam, 0.25, F(1, 256))


class TestSlidingExtreme:
    def test_matches_scipy_nearest_filters(self):
        ndimage = pytest.importorskip("scipy.ndimage")
        from asymlp.bounded import _sliding_extreme

        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 5, 8, 13, 64):
            for v in (rng.normal(size=n), rng.integers(-3, 4, size=n).astype(float)):
                for W in (1, 2, 3, n // 2, n - 1, n, 2 * n + 5):
                    W = max(W, 1)
                    size = 2 * W + 1
                    hi = ndimage.maximum_filter1d(v, size=size, mode="nearest")
                    lo = ndimage.minimum_filter1d(v, size=size, mode="nearest")
                    assert np.array_equal(_sliding_extreme(v, W, np.maximum), hi), (n, W)
                    assert np.array_equal(_sliding_extreme(v, W, np.minimum), lo), (n, W)


class TestConvergenceInMeasure:
    def test_spikes_converge(self):
        fam = a.spike_family(8, 1.0)
        zero = a.constant(0.0, (F(0), F(1)), F(1))
        rep = a.convergence_in_measure(fam, zero, eps=0.5, tol=0.1)
        assert rep.converged
        assert rep.distances[-1] == pytest.approx(1 / 64, abs=1e-15)

    def test_rademacher_does_not_converge(self):
        fam = a.h_family(5)
        zero = a.constant(0.0, (F(0), F(1)), F(1))
        rep = a.convergence_in_measure(fam, zero, eps=0.5, tol=0.1)
        assert not rep.converged
        assert all(m == 1.0 for m in rep.distances)

    def test_agrees_with_alpha_verdict_on_corpus(self, corpus):
        zero = a.constant(0.0, (F(0), F(1)), F(1))
        pairs = 0
        for name, fam in corpus.items():
            if any(not m.tail.is_zero for m in fam.members):
                continue
            for limit in (zero, fam.members[0], fam.members[-1]):
                in_measure = a.convergence_in_measure(fam, limit, eps=0.2, tol=0.2)
                in_alpha = a.alpha_converges(fam, limit, fam.p, tol=0.2)
                assert in_measure.converged == in_alpha.converged, name
                pairs += 1
        assert pairs >= 20


class TestCorollary:
    def test_lipschitz_row_observes_both_implications(self):
        rep = a.corollary_crosscheck(a.lipschitz_family(4), [0.5], [F(1, 16)])
        row = rep.rows[0]
        assert row.cert_passed
        assert row.translation_passed
        assert row.implication_a_observed
        assert row.net_size >= 1

    def test_rademacher_row_documents_incompleteness(self):
        rep = a.corollary_crosscheck(a.h_family(4), [0.5], [F(1, 32)])
        row = rep.rows[0]
        assert not row.cert_passed
        assert not row.translation_passed
        assert row.implication_a_observed  # vacuously: no certificate
        assert not row.implication_b_observed  # net exists, certificate fails

    def test_rows_match_per_row_recomputation(self):
        fam = a.lipschitz_family(3)
        eps_list, deltas = [0.5, 0.25], [F(1, 16), F(1, 8), F(1, 4)]
        rep = a.corollary_crosscheck(fam, eps_list, deltas)
        assert [(r.eps, r.delta) for r in rep.rows] == [
            (e, float(d)) for e in eps_list for d in deltas
        ]
        step = a.ShiftLattice.default_for(fam).step
        sym = a.symmetric_difference_decay(fam.members[0], [step])[0][1]
        for r in rep.rows:
            assert r.net_size == a.greedy_net(fam, r.eps).size
            assert r.sym_diff_first_shift == sym

    def test_p_must_be_one(self):
        with pytest.raises(a.GridError):
            a.corollary_crosscheck(a.f_family(3, 2.0), [0.5], [F(1, 16)])

    def test_delta_below_spacing_rejected(self):
        fam = a.lipschitz_family(2)  # spacing 1/64
        with pytest.raises(a.GridError, match="below the spacing"):
            a.corollary_crosscheck(fam, [0.5], [F(1, 128)])

    def test_table_renders(self):
        rep = a.corollary_crosscheck(a.lipschitz_family(2), [0.5], [F(1, 16)])
        text = str(rep)
        assert "eps" in text and "delta" in text


class TestSymmetricDifference:
    def test_decay_is_twice_shift(self):
        domain = a.constant(1.0, (F(0), F(1)), F(1, 16))
        rows = a.symmetric_difference_decay(domain, [F(1, 16), F(1, 8), F(1, 4)])
        for y, measure in rows:
            assert measure == pytest.approx(2 * y, abs=0)
