"""Covering nets: greedy construction, verification, profiles, lift."""
import math
from fractions import Fraction as F

import numpy as np
import pytest

import asymlp as a
import oracles
from asymlp import nets


class TestGreedy:
    def test_every_member_covered_strictly(self, corpus):
        for name, fam in corpus.items():
            for eps in (0.25, 0.5, 1.0):
                net = a.greedy_net(fam, eps)
                check = a.verify_covering(fam, net)
                assert check.passed, f"{name} eps={eps}"
                assert check.max_distance < eps

    def test_deterministic(self):
        fam = a.u_family(6, 1.0)
        n1 = a.greedy_net(fam, 0.5)
        n2 = a.greedy_net(fam, 0.5)
        assert n1.center_indices == n2.center_indices
        assert n1.assignment == n2.assignment

    def test_first_member_is_first_center(self):
        fam = a.g_family(5)
        net = a.greedy_net(fam, 0.5)
        assert net.center_indices[0] == fam.indices[0]

    def test_huge_eps_gives_single_center(self, corpus):
        for name, fam in corpus.items():
            diam = float(np.max(a.pairwise_distances(fam)))
            net = a.greedy_net(fam, diam + 1.0)
            assert net.size == 1, name

    def test_eps_must_be_positive(self):
        with pytest.raises(a.GridError):
            a.greedy_net(a.g_family(3), 0.0)

    def test_greedy_never_beats_exhaustive_minimum(self, corpus):
        for name, fam in corpus.items():
            if len(fam) > 6:
                continue
            dm = a.pairwise_distances(fam)
            for eps in (0.25, 0.5, 1.0):
                best = oracles.minimal_cover_size(dm.tolist(), eps)
                got = a.greedy_net(fam, eps).size
                assert best <= got <= len(fam), f"{name} eps={eps}"


class TestVerify:
    def test_detects_bad_assignment(self):
        fam = a.g_family(4)
        net = a.greedy_net(fam, 0.5)
        # indicators are mutually at distance 2^(1/p): reassigning member 0
        # to a different center must fail
        if net.size > 1:
            tampered = a.EpsNet(
                eps=net.eps, p=net.p, method=net.method,
                center_indices=net.center_indices, centers=net.centers,
                assignment=(1,) + net.assignment[1:],
                distances=net.distances,
                max_assigned_distance=net.max_assigned_distance,
                extras=net.extras,
            )
            check = a.verify_covering(fam, tampered)
            assert not check.passed
            assert check.failures

    def test_rejects_wrong_arity(self):
        fam = a.g_family(4)
        net = a.greedy_net(fam, 0.5)
        with pytest.raises(a.GridError):
            a.verify_covering(fam.subfamily(2), net)

    def test_rejects_dangling_center(self):
        fam = a.g_family(3)
        net = a.greedy_net(fam, 0.5)
        bad = a.EpsNet(
            eps=net.eps, p=net.p, method=net.method,
            center_indices=net.center_indices, centers=net.centers,
            assignment=(net.size + 5,) * len(fam),
            distances=net.distances,
            max_assigned_distance=net.max_assigned_distance,
            extras=net.extras,
        )
        with pytest.raises(a.GridError):
            a.verify_covering(fam, bad)


class TestProfile:
    def test_escaping_indicators_grow_linearly(self):
        fam = a.g_family(8)
        sizes = a.covering_profile(fam, 0.5, [2, 5, 8])
        assert sizes == [2, 5, 8]

    def test_convergent_family_stabilises(self):
        fam = a.u_family(8, 1.0)
        sizes = a.covering_profile(fam, 0.5, [8, 32, 64])
        assert sizes[0] == sizes[1] == sizes[2] == 4

    def test_streams_past_materialised_members(self):
        fam = a.u_family(4, 1.0)  # only 4 members materialised
        sizes = a.covering_profile(fam, 0.5, [16])
        assert sizes == [4]


class TestTruncationLift:
    def test_lift_on_u_family(self):
        fam = a.u_family(32, 1.0)
        for eta in (0.5, 0.25):
            net = a.truncation_lift_net(fam, eta)
            assert net.method == "truncation-lift"
            check = a.verify_covering(fam, net)
            assert check.passed
            assert check.max_distance < eta
            assert net.extras["M"] > 1.0
            assert net.extras["worst_level_measure"] < (eta / 2) ** fam.p

    def test_lift_fails_on_growing_plateaus(self):
        fam = a.f_family(20, 1.0)
        with pytest.raises(a.LevelConditionError) as err:
            a.truncation_lift_net(fam, 0.5)
        assert err.value.offender_index >= 17
        assert err.value.offending_value == 1.0

    def test_lift_net_never_larger_than_family(self):
        fam = a.u_family(16, 1.0)
        net = a.truncation_lift_net(fam, 0.5)
        assert net.size <= len(fam)

    def test_worst_level_measure_is_measured_at_the_cut(self):
        fam = a.v_family(16, 2.0)
        # doubling cuts from 2 up to the first that passes, then 8 bisection steps
        for eta, evaluations in ((1.0, 2 + 8), (0.5, 4 + 8)):
            net = a.truncation_lift_net(fam, eta)
            M = net.extras["M"]
            worst = max(a.superlevel_measure(m, M) for m in fam.members)
            assert net.extras["worst_level_measure"] == worst
            assert worst < net.extras["level_budget"]
            assert net.extras["level_evaluations"] == evaluations

    def test_cut_rises_to_the_tail_sup(self):
        # the superlevel sets already fit the budget below M = 2, but the
        # tail 2*x**-1.5 from x = 1 cannot be truncated under its sup 2
        tail = a.TailSpec.power_law(2.0, 1.5, 1)
        f = a.grid_function((F(-1), F(1)), F(1, 2), [0.0] * 4, tail)
        fam = a.FamilySpec(name="tail", p=1.0, members=(f,), indices=(1,))
        for eta in (1.0, 0.5):
            net = a.truncation_lift_net(fam, eta)
            assert net.extras["M"] == 2.0
            assert a.verify_covering(fam, net).passed

    def test_raised_cut_is_recounted(self, monkeypatch):
        tail = a.TailSpec.power_law(2.0, 1.5, 1)
        f = a.grid_function((F(-1), F(1)), F(1, 2), [0.0] * 4, tail)
        fam = a.FamilySpec(name="tail", p=1.0, members=(f,), indices=(1,))
        level_kernel = nets._level_kernel

        def off_at_the_sup(members, runs):
            kernel = level_kernel(members, runs)
            return lambda M: [math.nextafter(v, math.inf) if M == 2.0 else v for v in kernel(M)]

        monkeypatch.setattr(nets, "_level_kernel", off_at_the_sup)
        with pytest.raises(a.GridError, match="recounts"):
            a.truncation_lift_net(fam, 1.0)


def _comparisons(centers, assignment, _distances) -> int:
    """First-fit comparisons: a new center meets every earlier one, a hit stops."""
    return sum(j if i in centers else j + 1 for i, j in enumerate(assignment))


class TestPruning:
    def test_touching_indicators_reach_the_sweep_at_their_distance(self):
        # adjacent unit indicators are exactly 2.0 apart and the disjoint-box
        # bound equals that distance, so these pairs cannot be skipped
        fam = a.g_family(8)
        assert a.covering_profile(fam, 2.0, [8]) == [8]
        assert a.covering_profile(fam, math.nextafter(2.0, 3.0), [8]) == [1]
        net = a.greedy_net(fam, math.nextafter(2.0, 3.0))
        assert net.size == 1
        assert net.extras == {"distances_computed": 7, "distances_pruned": 0}

    def test_far_indicators_need_no_distance_call(self):
        net = a.greedy_net(a.g_family(8), 0.5)
        assert net.size == 8
        assert net.extras == {"distances_computed": 0, "distances_pruned": 28}

    def test_counts_cover_every_first_fit_comparison(self, corpus):
        for name, fam in corpus.items():
            net = a.greedy_net(fam, 0.5)
            ref = oracles.first_fit(
                fam.members, 0.5, lambda f, g: a.alpha_distance(f, g, fam.p)
            )
            e = net.extras
            assert e["distances_computed"] + e["distances_pruned"] == _comparisons(*ref), name

    def test_lift_counts_cover_every_first_fit_comparison(self):
        fam = a.u_family(16, 1.0)
        net = a.truncation_lift_net(fam, 0.5)
        truncated = [a.truncate(m, net.extras["M"]) for m in fam.members]
        ref = oracles.first_fit(truncated, 0.25, lambda f, g: a.lp_distance(f, g, 1.0))
        e = net.extras
        assert e["distances_computed"] > 0
        assert e["distances_computed"] + e["distances_pruned"] == _comparisons(*ref)

    def test_distinct_power_law_tails_still_raise(self):
        box, h = (F(-1), F(1)), F(1, 2)
        f = a.grid_function(box, h, [0.0, 0.0, 0.0, 0.0], a.TailSpec.power_law(1.0, 2.0, 1))
        g = a.grid_function(box, h, [9.0, 9.0, 9.0, 9.0], a.TailSpec.power_law(2.0, 2.0, 1))
        fam = a.FamilySpec(name="tails", p=1.0, members=(f, g), indices=(1, 2))
        with pytest.raises(a.IncompatibleGridsError):
            a.greedy_net(fam, 0.1)

    def test_pruned_pair_never_builds_its_lattice(self):
        # each member sits on its own small lattice, but the common lattice
        # 1/((2**32 + 1) * (2**31 - 1)) puts the second box past 2**62
        q1, q2 = 2**32 + 1, 2**31 - 1
        f = a.grid_function((F(0), F(1, q1)), F(1, q1), [1.0])
        g = a.grid_function((F(1), 1 + F(1, q2)), F(1, q2), [1.0])
        with pytest.raises(a.GridError):
            a.alpha_distance(f, g, 1.0)
        fam = a.FamilySpec(name="fine", p=1.0, members=(f, g), indices=(1, 2))
        net = a.greedy_net(fam, 1e-10)  # disjoint boxes: d = 1/q1 + 1/q2 > eps
        assert net.center_indices == (1, 2)
        assert net.extras == {"distances_computed": 0, "distances_pruned": 1}
        assert a.covering_profile(fam, 1e-10, [2]) == [2]
        assert a.verify_covering(fam, net).passed
