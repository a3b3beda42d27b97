"""JSON serialization: exact round-trips, run-length values, determinism."""
import json
from fractions import Fraction as F

import numpy as np
import pytest

import asymlp as a


class TestFunctionRoundTrip:
    def test_plain_values(self):
        f = a.grid_function((F(0), F(1)), F(1, 4), [1.0, -2.5, 0.0, 3.25])
        g = a.function_from_dict(a.function_to_dict(f))
        assert g.box == f.box and g.spacing == f.spacing
        assert np.array_equal(g.values, f.values)
        assert g.tail == f.tail

    def test_repr_exact_floats(self):
        ugly = [0.1, 1 / 3, 2**-52, 1e300]
        f = a.grid_function((F(0), F(1)), F(1, 4), ugly)
        g = a.function_from_dict(a.function_to_dict(f))
        assert list(g.values) == list(f.values)  # bit-exact

    def test_rle_used_for_long_runs(self):
        f = a.family_f(3, 1.0)  # 16 equal cells
        d = a.function_to_dict(f)
        assert d["values"]["encoding"] == "rle"
        g = a.function_from_dict(d)
        assert np.array_equal(g.values, f.values)

    def test_signed_zeros_round_trip(self):
        f = a.grid_function((F(0), F(1)), F(1, 8), [0.0, -0.0, 0, 0, 0, 0, 1, 1])
        g = a.function_from_dict(a.function_to_dict(f))
        assert g.values.view(np.uint64).tolist() == f.values.view(np.uint64).tolist()

    def test_plain_used_for_distinct_values(self):
        f = a.grid_function((F(0), F(1)), F(1, 4), [1.0, 2.0, 3.0, 4.0])
        assert a.function_to_dict(f)["values"]["encoding"] == "plain"

    def test_tail_round_trip(self):
        v = a.family_v(6, 2.0)
        g = a.function_from_dict(a.function_to_dict(v))
        assert g.tail == v.tail
        assert a.alpha_norm(g, 2.0) == a.alpha_norm(v, 2.0)

    def test_2d_round_trip(self):
        f = a.grid_function(((F(0), F(1)), (F(-1), F(1))), (F(1, 2), F(1, 2)),
                            np.arange(8.0).reshape(2, 4))
        g = a.function_from_dict(a.function_to_dict(f))
        assert g.box == f.box
        assert np.array_equal(g.values, f.values)

    def test_fraction_strings(self):
        f = a.grid_function((F(-1, 3), F(2, 3)), F(1, 3), [1.0, 2.0, 3.0])
        d = a.function_to_dict(f)
        assert d["box"] == [["-1/3", "2/3"]]
        assert d["spacing"] == ["1/3"]

    def test_corrupt_payload_rejected(self):
        f = a.family_g(2)
        d = a.function_to_dict(f)
        d["values"]["data"] = [[15, 1.0]]  # one cell short
        with pytest.raises(a.GridError):
            a.function_from_dict(d)


class TestFamilyAndReports:
    def test_family_round_trip(self, corpus):
        fam = corpus["u-p1"]
        back = a.family_from_dict(a.family_to_dict(fam))
        assert back.name == fam.name and back.p == fam.p
        assert back.indices == fam.indices
        for m1, m2 in zip(fam.members, back.members):
            assert np.array_equal(m1.values, m2.values)

    def test_report_dict_is_json_ready(self):
        rep = a.full_report(a.g_family(4), [0.5])
        blob = json.dumps(a.report_to_dict(rep))
        parsed = json.loads(blob)
        assert parsed["kind"] == "condition_report"
        assert len(parsed["entries"]) == 5

    def test_net_dict_with_and_without_centers(self):
        fam = a.g_family(4)
        net = a.greedy_net(fam, 0.5)
        lean = a.net_to_dict(net)
        full = a.net_to_dict(net, include_centers=True)
        assert "centers" not in lean
        assert len(full["centers"]) == net.size

    def test_save_and_load(self, tmp_path):
        fam = a.spike_family(3, 1.0)
        path = tmp_path / "fam.json"
        a.save_json(a.family_to_dict(fam), path)
        back = a.load_family(path)
        assert back.name == "spike"
        f = fam.members[0]
        fpath = tmp_path / "fn.json"
        a.save_json(a.function_to_dict(f), fpath)
        assert np.array_equal(a.load_function(fpath).values, f.values)

    def test_wrong_kind_rejected(self, tmp_path):
        fam = a.spike_family(3, 1.0)
        path = tmp_path / "fam.json"
        a.save_json(a.family_to_dict(fam), path)
        with pytest.raises(a.GridError):
            a.load_function(path)


class TestDeterminism:
    def test_byte_identical_serialization(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for path in (p1, p2):
            rep = a.full_report(a.u_family(6, 1.0), [0.5, 0.25])
            a.save_json(a.report_to_dict(rep), path)
        assert p1.read_bytes() == p2.read_bytes()
