"""Trace-free symmetric tensor combinatorics."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from momentbc import tensor


def test_canonical_sorts_labels():
    assert tensor.canonical(("y", "x")) == ("x", "y")
    assert tensor.canonical("zyx") == ("x", "y", "z")
    assert tensor.canonical(()) == ()


def test_canonical_rejects_bad_axis():
    with pytest.raises(ValueError):
        tensor.canonical(("x", "q"))


def test_multisets_count():
    # rank n has C(n+2, 2) distinct multisets over three axes
    for n in range(8):
        assert len(tensor.multisets(n)) == math.comb(n + 2, 2)


def test_multiplicity_values():
    assert tensor.multiplicity(()) == 1
    assert tensor.multiplicity(("x", "y")) == 2
    assert tensor.multiplicity(("x", "x", "y")) == 3
    assert tensor.multiplicity(("x", "y", "z")) == 6


def test_multiplicities_cover_all_orderings():
    for n in range(7):
        total = sum(tensor.multiplicity(t) for t in tensor.multisets(n))
        assert total == 3 ** n


def test_independent_component_counts():
    # 2n+1 free components in 3D, n+1 once z-odd fields are dropped
    for n in range(8):
        assert len(tensor.independent_components(n, "full3d")) == 2 * n + 1
        assert len(tensor.independent_components(n, "planar")) == n + 1


def test_independent_components_z_budget():
    for n in range(1, 6):
        full = tensor.independent_components(n, "full3d")
        assert all(t.count("z") <= 1 for t in full)
        flat = tensor.independent_components(n, "planar")
        assert all("z" not in t for t in flat)


def test_rank2_planar_selection():
    assert tensor.independent_components(2, "planar") == [
        ("x", "x"), ("x", "y"), ("y", "y")]


def test_rank3_planar_selection():
    assert tensor.independent_components(3, "planar") == [
        ("x", "x", "x"), ("x", "x", "y"), ("x", "y", "y"), ("y", "y", "y")]


def test_rank0_is_trivial():
    assert tensor.independent_components(0, "full3d") == [()]
    kept, E, w = tensor._expansion(0, "full3d")
    assert kept == ((),)
    assert E.tolist() == [[1.0]]
    assert w.tolist() == [1.0]


def test_negative_rank_rejected():
    with pytest.raises(ValueError):
        tensor.independent_components(-1)


def test_reduction_name_validated():
    with pytest.raises(ValueError):
        tensor.independent_components(2, "spherical")


def test_trace_expansion_zz_row():
    exp = tensor.trace_expansion(2, "planar")
    assert exp[("z", "z")] == {("x", "x"): Fraction(-1), ("y", "y"): Fraction(-1)}


def test_trace_expansion_xzz_row():
    exp = tensor.trace_expansion(3, "planar")
    assert exp[("x", "z", "z")] == {("x", "x", "x"): Fraction(-1),
                                    ("x", "y", "y"): Fraction(-1)}


def test_planar_kills_odd_z_components():
    exp = tensor.trace_expansion(3, "planar")
    assert exp[("x", "y", "z")] == {}
    assert exp[("z", "z", "z")] == {}


def test_full3d_keeps_single_z():
    exp = tensor.trace_expansion(3, "full3d")
    assert exp[("x", "y", "z")] == {("x", "y", "z"): Fraction(1)}
    # zzz eliminates one z pair: T_zzz = -T_xxz - T_yyz
    assert exp[("z", "z", "z")] == {("x", "x", "z"): Fraction(-1),
                                    ("y", "y", "z"): Fraction(-1)}


def fraction_trace_expansion(n, reduction):
    """Oracle: the trace constraint resolved recursively on Fractions."""
    zmax = 1 if reduction == "full3d" else 0

    def expand(m):
        zc = m.count("z")
        if reduction == "planar" and zc % 2:
            return {}
        if zc <= zmax:
            return {m: Fraction(1)}
        base = tuple(a for a in m if a != "z") + ("z",) * (zc - 2)
        res = {}
        for rep in ("x", "y"):
            for comp, c in expand(tensor.canonical(base + (rep, rep))).items():
                res[comp] = res.get(comp, Fraction(0)) - c
        return {k: v for k, v in res.items() if v}

    return {m: expand(m) for m in tensor.multisets(n)}


def test_trace_expansion_integers_match_fraction_oracle():
    for n in range(11):
        for red in tensor.REDUCTIONS:
            exp = tensor.trace_expansion(n, red)
            assert exp == fraction_trace_expansion(n, red), (n, red)
            assert all(type(v) is int for row in exp.values() for v in row.values())


def multiset_rows(n, reduction):
    """Rows of E for every rank-n multiset; those the expansion drops are zero."""
    kept, E, _ = tensor._expansion(n, reduction)
    rows = dict(zip(kept, E))
    return {m: rows.get(m, np.zeros(E.shape[1])) for m in tensor.multisets(n)}


def test_expansion_identity_on_representatives():
    # the independent multisets are their own coordinates
    for n in range(6):
        for red in tensor.REDUCTIONS:
            kept, E, _ = tensor._expansion(n, red)
            indep = tensor.independent_components(n, red)
            rows = [kept.index(t) for t in indep]
            np.testing.assert_array_equal(E[rows, :], np.eye(len(indep)))


def test_expansion_matches_trace_expansion():
    for n in range(6):
        for red in tensor.REDUCTIONS:
            kept, E, w = tensor._expansion(n, red)
            expand = tensor.trace_expansion(n, red)
            indep = tensor.independent_components(n, red)
            for m, row, wm in zip(kept, E, w):
                assert wm == tensor.multiplicity(m)
                assert {c: v for c, v in zip(indep, row) if v} == expand[m]


def test_weighted_gram_sums_over_ordered_tuples():
    # E^T diag(w) E is the Gram matrix of the expansion over all 3^n tuples
    for n in range(5):
        for red in tensor.REDUCTIONS:
            _, E, w = tensor._expansion(n, red)
            rows = multiset_rows(n, red)
            full = np.array([rows[tensor.canonical(t)]
                             for t in itertools.product(tensor.AXES, repeat=n)])
            np.testing.assert_array_equal((E.T * w) @ E, full.T @ full)


def test_trace_contractions_vanish():
    # contracting any pair of indices must produce the zero tensor
    for n in range(2, 8):
        for red in tensor.REDUCTIONS:
            rows = multiset_rows(n, red)
            for m in tensor.multisets(n - 2):
                acc = sum(rows[tensor.canonical(m + (a, a))] for a in tensor.AXES)
                assert np.abs(acc).max() < 1e-12, (n, red, m)


def test_planar_odd_z_rows_are_zero():
    for n in (1, 2, 3, 4):
        kept, _, _ = tensor._expansion(n, "planar")
        expand = tensor.trace_expansion(n, "planar")
        for t in tensor.multisets(n):
            if t.count("z") % 2:
                assert t not in kept
                assert expand[t] == {}
            else:
                assert t in kept
        assert set(tensor._expansion(n, "full3d")[0]) == set(tensor.multisets(n))


def test_parity_follows_axis_count():
    assert tensor.parity(("x",), "x") == "odd"
    assert tensor.parity(("x", "x"), "x") == "even"
    assert tensor.parity(("x", "y"), "y") == "odd"
    assert tensor.parity((), "z") == "even"
    assert tensor.parity(("x", "y", "y"), "y") == "even"
