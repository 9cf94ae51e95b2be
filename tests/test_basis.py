"""Basis polynomials and Gaussian-weighted inner products."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval3d
from scipy import integrate

from momentbc import basis
from momentbc.basis import (_AXIS_INDEX, _full_moment, _gram, _half_moment,
                            _r2_power, basis_polynomial, build_basis_set,
                            harmonic_tensor, laguerre_coefficients,
                            verify_orthogonality)
from momentbc.system import (assemble_flux, assemble_symmetrizer, grad_theory,
                             verify_full_symmetry)
from momentbc.tensor import _expansion, independent_components, multisets

SQRT_2PI = math.sqrt(2.0 * math.pi)


def mono(i, j, k, c=1.0):
    """Coefficient array of c xi_x^i xi_y^j xi_z^k."""
    out = np.zeros((i + 1, j + 1, k + 1))
    out[i, j, k] = c
    return out


ONE = mono(0, 0, 0)


def terms(c):
    """Nonzero coefficients of an array as {(i, j, k): value}."""
    return {tuple(int(v) for v in e): c[tuple(e)] for e in np.argwhere(c)}


def degree(c):
    return max(sum(e) for e in terms(c))


def inner(p, q, half=None):
    """Gaussian inner product, over the half space xi_half > 0 if given."""
    return float(_gram(p[None], q[None], half=half)[0, 0])


def reflected(c, axis):
    """Coefficients of the image under xi_axis -> -xi_axis."""
    a = "xyz".index(axis)
    signs = (-1.0) ** np.arange(c.shape[a])
    return c * signs.reshape([-1 if b == a else 1 for b in range(3)])


def gauss_pdf(x):
    return math.exp(-0.5 * x * x) / SQRT_2PI


def test_full_moments_frozen():
    # unit Gaussian: mu2 = 1, mu4 = 3, mu6 = 15, odd moments vanish
    assert inner(ONE, ONE) == 1.0
    assert inner(mono(1, 0, 0), mono(1, 0, 0)) == 1.0
    assert inner(mono(2, 0, 0), mono(2, 0, 0)) == 3.0
    assert inner(mono(3, 0, 0), mono(3, 0, 0)) == 15.0
    assert inner(mono(1, 0, 0), ONE) == 0.0
    assert inner(mono(1, 1, 0), mono(1, 1, 0)) == 1.0


def test_full_moments_match_quadrature():
    for k in range(9):
        val = inner(mono(k, 0, 0), ONE)
        ref, _ = integrate.quad(lambda x: x ** k * gauss_pdf(x),
                                -np.inf, np.inf)
        assert abs(val - ref) < 1e-9 * max(1.0, abs(ref))


def test_half_moments_frozen():
    assert inner(ONE, ONE, "x") == 0.5
    assert np.isclose(inner(mono(1, 0, 0), ONE, "x"), 1.0 / SQRT_2PI)
    assert inner(mono(2, 0, 0), ONE, "x") == 0.5
    assert np.isclose(inner(mono(3, 0, 0), ONE, "x"), 2.0 / SQRT_2PI)
    # tangential axes keep full moments
    assert inner(mono(0, 2, 0), ONE, "x") == 0.5
    assert inner(mono(0, 1, 0), ONE, "x") == 0.0


def test_half_moments_match_quadrature():
    for k in range(8):
        val = inner(mono(k, 0, 0), ONE, "x")
        ref, _ = integrate.quad(lambda x: x ** k * gauss_pdf(x), 0.0, np.inf)
        assert abs(val - ref) < 1e-9 * max(1.0, abs(ref))


def test_half_plus_reflected_half_is_full():
    rng = np.random.default_rng(42)
    exps = [(i, j, k) for i in range(4) for j in range(4) for k in range(3)]

    def random_poly():
        c = np.zeros((4, 4, 3))
        for i in rng.choice(len(exps), size=4, replace=False):
            c[exps[i]] = rng.standard_normal()
        return c

    for axis in ("x", "y", "z"):
        for _ in range(10):
            p = random_poly()
            q = random_poly()
            lhs = inner(p, q, axis) + inner(reflected(p, axis), reflected(q, axis), axis)
            rhs = inner(p, q)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def loop_inner(p, q, half=None):
    """Oracle: one Gaussian moment per pair of monomials, summed in a loop."""
    total = 0.0
    for e1, c1 in terms(p).items():
        for e2, c2 in terms(q).items():
            factor = 1.0
            for name, i, j in zip("xyz", e1, e2):
                moment = _half_moment if name == half else _full_moment
                factor *= moment(i + j)
            total += c1 * c2 * factor
    return total


def times_axis(q, axis):
    """Coefficients of xi_axis * q (q itself when axis is None)."""
    if axis is None:
        return q
    return np.pad(q, [(1, 0) if name == axis else (0, 0) for name in "xyz"])


def random_polynomials(rng, count, degree=6):
    exps = [(i, j, k) for i in range(degree + 1) for j in range(degree + 1 - i)
            for k in range(degree + 1 - i - j)]
    out = np.zeros((count,) + (degree + 1,) * 3)
    for c in out[1:]:
        pick = rng.choice(len(exps), size=rng.integers(1, 9), replace=False)
        for i in pick:
            c[exps[i]] = rng.standard_normal()
    return out


@pytest.mark.parametrize("axis,half", [(None, None), ("x", None), ("y", None),
                                       ("z", None), (None, "x"), (None, "y")])
def test_gram_matches_loop_oracle(axis, half):
    rng = np.random.default_rng(7)
    ps = random_polynomials(rng, 12)
    qs = random_polynomials(rng, 9)
    ref = np.array([[loop_inner(p, times_axis(q, axis), half) for q in qs] for p in ps])
    G = _gram(ps, qs, axis=axis, half=half)
    assert G.shape == (12, 9)
    assert np.all(G[0] == 0.0) and np.all(G[:, 0] == 0.0)
    assert np.abs(G - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("normal", ["x", "y"])
@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_full3d_normal_flux_parity_blocks_exactly_zero(degree, normal):
    bs = build_basis_set(grad_theory(degree, "full3d"), normal)
    A = assemble_flux(bs, normal)
    n_o = bs.n_o
    assert np.all(A[:n_o, :n_o] == 0.0)
    assert np.all(A[n_o:, n_o:] == 0.0)
    assert np.abs(A[:n_o, n_o:]).max() > 0.5


def test_laguerre_frozen_coefficients():
    assert laguerre_coefficients(0, 0) == [1.0]
    c = laguerre_coefficients(0, 1)
    assert np.allclose(c, [math.sqrt(2.0 / 3.0) * 1.5, -math.sqrt(2.0 / 3.0)])


def test_laguerre_rejects_negative_orders():
    with pytest.raises(ValueError):
        laguerre_coefficients(-1, 0)
    with pytest.raises(ValueError):
        laguerre_coefficients(0, -2)


def fraction_laguerre(n, s):
    """Oracle: the radial coefficients with the norm and the ratios held as
    Fractions, cast to float only at the end."""
    norm_sq = Fraction(math.factorial(n) * math.factorial(s))
    for j in range(s):
        norm_sq *= Fraction(2 * (n + j) + 3, 2)
    norm = 1.0 / math.sqrt(float(norm_sq))
    coeffs = []
    for p in range(s + 1):
        ratio = Fraction(1)
        for j in range(p, s):
            ratio *= Fraction(2 * (n + j) + 3, 2)
        coeffs.append(norm * float(ratio) * (-1) ** p * math.comb(s, p))
    return coeffs


def test_laguerre_matches_fraction_oracle():
    # integer numerators over powers of two round exactly like the Fractions
    for n in range(30):
        for s in range(16):
            assert laguerre_coefficients(n, s) == fraction_laguerre(n, s), (n, s)


def test_radial_family_orthonormal():
    # scalar ladder: psi^(s) built from rank 0 radial polynomials
    polys = [basis_polynomial(0, s, ()) for s in range(4)]
    for a, pa in enumerate(polys):
        for b, pb in enumerate(polys):
            val = inner(pa, pb)
            assert abs(val - (1.0 if a == b else 0.0)) < 1e-12


def test_harmonic_tensor_values():
    assert terms(harmonic_tensor(())) == {(0, 0, 0): 1.0}
    assert terms(harmonic_tensor(("x",))) == {(1, 0, 0): 1.0}
    xx = harmonic_tensor(("x", "x"))
    assert np.isclose(xx[2, 0, 0], 2.0 / 3.0)
    assert np.isclose(xx[0, 2, 0], -1.0 / 3.0)
    assert np.isclose(xx[0, 0, 2], -1.0 / 3.0)
    assert terms(harmonic_tensor(("x", "y"))) == {(1, 1, 0): 1.0}


def test_harmonic_tensor_trace_free():
    trace = (harmonic_tensor(("x", "x")) + harmonic_tensor(("y", "y"))
             + harmonic_tensor(("z", "z")))
    assert terms(trace) == {}


def laplacian(c):
    out = np.zeros_like(c)
    for (i, j, k), v in terms(c).items():
        for d, e in (((i - 2, j, k), i * (i - 1)), ((i, j - 2, k), j * (j - 1)),
                     ((i, j, k - 2), k * (k - 1))):
            if e:
                out[d] += v * e
    return out


def test_harmonic_tensor_is_harmonic():
    # solid-harmonic property pins the whole construction
    for comp in (("x",), ("x", "y"), ("x", "x", "z"), ("x", "y", "y", "z"),
                 ("y", "y", "y", "y", "x")):
        res = laplacian(harmonic_tensor(comp))
        worst = np.abs(res).max()
        assert worst < 1e-12, comp


def fraction_harmonic(component):
    """Oracle: n-fold differentiation of 1/|xi| on Fraction terms
    c x^a y^b z^c |xi|^{-k}, times |xi|^{2n+1} (-1)^n / (2n-1)!!."""
    n = len(component)
    terms = {(0, 0, 0, 1): Fraction(1)}
    for axis in component:
        i = _AXIS_INDEX[axis]
        out = {}
        for (a, b, c, k), coef in terms.items():
            e = [a, b, c]
            if e[i]:
                key = (*(e[j] - (j == i) for j in range(3)), k)
                out[key] = out.get(key, Fraction(0)) + coef * e[i]
            key = (*(e[j] + (j == i) for j in range(3)), k + 2)
            out[key] = out.get(key, Fraction(0)) - coef * k
        terms = {key: v for key, v in out.items() if v}
    scale = Fraction((-1) ** n, math.prod(range(2 * n - 1, 0, -2)))
    poly = {}
    for (a, b, c, k), coef in terms.items():
        for (i, j, l), w in _r2_power((2 * n + 1 - k) // 2):
            e = (a + i, b + j, c + l)
            poly[e] = poly.get(e, Fraction(0)) + scale * coef * w
    out = np.zeros((n + 1,) * 3)
    for e, v in poly.items():
        out[e] = float(v)
    return out


def test_harmonic_tensor_matches_fraction_oracle():
    # the integer recurrence gives the same floats, bit for bit
    comps = [m for n in range(13) for m in multisets(n)]
    comps += [("x",) * 6 + ("y",) * 5 + ("z",) * 3,
              ("x",) * 7 + ("y",) * 2 + ("z",) * 7]
    for comp in comps:
        got, ref = harmonic_tensor(comp), fraction_harmonic(comp)
        assert got.tobytes() == ref.tobytes(), comp
        assert not got.flags.writeable


def loop_polynomial(n, s, component):
    """Oracle: one basis polynomial, each radial term added into its own
    array one slice at a time."""
    harmonic = harmonic_tensor(component)
    out = np.zeros((n + 2 * s + 1,) * 3)
    for p, c in enumerate(laguerre_coefficients(n, s)):
        for (i, j, k), w in _r2_power(p):
            out[i:i + n + 1, j:j + n + 1, k:k + n + 1] += ((c * 0.5 ** p) * w) * harmonic
    return out


def padded(arrays, degree):
    """Zero-pad coefficient arrays to one (count, D+1, D+1, D+1) stack."""
    out = np.zeros((len(arrays),) + (degree + 1,) * 3)
    for c, a in zip(out, arrays):
        c[:a.shape[0], :a.shape[1], :a.shape[2]] = a
    return out


def test_basis_polynomial_matches_loop_oracle():
    # one component of the block build is the per-slice sum, bit for bit
    for n in range(10):
        for s in range(5):
            for comp in multisets(n):
                got = basis_polynomial(n, s, comp)
                assert got.tobytes() == loop_polynomial(n, s, comp).tobytes(), (n, s, comp)
                assert not got.flags.writeable


@pytest.mark.parametrize("normal", ["x", "y"])
@pytest.mark.parametrize("degree,reduction",
                         [(d, "planar") for d in range(2, 13)]
                         + [(d, "full3d") for d in range(2, 10)])
def test_block_stacks_match_basis_polynomial(degree, reduction, normal):
    # polys and the multiset-level stack, built a (rank, radial) block at a
    # time, are the zero-padded one-component polynomials, bit for bit
    bs = build_basis_set(grad_theory(degree, reduction), normal)
    ref = padded([basis_polynomial(bf.rank, bf.radial, bf.component)
                  for bf in bs.entries], degree)
    assert bs.polys.shape == ref.shape and bs.polys.tobytes() == ref.tobytes()
    funcs = [(m, basis_polynomial(n, s, m))
             for n, s in bs.blocks() for m in _expansion(n, reduction)[0]]
    kept, P = bs.multiset_polys
    assert kept == tuple(m for m, _ in funcs)
    ref = padded([p for _, p in funcs], degree)
    assert P.shape == ref.shape and P.tobytes() == ref.tobytes()


def test_multiset_polys_held_once(monkeypatch):
    # the stack behind verify_full_symmetry is built on the first check and
    # read by the next axes: one block build per (rank, radial) pair
    calls = []
    block = basis._radial_block
    monkeypatch.setattr(basis, "_radial_block",
                        lambda *args: calls.append(args[:2]) or block(*args))
    bs = build_basis_set(grad_theory(6, "full3d"), "y")
    assert sorted(calls) == sorted(bs.blocks())  # polys
    calls.clear()
    reports = [verify_full_symmetry(bs, axis) for axis in ("x", "y", "z")]
    assert calls == list(bs.blocks())
    kept, P = bs.multiset_polys
    assert bs.multiset_polys[1] is P
    assert not P.flags.writeable
    with pytest.raises(ValueError):
        P[0, 0, 0, 0] = 1.0
    assert all(rep.ok and rep.max_odd_odd == 0.0 for rep in reports)


def test_basis_polynomial_degree_and_validation():
    assert degree(basis_polynomial(2, 1, ("x", "y"))) == 4
    assert terms(basis_polynomial(0, 0, ())) == {(0, 0, 0): 1.0}
    with pytest.raises(ValueError):
        basis_polynomial(2, 0, ("x",))


def test_rank2_gram_frozen():
    # family normalization: diagonal 2/3 and 1/2, cross entry -1/3
    xx = basis_polynomial(2, 0, ("x", "x"))
    yy = basis_polynomial(2, 0, ("y", "y"))
    xy = basis_polynomial(2, 0, ("x", "y"))
    assert np.isclose(inner(xx, xx), 2.0 / 3.0)
    assert np.isclose(inner(xx, yy), -1.0 / 3.0)
    assert np.isclose(inner(xy, xy), 0.5)
    assert inner(xx, xy) == 0.0


def test_unit_vector_and_temperature_moments():
    x1 = basis_polynomial(1, 0, ("x",))
    s1 = basis_polynomial(0, 1, ())
    assert np.isclose(inner(x1, x1), 1.0)
    assert np.isclose(inner(s1, s1), 1.0)
    # cross parity pairs integrate to zero
    assert inner(x1, s1) == 0.0


def test_basis_set_ordering_g20():
    bs = build_basis_set(grad_theory(3, "planar"), "x")
    assert bs.size == 13 and bs.n_o == 5 and bs.n_e == 8
    assert bs.names()[:5] == [
        "a_x^(0)", "a_xy^(0)", "a_x^(1)", "a_xxx^(0)", "a_xyy^(0)"]
    assert bs.names()[5:8] == ["a^(0)", "a_y^(0)", "a^(1)"]


def test_basis_set_normal_axis_validated():
    with pytest.raises(ValueError):
        build_basis_set(grad_theory(3, "planar"), "z")


def test_index_lookup():
    bs = build_basis_set(grad_theory(3, "planar"), "y")
    i = bs.index_of(1, 1, ("y",))
    assert bs.entries[i].name == "a_y^(1)"
    with pytest.raises(KeyError):
        bs.index_of(4, 0, ("x",) * 4)


def test_parity_signs_split():
    bs = build_basis_set(grad_theory(3, "planar"), "x")
    signs = bs.parity_signs("x")
    assert set(signs) == {-1.0, 1.0}
    assert (signs[:bs.n_o] == -1.0).all()
    assert (signs[bs.n_o:] == 1.0).all()


def test_declared_parity_matches_numeric_sign_flip():
    bs = build_basis_set(grad_theory(3, "planar"), "x")
    rng = np.random.default_rng(3)
    x, y, z = rng.standard_normal((3, 20))
    for c, sx, sy in zip(bs.polys, bs.parity_signs("x"), bs.parity_signs("y")):
        vals = polyval3d(x, y, z, c)
        np.testing.assert_allclose(polyval3d(-x, y, z, c), sx * vals, atol=1e-12)
        np.testing.assert_allclose(polyval3d(x, -y, z, c), sy * vals, atol=1e-12)


@pytest.mark.parametrize("degree,reduction", [
    (2, "planar"), (3, "planar"), (3, "full3d"), (5, "planar"),
    (8, "planar"), (10, "planar"), (7, "full3d"), (10, "full3d")])
def test_reconstruction_identity(degree, reduction):
    bs = build_basis_set(grad_theory(degree, reduction), "x")
    rep = verify_orthogonality(bs)
    assert rep.ok
    assert rep.max_deviation < 1e-12
    assert rep.matrix.shape == (bs.size, bs.size)


@pytest.mark.parametrize("degree,reduction", [(4, "planar"), (4, "full3d")])
def test_expansion_weights_held_once(degree, reduction):
    bs = build_basis_set(grad_theory(degree, reduction), "y")
    W = bs.expansion_weights
    assert W is bs.expansion_weights
    assert not W.flags.writeable
    assert np.array_equal(W, np.round(W))
    assert np.array_equal(W, 2.0 * assemble_symmetrizer(bs))


def multiset_reconstruction(bs):
    """Oracle: the reconstruction behind each moment summed over every
    kept multiset, (w E)^T [basis_polynomial(n, s, m) for m in kept]."""
    out = np.zeros_like(bs.polys)
    reduction = bs.theory.reduction
    for (n, s), cols in bs.blocks().items():
        kept, E, w = _expansion(n, reduction)
        P = padded([basis_polynomial(n, s, m) for m in kept], bs.polys.shape[1] - 1)
        R = np.tensordot((w[:, None] * E).T, P, axes=1)
        indep = independent_components(n, reduction)
        for i in cols:
            out[i] = R[indep.index(bs.entries[i].component)]
    return out


@pytest.mark.parametrize("normal", ["x", "y"])
@pytest.mark.parametrize("degree,reduction",
                         [(d, "planar") for d in range(2, 11)]
                         + [(d, "full3d") for d in range(2, 9)])
def test_reconstruction_is_twice_symmetrizer_times_basis(degree, reduction, normal):
    bs = build_basis_set(grad_theory(degree, reduction), normal)
    ref = multiset_reconstruction(bs)
    R = np.tensordot(2.0 * assemble_symmetrizer(bs), bs.polys, axes=1)
    assert np.abs(R - ref).max() <= 1e-14 * np.abs(ref).max()


def test_macroscopic_moments_of_reconstruction():
    """Low-order moments of the reconstructed distribution recover the state."""
    bs = build_basis_set(grad_theory(3, "planar"), "x")
    rng = np.random.default_rng(11)
    alpha = rng.standard_normal(bs.size)
    f = np.tensordot(alpha @ (2.0 * assemble_symmetrizer(bs)), bs.polys, axes=1)
    assert np.isclose(inner(ONE, f), alpha[bs.index_of(0, 0, ())], atol=1e-12)
    assert np.isclose(inner(mono(1, 0, 0), f),
                      alpha[bs.index_of(1, 0, ("x",))], atol=1e-12)
    assert np.isclose(inner(mono(0, 1, 0), f),
                      alpha[bs.index_of(1, 0, ("y",))], atol=1e-12)
    # temperature reading: third of the centered energy moment
    energy = np.zeros((3, 3, 3))
    energy[2, 0, 0] = energy[0, 2, 0] = energy[0, 0, 2] = 1.0 / 3.0
    energy[0, 0, 0] = -1.0
    theta = inner(energy, f)
    assert np.isclose(theta, -math.sqrt(2.0 / 3.0) * alpha[bs.index_of(0, 1, ())],
                      atol=1e-12)
