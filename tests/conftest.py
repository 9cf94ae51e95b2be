"""Shared fixtures: assembled systems are immutable, so cache per session."""

import numpy as np
import pytest

from momentbc.system import assemble_system, grad_theory

_CACHE = {}


def cached_system(degree, reduction="planar", normal="x", axes=("x", "y", "z")):
    key = (degree, reduction, normal, tuple(axes))
    if key not in _CACHE:
        theory = grad_theory(degree, reduction)
        _CACHE[key] = assemble_system(theory, normal_axis=normal, axes=axes)
    return _CACHE[key]


def characteristic_form(dec, alpha) -> float:
    """Boundary quadratic form alpha^T S A^(n) alpha evaluated through the
    characteristic variables X^T S^1/2 alpha of the decomposition."""
    W = dec.X.T @ (dec.S_half @ np.asarray(alpha, dtype=float))
    lam = np.concatenate([dec.lam_minus, np.zeros(dec.n_zero), dec.lam_plus])
    return float(np.sum(lam * W ** 2))


@pytest.fixture(scope="session")
def g20x():
    # 13 planar moments, wall normal along x
    return cached_system(3)


@pytest.fixture(scope="session")
def g20y():
    # channel orientation: wall normal along y, only the y flux assembled
    return cached_system(3, normal="y", axes=("y",))
