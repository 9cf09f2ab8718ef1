"""Shared test oracles and helpers."""

import itertools
import math

import numpy as np
import pytest

from sgm import FrequencySet, lit_margin


def golden_section_max(f, lo, hi, tol=1e-11):
    """Independent 1-d maximizer used as an oracle for the solver."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def brute_force_standard_freqs(m):
    """Enumeration oracle for the standard frequency set."""
    vecs = [
        u
        for u in itertools.product(range(3), repeat=m)
        if 0 < sum(u) <= 3 and max(u) <= 2
    ]
    return sorted(vecs, key=lambda u: tuple(reversed(u)))


def fd_hessian(f, x, h=1e-4):
    """Central-difference Hessian of a scalar function."""
    x = np.asarray(x, dtype=float)
    m = len(x)
    H = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            ei = np.zeros(m); ei[i] = h
            ej = np.zeros(m); ej[j] = h
            H[i, j] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h * h)
    return H


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros(len(x))
    for i in range(len(x)):
        e = np.zeros(len(x)); e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def random_lit_interior(freqs: FrequencySet, rng, margin=0.2):
    """Random theta strictly inside the unit L1-type region with the given margin."""
    direction = rng.normal(size=freqs.size)
    loads = np.abs(direction) @ freqs.freqs.astype(float) ** 2
    scale = (1.0 - margin) / loads.max()
    theta = direction * scale * rng.uniform(0.2, 1.0)
    assert lit_margin(freqs, theta, 1.0) >= margin * 0.19
    return theta


def svec(A):
    """The upper-triangle entries of symmetric matrices (..., s, s) as (..., s'),
    s' = s(s+1)/2, in np.triu_indices(s) order."""
    A = np.asarray(A, dtype=float)
    j, k = np.triu_indices(A.shape[-1])
    return A[..., j, k]


def smat(v):
    """The symmetric matrices (..., s, s) whose svec is v (..., s')."""
    v = np.asarray(v, dtype=float)
    s = math.isqrt(8 * v.shape[-1] + 1) // 2
    j, k = np.triu_indices(s)
    A = np.zeros(v.shape[:-1] + (s, s))
    A[..., j, k] = A[..., k, j] = v
    return A


def svec_stack(coeffs):
    """The (..., s', p) svec stack of dense coefficient matrices (..., p, s, s)."""
    return np.swapaxes(svec(coeffs), -1, -2)


def random_maxdet_instance(rng, with_psd=True):
    """A bounded random determinant-maximization instance (box constraints)."""
    from sgm.maxdet import AffineMatrix, MaxDetProblem

    def rand_sym(s, scale=0.3):
        A = rng.normal(scale=scale, size=(s, s))
        return (A + A.T) / 2

    p = int(rng.integers(1, 6))
    s = int(rng.integers(1, 4))
    terms = [
        np.stack([rand_sym(s) for _ in range(p)]) for _ in range(rng.integers(1, 4))
    ]
    psd = []
    if with_psd:
        psd = [
            np.stack([rand_sym(s) for _ in range(p)]) for _ in range(rng.integers(0, 3))
        ]
    r = float(rng.uniform(0.5, 2.0))
    return MaxDetProblem(
        nvars=p,
        objective=AffineMatrix(np.eye(s), svec_stack(np.stack(terms))),
        psd_constraint=AffineMatrix(1.5 * np.eye(s), svec_stack(np.stack(psd))) if psd else None,
        A=np.kron(np.eye(p), [[1.0], [-1.0]]),  # rows e_1, -e_1, e_2, -e_2, ...
        b=np.full(2 * p, r),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
