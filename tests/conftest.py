import numpy as np
import pytest

from tridecomp.decomp import TriDecomposition, Variant
from tridecomp.states import ProductSpace, ProductTerm, SumState, sparse_vector


def random_unit(rng, d):
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def random_orthonormal(rng, d, k):
    z = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    q, _ = np.linalg.qr(z)
    return q[:, :k]


def random_triortho(seed, dims=(5, 6, 7), k=3, tie=False, min_ratio=1.5,
                    max_ratio=2.5):
    """Random orthonormal-variant decomposition with well-separated (or
    deliberately tied) coefficient magnitudes."""
    rng = np.random.default_rng(seed)
    mags = [1.0]
    for _ in range(k - 1):
        mags.append(mags[-1] / rng.uniform(min_ratio, max_ratio))
    mags = np.asarray(mags)
    mags = mags / np.linalg.norm(mags)
    if tie and k >= 2:
        mags[1] = mags[0]  # bitwise tie; renormalizing keeps it exact
        mags = mags / np.linalg.norm(mags)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, k))
    comps = [random_orthonormal(rng, d, k) for d in dims]
    terms = tuple(
        ProductTerm(mags[i] * phases[i],
                    tuple(sparse_vector(c[:, i]) for c in comps))
        for i in range(k))
    return TriDecomposition(ProductSpace(dims), terms, Variant.ORTHONORMAL)


def private_column_state(rng, k, shared=3, owners=None):
    """k random terms whose factor vectors fill ``shared`` common columns and
    two columns private to the term: term j owns columns shared + 2 o and
    shared + 2 o + 1 with o = owners[j] (default j)."""
    owners = np.arange(k) if owners is None else np.asarray(owners)
    dim = shared + 2 * k
    columns = []
    for _ in range(3):
        mat = np.zeros((dim, k), dtype=complex)
        mat[:shared] = (rng.standard_normal((shared, k))
                        + 1j * rng.standard_normal((shared, k)))
        for j, o in enumerate(owners):
            mat[shared + 2 * o:shared + 2 * o + 2, j] = (
                rng.standard_normal(2) + 1j * rng.standard_normal(2))
        columns.append(mat / np.linalg.norm(mat, axis=0))
    coeffs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return SumState.from_columns(ProductSpace((dim,) * 3), coeffs, columns)


def random_psd(rng, d, top=1.0):
    """Random PSD matrix with eigenvalues in [0, top]."""
    q = random_orthonormal(rng, d, d)
    vals = rng.uniform(0.0, top, d)
    return (q * vals) @ q.conj().T


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
