"""Pure states on products of 2-4 finite factor spaces.

Two representations coexist.  ``DenseState`` stores the full complex
amplitude tensor in row-major multi-index order.  ``SumState`` stores a
finite list of weighted product terms whose factor vectors keep only the
basis indices they actually touch, so ambient factor dimensions can be large
without ever materializing the dense tensor.

Everything is immutable after construction, every operation is a pure
function, and randomness enters only through explicit seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .config import DEFAULT_TOLERANCES, DENSIFY_CEILING, Tolerances
from .errors import (
    CapacityError,
    DimensionMismatchError,
    InvalidStateError,
)

# A sparse factor vector: sorted ((basis index, amplitude), ...) pairs.
SparseVec = tuple


def sparse_vector(data) -> SparseVec:
    """Coerce a dense array, mapping, or pair iterable to sorted sparse pairs."""
    if isinstance(data, np.ndarray):
        idx = np.nonzero(data)[0]
        return tuple((int(i), complex(data[i])) for i in idx)
    if isinstance(data, dict):
        items = data.items()
    else:
        items = data
    merged: dict = {}
    for i, a in items:
        merged[int(i)] = merged.get(int(i), 0j) + complex(a)
    return tuple(sorted((i, a) for i, a in merged.items() if a != 0))


def sv_inner(a: SparseVec, b: SparseVec) -> complex:
    """<a|b> for sparse vectors, conjugate-linear in the first argument."""
    bd = dict(b)
    return complex(sum((av.conjugate() * bd[i] for i, av in a if i in bd), 0j))


def sv_norm(a: SparseVec) -> float:
    return math.sqrt(sum(abs(av) ** 2 for _, av in a))


def sv_scale(a: SparseVec, c: complex) -> SparseVec:
    c = complex(c)
    return tuple((i, av * c) for i, av in a)


def sv_dense(a: SparseVec, dim: int) -> np.ndarray:
    """Densify into ``dim`` entries; indices beyond ``dim`` must not occur."""
    out = np.zeros(dim, dtype=np.complex128)
    for i, av in a:
        if i >= dim:
            raise DimensionMismatchError(
                f"sparse index {i} does not fit factor dimension {dim}")
        out[i] = av
    return out


@dataclass(frozen=True)
class ProductSpace:
    """Product of 2-4 finite factor spaces, immutable after creation."""

    dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not 2 <= len(dims) <= 4:
            raise InvalidStateError(f"need 2-4 factors, got {len(dims)}")
        if any(d < 2 for d in dims):
            raise InvalidStateError(f"every factor dimension must be >= 2: {dims}")

    @property
    def nfactors(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)


def _check_same_nfactors(a, b):
    if a.space.nfactors != b.space.nfactors:
        raise DimensionMismatchError(
            f"factor counts differ: {a.space.nfactors} vs {b.space.nfactors}")


@dataclass(frozen=True, eq=False)
class DenseState:
    """Full amplitude tensor, flat row-major over the space's multi-index.

    ``normalized`` defaults to auto-detection: the flag is set when the norm
    is within the unit tolerance.  Subnormalized states are first class; they
    simply carry ``normalized=False``.
    """

    space: ProductSpace
    amplitudes: np.ndarray
    normalized: bool = None

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128).ravel()
        if amps.size != self.space.dim:
            raise DimensionMismatchError(
                f"{amps.size} amplitudes for a space of dimension {self.space.dim}")
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise InvalidStateError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        n = float(np.linalg.norm(amps))
        if self.normalized is None:
            object.__setattr__(self, "normalized",
                               abs(n - 1.0) <= DEFAULT_TOLERANCES.norm)
        elif self.normalized and abs(n - 1.0) > DEFAULT_TOLERANCES.norm:
            raise InvalidStateError(f"normalized flag set but norm = {n!r}")

    @property
    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.space.dims)


@dataclass(frozen=True, eq=False)
class ProductTerm:
    """One weighted product: coeff times a unit vector per factor."""

    coeff: complex
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeff", complex(self.coeff))
        facs = tuple(sparse_vector(f) for f in self.factors)
        object.__setattr__(self, "factors", facs)
        if not np.isfinite(self.coeff.real) or not np.isfinite(self.coeff.imag):
            raise InvalidStateError("coefficient must be finite")
        for i, f in enumerate(facs):
            n = sv_norm(f)
            if abs(n - 1.0) > DEFAULT_TOLERANCES.norm:
                raise InvalidStateError(
                    f"factor {i} of a product term has norm {n!r}, expected 1")


class FactorPack(tuple):
    """(sorted touched indices, terms-by-touched matrix) of one factor.

    ``owner[c]`` is the only term touching column ``c``, or -1 when several
    terms share it.  A column private on both sides of an overlap adds one
    entry, so only the shared columns need a dense product.  A single term
    has no cross entries to skip, so ``has_private`` is False for it.
    """

    def __new__(cls, touched, fmat, owner: list):
        pack = super().__new__(cls, (touched, fmat))
        pack.has_private = len(fmat) > 1 and max(owner, default=-1) >= 0
        pack.owner = np.asarray(owner, dtype=np.intp)
        pack.owner.flags.writeable = False
        return pack

    def private_norms(self) -> np.ndarray:
        """||p_k|| per term: the norm of its part on its private columns."""
        fmat = self[1]
        cols = np.nonzero(self.owner >= 0)[0]
        rows = self.owner[cols]
        sq = np.bincount(rows, weights=np.abs(fmat[rows, cols]) ** 2,
                         minlength=fmat.shape[0])
        return np.sqrt(sq)


@dataclass(frozen=True, eq=False)
class SumState:
    """Sparse sum of product terms; never forces the ambient dense tensor."""

    space: ProductSpace
    terms: tuple

    def __post_init__(self):
        terms = tuple(self.terms)
        for t in terms:
            if not isinstance(t, ProductTerm):
                raise InvalidStateError("SumState terms must be ProductTerm")
            if len(t.factors) != self.space.nfactors:
                raise DimensionMismatchError(
                    "term factor count does not match the space")
        object.__setattr__(self, "terms", terms)

    @cached_property
    def coeffs(self) -> np.ndarray:
        out = np.array([t.coeff for t in self.terms], dtype=np.complex128)
        out.flags.writeable = False
        return out

    @cached_property
    def _packed(self) -> tuple:
        """One ``FactorPack`` per factor."""
        packs = []
        for i in range(self.space.nfactors):
            touched = sorted({idx for t in self.terms for idx, _ in t.factors[i]})
            pos = {idx: p for p, idx in enumerate(touched)}
            fmat = np.zeros((len(self.terms), max(len(touched), 1)),
                            dtype=np.complex128)
            owner = [None] * len(touched)  # the one term touching it, or -1
            for r, t in enumerate(self.terms):
                for idx, amp in t.factors[i]:
                    p = pos[idx]
                    fmat[r, p] = amp
                    owner[p] = r if owner[p] is None else -1
            fmat.flags.writeable = False
            packs.append(FactorPack(np.asarray(touched, dtype=np.intp), fmat,
                                    owner))
        return tuple(packs)


def _factor_overlap(pack_a, pack_b) -> np.ndarray:
    """O[k, l] = <a_k | b_l> for one factor of two packed term lists."""
    ia, fa = pack_a
    ib, fb = pack_b
    if ia.size == 0 or ib.size == 0:
        return np.zeros((fa.shape[0], fb.shape[0]), dtype=np.complex128)
    common, ca, cb = np.intersect1d(ia, ib, assume_unique=True,
                                    return_indices=True)
    if common.size == 0:
        return np.zeros((fa.shape[0], fb.shape[0]), dtype=np.complex128)
    if not (pack_a.has_private and pack_b.has_private):
        return fa[:, ca].conj() @ fb[:, cb].T
    ra, rb = pack_a.owner[ca], pack_b.owner[cb]
    both = (ra >= 0) & (rb >= 0)
    shared = ~both
    out = fa[:, ca[shared]].conj() @ fb[:, cb[shared]].T
    ra, rb = ra[both], rb[both]
    np.add.at(out, (ra, rb), fa[ra, ca[both]].conj() * fb[rb, cb[both]])
    return out


def term_gram(a: SumState, b: SumState) -> np.ndarray:
    """G[k, l] = product over factors of <a_k^i | b_l^i> (coefficients excluded)."""
    _check_same_nfactors(a, b)
    gram = None
    for i in range(a.space.nfactors):
        ov = _factor_overlap(a._packed[i], b._packed[i])
        gram = ov if gram is None else gram * ov
    return gram


def _embedded_tensor(state: DenseState, dims: tuple) -> np.ndarray:
    if state.space.dims == tuple(dims):
        return state.tensor
    out = np.zeros(dims, dtype=np.complex128)
    out[tuple(slice(0, d) for d in state.space.dims)] = state.tensor
    return out


def _dense_term_brackets(state: DenseState, s: SumState) -> np.ndarray:
    """<dense | term_l> for every term of ``s`` (coefficients excluded)."""
    dims = state.space.dims
    tensor_c = state.tensor.conj()
    mats = []
    for i, d in enumerate(dims):
        idx, fmat = s._packed[i]
        inside = idx < d
        vmat = np.zeros((len(s.terms), d), dtype=np.complex128)
        if idx.size:
            vmat[:, idx[inside]] = fmat[:, inside]
        mats.append(vmat)
    operands = [tensor_c, list(range(len(dims)))]
    for i, vmat in enumerate(mats):
        operands.extend([vmat, [len(dims), i]])
    return np.einsum(*operands, [len(dims)])


def inner(a, b) -> complex:
    """<a|b>, conjugate-linear in the first argument.

    Dense operands with unequal dims are zero-padded to the larger space;
    SumState operands are combined through factor Gram matrices without
    densification.
    """
    _check_same_nfactors(a, b)
    if isinstance(a, DenseState) and isinstance(b, DenseState):
        dims = tuple(max(x, y) for x, y in zip(a.space.dims, b.space.dims))
        return complex(np.vdot(_embedded_tensor(a, dims), _embedded_tensor(b, dims)))
    if isinstance(a, SumState) and isinstance(b, SumState):
        if not a.terms or not b.terms:
            return 0j
        gram = term_gram(a, b)
        return complex(a.coeffs.conj() @ gram @ b.coeffs)
    if isinstance(a, DenseState) and isinstance(b, SumState):
        if not b.terms:
            return 0j
        return complex(_dense_term_brackets(a, b) @ b.coeffs)
    if isinstance(a, SumState) and isinstance(b, DenseState):
        return complex(inner(b, a)).conjugate()
    raise TypeError(f"unsupported operands: {type(a).__name__}, {type(b).__name__}")


def norm(s) -> float:
    """sqrt(<s|s>); always >= 0."""
    return math.sqrt(max(inner(s, s).real, 0.0))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian PSD reduced state on a subset of factors.

    ``dims`` are the block dimensions of ``matrix`` per kept factor.  When the
    matrix was compacted onto the basis indices a SumState actually touches,
    ``basis`` records, per kept factor, which ambient index each block
    position stands for (``None`` means the identity labelling).
    """

    matrix: np.ndarray
    dims: tuple
    kept_factors: tuple
    basis: tuple = None
    trace: float = field(init=False, default=0.0)

    def __post_init__(self):
        mat = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        dims = tuple(int(d) for d in self.dims)
        d = math.prod(dims)
        if mat.shape != (d, d):
            raise DimensionMismatchError(
                f"matrix shape {mat.shape} does not match block dims {dims}")
        if not np.all(np.isfinite(mat.view(np.float64))):
            raise InvalidStateError("density matrix entries must be finite")
        herm_gap = float(np.max(np.abs(mat - mat.conj().T))) if d else 0.0
        if herm_gap > DEFAULT_TOLERANCES.herm:
            raise InvalidStateError(f"not Hermitian: gap {herm_gap!r}")
        eigmin = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[0])
        if eigmin < -DEFAULT_TOLERANCES.psd:
            raise InvalidStateError(f"not PSD: min eigenvalue {eigmin!r}")
        tr = float(np.trace(mat).real)
        if not 0.0 < tr <= 1.0 + DEFAULT_TOLERANCES.norm:
            raise InvalidStateError(f"trace {tr!r} outside (0, 1]")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "kept_factors",
                           tuple(int(k) for k in self.kept_factors))
        if self.basis is not None:
            object.__setattr__(self, "basis",
                               tuple(tuple(int(i) for i in b) for b in self.basis))
        object.__setattr__(self, "trace", tr)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)


def _normalize_keep(keep, nfactors: int) -> tuple:
    keep = tuple(sorted({int(k) for k in keep}))
    if not keep or len(keep) >= nfactors:
        raise InvalidStateError(
            "keep must be a nonempty proper subset of the factors")
    if any(k < 0 or k >= nfactors for k in keep):
        raise InvalidStateError(f"factor index out of range: {keep}")
    return keep


def partial_trace_matrix(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace of an arbitrary (not necessarily PSD) square matrix.

    ``mat`` acts on the product space with factor ``dims``; the result acts
    on the factors in ``keep`` (ascending order).
    """
    dims = tuple(int(d) for d in dims)
    nf = len(dims)
    keep = tuple(sorted({int(k) for k in keep}))
    d = math.prod(dims)
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.shape != (d, d):
        raise DimensionMismatchError(f"matrix shape {mat.shape} vs dims {dims}")
    tensor = mat.reshape(dims + dims)
    ket_ids = list(range(nf))
    bra_ids = [i if i not in keep else nf + i for i in range(nf)]
    out_ids = [i for i in keep] + [nf + i for i in keep]
    reduced = np.einsum(tensor, ket_ids + bra_ids, out_ids)
    dk = math.prod(dims[i] for i in keep)
    return reduced.reshape(dk, dk)


def partial_trace(s, keep) -> DensityMatrix:
    """Reduce a state (or density matrix) to the factors in ``keep``.

    For wavefunctions the result has trace equal to the squared norm, so
    subnormalized projected states reduce to subnormalized matrices.  SumState
    inputs are reduced on the compact basis of touched indices per kept
    factor, recorded in the result's ``basis``.
    """
    if isinstance(s, DenseState):
        # rho = M M^H for the matricization M of the kept factors: one GEMM
        keep = _normalize_keep(keep, s.space.nfactors)
        traced = tuple(i for i in range(s.space.nfactors) if i not in keep)
        dims = tuple(s.space.dims[i] for i in keep)
        mat = s.tensor.transpose(keep + traced).reshape(math.prod(dims), -1)
        return DensityMatrix(mat @ mat.conj().T, dims, keep)
    if isinstance(s, SumState):
        keep = _normalize_keep(keep, s.space.nfactors)
        traced = [i for i in range(s.space.nfactors) if i not in keep]
        nterms = len(s.terms)
        if nterms == 0:
            raise InvalidStateError("cannot reduce the zero state")
        mix = np.outer(s.coeffs, s.coeffs.conj())
        for i in traced:
            ov = _factor_overlap(s._packed[i], s._packed[i])
            mix = mix * ov.T
        cols = None
        dims = []
        bases = []
        for i in keep:
            idx, fmat = s._packed[i]
            if idx.size == 0:
                raise InvalidStateError(f"kept factor {i} is identically zero")
            dims.append(idx.size)
            bases.append(tuple(int(x) for x in idx))
            block = fmat.T  # touched-by-terms
            cols = block if cols is None else (
                cols[:, None, :] * block[None, :, :]).reshape(-1, nterms)
        rho = cols @ mix @ cols.conj().T
        rho = (rho + rho.conj().T) / 2.0
        return DensityMatrix(rho, tuple(dims), keep, basis=tuple(bases))
    if isinstance(s, DensityMatrix):
        positions = tuple(sorted({int(k) for k in keep}))
        if not positions or not set(positions) <= set(s.kept_factors) \
                or len(positions) >= len(s.kept_factors):
            raise InvalidStateError(
                "keep must be a nonempty proper subset of the matrix's factors")
        local = [s.kept_factors.index(k) for k in positions]
        reduced = partial_trace_matrix(s.matrix, s.dims, local)
        dims = tuple(s.dims[i] for i in local)
        basis = tuple(s.basis[i] for i in local) if s.basis is not None else None
        return DensityMatrix(reduced, dims, positions, basis=basis)
    raise TypeError(f"unsupported operand: {type(s).__name__}")


def aligned_density_matrices(a: DensityMatrix, b: DensityMatrix):
    """Embed two reduced states into one common basis so they can be compared.

    Compact SumState reductions of different states may label different
    touched indices; the union labelling per kept factor reconciles them.
    """
    if len(a.dims) != len(b.dims):
        raise DimensionMismatchError("reduced states keep different factor counts")

    def bases_of(dm):
        if dm.basis is not None:
            return [tuple(bb) for bb in dm.basis]
        return [tuple(range(d)) for d in dm.dims]

    ba, bb = bases_of(a), bases_of(b)
    unions = [tuple(sorted(set(x) | set(y))) for x, y in zip(ba, bb)]
    udims = tuple(len(u) for u in unions)

    def embed(dm, bases):
        flat = None
        for u, basis in zip(unions, bases):
            lookup = {label: p for p, label in enumerate(u)}
            local = np.array([lookup[x] for x in basis], dtype=np.intp)
            flat = local if flat is None else (
                flat[:, None] * len(u) + local[None, :]).ravel()
        out = np.zeros((math.prod(udims), math.prod(udims)), dtype=np.complex128)
        out[np.ix_(flat, flat)] = dm.matrix
        return out

    return embed(a, ba), embed(b, bb)


def project_factor(s, i: int, phi,
                   tolerances: Tolerances = DEFAULT_TOLERANCES):
    """Collapse factor ``i`` onto the unit vector ``phi``: returns P_phi s.

    The result is generally subnormalized and keeps the input representation.
    """
    i = int(i)
    if not 0 <= i < s.space.nfactors:
        raise DimensionMismatchError(f"factor index {i} out of range")
    phi_sv = sparse_vector(phi) if not isinstance(phi, np.ndarray) \
        else sparse_vector(np.asarray(phi, dtype=np.complex128))
    n = sv_norm(phi_sv)
    if abs(n - 1.0) > tolerances.norm:
        raise InvalidStateError(f"projection vector has norm {n!r}, expected 1")
    if isinstance(s, DenseState):
        d = s.space.dims[i]
        v = sv_dense(phi_sv, d)
        contracted = np.tensordot(v.conj(), s.tensor, axes=(0, i))
        out = np.moveaxis(np.multiply.outer(v, contracted), 0, i)
        return DenseState(s.space, out.ravel(), normalized=None)
    if isinstance(s, SumState):
        new_terms = []
        for t in s.terms:
            ov = sv_inner(phi_sv, t.factors[i])
            facs = t.factors[:i] + (phi_sv,) + t.factors[i + 1:]
            new_terms.append(ProductTerm(t.coeff * ov, facs))
        return SumState(s.space, tuple(new_terms))
    raise TypeError(f"unsupported operand: {type(s).__name__}")


def trace_norm(a) -> float:
    """Sum of singular values (trace-class norm)."""
    mat = a.matrix if isinstance(a, DensityMatrix) else np.asarray(a,
                                                                   dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidStateError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat.view(np.float64))):
        raise InvalidStateError("matrix entries must be finite")
    return float(np.linalg.svd(mat, compute_uv=False).sum())


def haar_random_state(space: ProductSpace, seed: int) -> DenseState:
    """Seeded Haar-random wavefunction (normalized complex Gaussian)."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return DenseState(space, z / np.linalg.norm(z), normalized=True)


def densify(s: SumState, ceiling: int = DENSIFY_CEILING) -> DenseState:
    """Materialize a SumState; refuses spaces above the capacity ceiling."""
    if s.space.dim > ceiling:
        raise CapacityError(
            f"dense dimension {s.space.dim} exceeds the ceiling {ceiling}")
    out = np.zeros(s.space.dims, dtype=np.complex128)
    for t in s.terms:
        vecs = [sv_dense(f, d) for f, d in zip(t.factors, s.space.dims)]
        out += t.coeff * reduce(np.multiply.outer, vecs)
    return DenseState(s.space, out.ravel(), normalized=None)


def sparsify(s: DenseState, tol: float = 0.0) -> SumState:
    """Basis-aligned SumState: one term per amplitude with |amp| > tol."""
    flat = s.amplitudes
    terms = []
    for pos in np.nonzero(np.abs(flat) > tol)[0]:
        multi = np.unravel_index(int(pos), s.space.dims)
        factors = tuple(((int(n), 1.0 + 0j),) for n in multi)
        terms.append(ProductTerm(complex(flat[pos]), factors))
    return SumState(s.space, tuple(terms))


def as_dense(s, ceiling: int = DENSIFY_CEILING) -> DenseState:
    """Dense view of any state representation."""
    if isinstance(s, DenseState):
        return s
    if isinstance(s, SumState):
        return densify(s, ceiling=ceiling)
    raise TypeError(f"unsupported operand: {type(s).__name__}")
