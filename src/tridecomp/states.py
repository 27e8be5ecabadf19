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
from itertools import accumulate
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import zherk
from scipy.linalg.lapack import zgeqrf

from .config import DEFAULT_TOLERANCES, DENSIFY_CEILING, Tolerances, check_integer
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
    merged: dict = {}
    for i, a in data.items() if isinstance(data, dict) else data:
        i = check_integer("component index", i)
        merged[i] = merged.get(i, 0j) + complex(a)
    return tuple(sorted((i, a) for i, a in merged.items() if a != 0))


def sv_inner(a: SparseVec, b: SparseVec) -> complex:
    """<a|b> for sparse vectors, conjugate-linear in the first argument."""
    bd = dict(b)
    return complex(sum((av.conjugate() * bd[i] for i, av in a if i in bd), 0j))


def sv_norm(a: SparseVec) -> float:
    return math.sqrt(sum(abs(av) ** 2 for _, av in a))


@dataclass(frozen=True)
class ProductSpace:
    """Product of 2-4 finite factor spaces, immutable after creation."""

    dims: tuple

    def __post_init__(self):
        dims = tuple(check_integer("factor dimension", d, 2) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not 2 <= len(dims) <= 4:
            raise InvalidStateError(f"need 2-4 factors, got {len(dims)}")

    @property
    def nfactors(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)


def _check_same_nfactors(a, b):
    for s in (a, b):
        if not isinstance(s, (DenseState, SumState)):
            raise InvalidStateError(
                f"expected a DenseState or SumState, got {type(s).__name__}")
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
        amps = np.reshape(self.amplitudes, -1)
        if amps.size != self.space.dim:
            raise DimensionMismatchError(
                f"{amps.size} amplitudes for a space of dimension {self.space.dim}")
        amps = _finite_complex("amplitudes", amps)
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
            if not abs(n - 1.0) <= DEFAULT_TOLERANCES.norm:  # NaN fails too
                raise InvalidStateError(
                    f"factor {i} of a product term has norm {n!r}, expected 1")


class Rows(NamedTuple):
    """One factor of a SumState as CSR rows.

    Row k is term k's unit vector on the factor: basis indices
    ``indices[indptr[k]:indptr[k + 1]]``, strictly increasing, with their
    amplitudes at the same positions of ``data``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def entry_terms(self) -> np.ndarray:
        """The term (row) of every entry."""
        return np.arange(self.indptr.size - 1).repeat(
            self.indptr[1:] - self.indptr[:-1])


def _finite_complex(name: str, values, ndim: int = None) -> np.ndarray:
    """``values`` as a new C-ordered complex128 array, of rank ``ndim`` when
    given; every entry must be finite, else ``InvalidStateError``."""
    arr = np.array(values, dtype=np.complex128, order="C")
    if ndim is not None and arr.ndim != ndim:
        raise InvalidStateError(f"{name} must have rank {ndim}, got {arr.ndim}")
    if not np.isfinite(arr).all():
        raise InvalidStateError(f"{name} must be finite")
    return arr


def _frozen_rows(indptr, indices, data) -> Rows:
    for arr in (indptr, indices, data):
        arr.setflags(write=False)
    return Rows(indptr, indices, data)


def _integer_array(name: str, values) -> np.ndarray:
    """``values`` as a new intp array; their dtype must be integer, or empty."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise InvalidStateError(f"{name} must be integers, got {arr.dtype}")
    return arr.astype(np.intp)


def _canonical_rows(i: int, dim: int, nterms: int, indptr, indices,
                    data) -> Rows:
    """Validate factor ``i`` of every term at once.

    Positions must be integers, amplitudes finite and indices in [0, dim).
    Repeated indices of a row are merged and zero amplitudes dropped, as
    ``sparse_vector`` does, and every row must then have unit norm.
    """
    indptr = _integer_array(f"factor {i} indptr", indptr)
    indices = _integer_array(f"factor {i} indices", indices)
    data = _finite_complex(f"factor {i} amplitudes", data)
    if (indptr.shape != (nterms + 1,) or indices.ndim != 1
            or data.shape != indices.shape or indptr[0] != 0
            or indptr[-1] != indices.size or (indptr[1:] < indptr[:-1]).any()):
        raise InvalidStateError(
            f"factor {i} is not a set of CSR rows for {nterms} terms")
    outside = (indices < 0) | (indices >= dim)
    if outside.any():
        raise DimensionMismatchError(
            f"component index {indices[outside][0]} does not fit factor {i} "
            f"of dimension {dim}")
    rows = Rows(indptr, indices, data)
    term = rows.entry_terms()
    key = term * dim + indices
    if (key[1:] <= key[:-1]).any():  # a row out of order or repeating an index
        order = np.argsort(key, kind="stable")
        key, slot = np.unique(key[order], return_inverse=True)
        data = np.zeros(key.size, dtype=np.complex128)
        np.add.at(data, slot, rows.data[order])  # in input order
        term, indices = key // dim, key % dim
    nonzero = data != 0
    if not nonzero.all():
        term, indices, data = term[nonzero], indices[nonzero], data[nonzero]
    if indices.size != indptr[-1]:
        indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(term, minlength=nterms))))
    norms = np.sqrt(np.bincount(term, weights=np.abs(data) ** 2,
                                minlength=nterms))
    off = ~(np.abs(norms - 1.0) <= DEFAULT_TOLERANCES.norm)
    if off.any():
        k = int(np.argmax(off))
        raise InvalidStateError(
            f"factor {i} of term {k} has norm {norms[k]!r}, expected 1")
    return _frozen_rows(indptr, indices, data)


def _take_rows(rows: Rows, order: np.ndarray) -> Rows:
    starts = rows.indptr[order]
    lengths = rows.indptr[order + 1] - starts
    indptr = np.zeros(order.size + 1, dtype=np.intp)
    lengths.cumsum(out=indptr[1:])
    pos = (starts - indptr[:-1]).repeat(lengths) + np.arange(indptr[-1])
    return _frozen_rows(indptr, rows.indices[pos], rows.data[pos])


def _concat_rows(parts) -> Rows:
    offsets = accumulate((p.indices.size for p in parts), initial=0)
    indptr = np.concatenate([p.indptr[:-1] + o for p, o in zip(parts, offsets)]
                            + [[sum(p.indices.size for p in parts)]])
    return _frozen_rows(indptr, np.concatenate([p.indices for p in parts]),
                        np.concatenate([p.data for p in parts]))


class FactorPack:
    """One factor of a term list: ``touched``, the sorted indices some term
    touches; ``owner[c]``, the only term touching column c, or -1 when
    several share it; ``shared``, the terms-by-shared-columns matrix; and
    ``private``, the (column, owner, value) vectors of the other columns.  A
    column private on both sides of an overlap adds one entry, so only the
    shared columns need a dense product.  Without a private column (as for a
    single term, which has no cross entries to skip) ``shared`` is the whole
    terms-by-touched matrix.  ``slot[c]`` is column c's position in its part.
    """

    __slots__ = ("touched", "owner", "has_private", "shared", "private",
                 "slot")

    def __init__(self, rows: Rows):
        nterms = rows.indptr.size - 1
        self.has_private, self.slot = False, None
        if nterms == 1:  # one term: its sorted row is the pack
            touched, shared = rows.indices, rows.data[None, :]
            owner = np.zeros(touched.size, dtype=np.intp)
            self.private = (np.arange(touched.size), owner, rows.data)
        else:
            term = rows.entry_terms()
            touched = np.sort(rows.indices)
            if touched.size:
                first = np.empty(touched.size, dtype=bool)
                first[0] = True
                np.not_equal(touched[1:], touched[:-1], out=first[1:])
                touched = touched[first]
            col = touched.searchsorted(rows.indices)
            private = np.bincount(col, minlength=touched.size) == 1
            last = np.empty(touched.size, dtype=np.intp)
            last[col] = term  # the owner, where a column has one term
            owner = np.where(private, last, -1)
            if private.any():
                self.has_private, cols = True, np.nonzero(private)[0]
                self.slot = np.where(private, private.cumsum(),
                                     (~private).cumsum()) - 1
                value = np.empty(touched.size, dtype=np.complex128)
                value[col] = rows.data  # the entry, where a column has one
                self.private = (cols, owner[cols], value[cols])
                mine = ~private[col]
                shared = np.zeros((nterms, touched.size - cols.size),
                                  dtype=np.complex128)
                shared[term[mine], self.slot[col[mine]]] = rows.data[mine]
            else:
                self.private = (owner[:0], owner[:0], rows.data[:0])
                shared = np.zeros((nterms, max(touched.size, 1)),
                                  dtype=np.complex128)
                shared[term, col] = rows.data
        for arr in (owner, shared, *self.private):
            arr.setflags(write=False)
        self.touched, self.owner, self.shared = touched, owner, shared

    def columns(self, cols: np.ndarray) -> np.ndarray:
        """The terms-by-touched matrix at column positions ``cols`` (sorted,
        no repeats), read from the two parts."""
        if not self.has_private:
            return self.shared if cols.size == self.shared.shape[1] \
                else self.shared.take(cols, axis=1)
        own, at = self.owner[cols], self.slot[cols]
        held = own < 0
        out = np.zeros((self.shared.shape[0], cols.size), np.complex128)
        out[:, held] = self.shared.take(at[held], axis=1)
        out[own[~held], np.nonzero(~held)[0]] = self.private[2][at[~held]]
        return out

    def matrix(self) -> np.ndarray:
        """The whole terms-by-touched matrix, built on each call."""
        return self.columns(np.arange(self.touched.size)) \
            if self.has_private else self.shared

    def __iter__(self):
        """Unpacks as (touched, ``matrix()``)."""
        return iter((self.touched, self.matrix()))

    def private_norms(self) -> np.ndarray:
        """||p_k|| per term: the norm of its part on its private columns."""
        _, rows, values = self.private
        return np.sqrt(np.bincount(rows, weights=np.abs(values) ** 2,
                                   minlength=self.shared.shape[0]))


class SumState:
    """Weighted sum of product terms; never forces the ambient dense tensor.

    The terms are held as arrays, the array view of a CP (Kruskal) sum
    (Kolda and Bader, SIAM Review 51 (2009), section 3): ``coeffs`` has one
    entry per term and ``rows[i]`` holds every term's unit vector on factor
    i as CSR ``Rows``.  Both are validated once, at construction, and are
    read-only.  ``SumState(space, terms)`` is the input adapter from
    ``ProductTerm`` objects onto ``from_rows``; a state is read only
    through its arrays.
    """

    def __init__(self, space: ProductSpace, terms):
        terms = tuple(terms)
        for t in terms:
            if not isinstance(t, ProductTerm):
                raise InvalidStateError("SumState terms must be ProductTerm")
            if len(t.factors) != space.nfactors:
                raise DimensionMismatchError(
                    "term factor count does not match the space")
        rows = []
        for i in range(space.nfactors):
            facs = [t.factors[i] for t in terms]
            rows.append((list(accumulate(map(len, facs), initial=0)),
                         [j for f in facs for j, _ in f],
                         [a for f in facs for _, a in f]))
        built = SumState.from_rows(space, [t.coeff for t in terms], rows)
        self._store(space, built.coeffs, built.rows)

    @classmethod
    def from_rows(cls, space: ProductSpace, coeffs, rows) -> SumState:
        """Build from a coefficient vector and one (indptr, indices, data)
        triple of CSR rows per factor, validated as ``_canonical_rows``
        describes."""
        coeffs = _finite_complex("coefficients", coeffs, 1)
        rows = tuple(rows)
        if len(rows) != space.nfactors:
            raise DimensionMismatchError(
                f"{len(rows)} factors of rows for a space of "
                f"{space.nfactors} factors")
        return cls._trusted(space, coeffs, [
            _canonical_rows(i, dim, coeffs.size, *r)
            for i, (dim, r) in enumerate(zip(space.dims, rows))])

    @classmethod
    def from_columns(cls, space: ProductSpace, coeffs, columns) -> SumState:
        """Build from one dense matrix per factor whose column k is term k's
        vector on that factor; zeros are dropped and the rest is validated
        as ``from_rows`` does."""
        rows = []
        for mat in columns:
            mat = np.asarray(mat)
            if mat.ndim != 2:
                raise InvalidStateError("factor columns must form a matrix")
            d, k = mat.shape
            rows.append((np.arange(k + 1) * d, np.arange(d * k) % d,
                         mat.T.ravel()))
        return cls.from_rows(space, coeffs, rows)

    @classmethod
    def _trusted(cls, space: ProductSpace, coeffs: np.ndarray,
                 rows) -> SumState:
        """Wrap arrays already valid for ``space`` (validated, or derived
        from a validated state) without checking them again."""
        state = object.__new__(cls)
        state._store(space, coeffs, rows)
        return state

    def _store(self, space, coeffs, rows):
        coeffs.setflags(write=False)
        self.__dict__.update(space=space, coeffs=coeffs, rows=tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("SumState is immutable")

    def __repr__(self) -> str:
        return f"SumState(dims={self.space.dims}, nterms={self.nterms})"

    @property
    def nterms(self) -> int:
        return self.coeffs.size

    @cached_property
    def _self_inner(self) -> complex:
        """<self|self>, which norms, residuals and the mover all ask for."""
        return _sum_inner(self, self)

    @cached_property
    def _packed(self) -> tuple:
        """One ``FactorPack`` per factor."""
        return tuple(FactorPack(r) for r in self.rows)

    def take(self, order) -> SumState:
        """The terms at positions ``order``, in that order."""
        order = _integer_array("order", order)
        if order.ndim != 1 or order.size and (
                order.min() < 0 or order.max() >= self.nterms):
            raise InvalidStateError(f"order must index {self.nterms} terms")
        if order.size == self.nterms and (order == np.arange(order.size)).all():
            return self
        return SumState._trusted(self.space, self.coeffs[order],
                                 [_take_rows(r, order) for r in self.rows])

    def with_coeffs(self, coeffs) -> SumState:
        """The same product vectors (and packs) under new coefficients."""
        return self.on_factors(self.space, range(self.space.nfactors), coeffs)

    def on_factors(self, space: ProductSpace, keep, coeffs) -> SumState:
        """Every term's vectors on the factors ``keep``, in that order, as a
        state on ``space`` under new coefficients.  The rows, and the packs
        when this state has built them, are shared rather than rebuilt."""
        keep = tuple(check_integer("factor index", i, 0) for i in keep)
        if any(i >= self.space.nfactors for i in keep):
            raise InvalidStateError(f"factor index out of range: {keep}")
        if len(keep) != space.nfactors or any(
                d < self.space.dims[i] for i, d in zip(keep, space.dims)):
            raise DimensionMismatchError(
                f"factors {keep} of dims {self.space.dims} do not fit "
                f"{space.dims}")
        coeffs = _finite_complex("coefficients", coeffs, 1)
        if coeffs.size != self.nterms:
            raise InvalidStateError(f"need {self.nterms} coefficients")
        state = SumState._trusted(space, coeffs, [self.rows[i] for i in keep])
        if "_packed" in self.__dict__:
            packs = self._packed
            if keep != tuple(range(len(packs))):
                packs = tuple(packs[i] for i in keep)
            state.__dict__["_packed"] = packs
        return state

    def embedded(self, space: ProductSpace) -> SumState:
        """The same state in ``space``, whose dims must hold this state's."""
        if space == self.space:
            return self
        return self.on_factors(space, range(self.space.nfactors), self.coeffs)


def combine(space: ProductSpace, weights, states) -> SumState:
    """sum_j weights[j] * states[j] as one SumState on ``space``.

    The terms are concatenated in order, so no product vector is touched.
    """
    states = [s.embedded(space) for s in states]
    coeffs = np.concatenate([w * s.coeffs for w, s in zip(weights, states)])
    rows = [_concat_rows([s.rows[i] for s in states])
            for i in range(space.nfactors)]
    return SumState._trusted(space, coeffs, rows)


def distance(a, b) -> float:
    """||a - b|| for two states of either representation, zero-padded to
    the larger dims as ``inner`` does.

    Two SumStates are subtracted in ``_difference_core``, which is exact to
    rounding; only where that core does not fit ``DENSIFY_CEILING`` are they
    compared as ||a||^2 - 2 Re<a|b> + ||b||^2, whose rounding floor grows
    with the coefficients' mass.  Otherwise the padded tensors are
    subtracted.
    """
    _check_same_nfactors(a, b)
    if isinstance(a, SumState) and isinstance(b, SumState):
        core = _difference_core(zip(map(tuple, a._packed),
                                    map(tuple, b._packed)),
                                np.concatenate([a.coeffs, -b.coeffs]))
        if core is not None:
            return float(np.linalg.norm(core))
        val = inner(a, a).real - 2.0 * inner(a, b).real + inner(b, b).real
        return math.sqrt(max(val, 0.0))
    dims = tuple(max(x, y) for x, y in zip(a.space.dims, b.space.dims))
    return float(np.linalg.norm(_padded_tensor(a, dims)
                                - _padded_tensor(b, dims)))


def _term_distance(a: SumState, k: int, b: SumState, l: int) -> float:
    """||term k of a - term l of b||, coefficients included, as ``distance``
    measures it; each row is read in place as the one-term pack it is."""
    def row(r: Rows, j: int) -> tuple:
        lo, hi = r.indptr[j:j + 2]
        return r.indices[lo:hi], r.data[None, lo:hi]

    return float(np.linalg.norm(_difference_core(
        [(row(ra, k), row(rb, l)) for ra, rb in zip(a.rows, b.rows)],
        np.array([a.coeffs[k], -b.coeffs[l]]))))


def _difference_core(factors, weights: np.ndarray):
    """The weighted sum of the terms of two (touched, terms-by-touched)
    matrices per factor, in one orthonormal basis per factor spanning both
    sides' rows (a Tucker core; Kolda and Bader, section 4), or None when
    the terms-by-core buffer would exceed ``DENSIFY_CEILING`` entries.

    With ``weights`` (a.coeffs, -b.coeffs) this is a - b.  R of a QR of
    factor i's support-by-terms matrix holds each row's coordinates, so the
    core is sum_k w_k (x)_i R_i[:, k]; its axes have at most
    min(support, terms) entries, whatever the ambient dims, and that
    ceiling is checked before any QR.
    """
    if not weights.size:
        return weights
    factors = list(factors)
    supports = [ia if ia is ib or (ia.size == ib.size and (ia == ib).all())
                else np.union1d(ia, ib) for (ia, _), (ib, _) in factors]
    if math.prod(min(s.size, weights.size) for s in supports[1:]) \
            * weights.size > DENSIFY_CEILING:
        return None
    coords = []
    for ((ia, fa), (ib, fb)), support in zip(factors, supports):
        if support is ia:
            mat = np.concatenate([fa, fb]).T
        else:
            mat = np.zeros((support.size, weights.size), dtype=np.complex128)
            mat[support.searchsorted(ia), :fa.shape[0]] = fa.T
            mat[support.searchsorted(ib), fa.shape[0]:] = fb.T
        r = zgeqrf(mat)[0][:min(mat.shape)]
        for j in range(1, r.shape[0]):
            r[j, :j] = 0.0  # below the diagonal: the Householder vectors
        coords.append(r)
    return (coords[0] * weights) @ _khatri_rao([c.T for c in coords[1:]])


def _column_split(pack_a, pack_b) -> tuple:
    """(left, right, private) of one factor of two packed term lists:
    O[k, l] = <a_k | b_l> is left[k]^* . right[:, l] over the common columns
    that need a dense product, plus v for each (k, l, v) of ``private``, one
    per column private on both sides (None if a side has no private one)."""
    ia, ib = pack_a.touched, pack_b.touched
    if ia is ib or (ia.size == ib.size and (ia == ib).all()):
        ca = cb = np.arange(ia.size)
    else:
        _, ca, cb = np.intersect1d(ia, ib, assume_unique=True,
                                   return_indices=True)
    if not (pack_a.has_private and pack_b.has_private):
        return pack_a.columns(ca), pack_b.columns(cb).T, None
    ra, rb = pack_a.owner[ca], pack_b.owner[cb]
    both = (ra >= 0) & (rb >= 0)
    va, vb = (p.private[2][p.slot[c[both]]] for p, c in ((pack_a, ca),
                                                         (pack_b, cb)))
    return (pack_a.columns(ca[~both]), pack_b.columns(cb[~both]).T,
            (ra[both], rb[both], va.conj() * vb))


def _overlap_rows(split):
    """rows(lo, hi): rows lo:hi of the overlap O of a ``_column_split``,
    so a caller can walk the rows in blocks; a private-private entry lands
    in the block holding its owner row."""
    left, right, private = split
    if private is None:
        return lambda lo, hi: left[lo:hi].conj() @ right
    ra, rb, values = private

    def rows(lo, hi):
        out = left[lo:hi].conj() @ right
        inside = (ra >= lo) & (ra < hi)
        np.add.at(out, (ra[inside] - lo, rb[inside]), values[inside])
        return out
    return rows


def _factor_overlap(pack_a, pack_b) -> np.ndarray:
    """O[k, l] = <a_k | b_l> for one factor of two packed term lists."""
    return _overlap_rows(_column_split(pack_a, pack_b))(
        0, pack_a.shared.shape[0])


# Row blocks of an overlap walk hold about this many bytes per factor.
_BLOCK_BYTES = 1 << 20


def _overlap_blocks(a: SumState, b: SumState, splits):
    """Yield (lo, each factor's overlap rows from lo) of ``a`` against ``b``,
    whose factors' ``_column_split`` are ``splits``, in row blocks of about
    ``_BLOCK_BYTES`` each, so no K x K matrix is held whole (Kolda and
    Bader, section 3: the term Gram is the Hadamard product of the factor
    overlaps, and each block of its rows needs only theirs)."""
    plans = [_overlap_rows(split) for split in splits]
    nblocks = _nblocks(a, b)
    edges = [a.nterms * j // nblocks for j in range(nblocks + 1)]
    for lo, hi in zip(edges, edges[1:]):
        yield lo, [rows(lo, hi) for rows in plans]


def _nblocks(a: SumState, b: SumState) -> int:
    """How many equal row blocks ``_overlap_blocks`` splits ``a``'s terms
    into."""
    step = max(1, _BLOCK_BYTES // (16 * max(b.nterms, 1)))
    return max(1, a.nterms // step)


def _block_form(x: np.ndarray, gram_rows: np.ndarray, y: np.ndarray,
                lo: int) -> complex:
    """x[lo:]^H G[lo:, :] y over the rows of G that ``gram_rows`` holds."""
    return complex(x[lo:lo + gram_rows.shape[0]].conj() @ gram_rows @ y)


def _distinct_rows(mat: np.ndarray) -> tuple:
    """(the distinct rows of ``mat``, told apart by their exact bytes, and
    the position of each row of ``mat`` among them)."""
    mat = np.ascontiguousarray(mat)
    if not mat.shape[1]:
        return mat[:1], np.zeros(mat.shape[0], dtype=np.intp)
    keys = mat.view(np.dtype((np.void, mat.itemsize * mat.shape[1])))
    _, first, where = np.unique(keys.ravel(), return_index=True,
                                return_inverse=True)
    return mat[first], where


def _core_summary(a: SumState, b: SumState, splits, pairs) -> tuple:
    """``_overlap_summary`` through each factor's dictionary of distinct
    rows, or None when a side's dictionary tensor has more cells than that
    side has terms (then the walk costs less).  Term k's row of a split's
    ``left`` is row u_k of its dictionary D_a, and term l's column of
    ``right`` row v_l of D_b, so O[k, l] = T[u_k, v_l], T = D_a^* D_b^T,
    plus the private entries at (k, l) in the walk's order.  A maximum reads
    |T| where a pair k != l without private entries falls, and x^H G y is
    <X| T_1 (x) ... (x) T_n |Y> (a Tucker core; Kolda and Bader, section 4)
    plus the private entries' change to G, X summing x onto the dictionary
    multi-indices."""
    cells, maps = [1, 1], []
    for left, right, private in splits:
        (da, u), (db, v) = _distinct_rows(left), _distinct_rows(right.T)
        cells = [cells[0] * da.shape[0], cells[1] * db.shape[0]]
        if cells[0] > a.nterms or cells[1] > b.nterms:
            return None
        maps.append((da, u, db, v, private))
    width, m = b.nterms, min(a.nterms, b.nterms)
    keys = np.unique(np.concatenate([np.empty(0, np.intp)] + [
        p[0] * width + p[1] for _, _, p in splits if p is not None]))
    k, l = np.divmod(keys, width)  # every (k, l) with a private entry
    mid = k == l
    off, cores, base, whole = [], [], [], []
    diagonals = np.empty((len(splits), m), np.complex128)
    for i, (da, u, db, v, private) in enumerate(maps):
        t = da.conj() @ db.T
        base.append(t[u[k], v[l]])
        whole.append(base[-1].copy())
        if private is not None:
            ra, rb, values = private
            np.add.at(whole[-1], keys.searchsorted(ra * width + rb), values)
        diagonals[i] = t[u[:m], v[:m]]
        diagonals[i, k[mid]] = whole[-1][mid]
        count = np.outer(np.bincount(u), np.bincount(v))
        np.subtract.at(count, (np.append(u[:m], u[k[~mid]]),
                               np.append(v[:m], v[l[~mid]])), 1)
        off.append(max(float(np.abs(t[count > 0]).max(initial=0.0)),
                       float(np.abs(whole[-1][~mid]).max(initial=0.0))))
        cores.append(t)
    change = reduce(np.multiply, whole) - reduce(np.multiply, base)
    shapes = [[p[side].shape[0] for p in maps] for side in (0, 2)]
    index = [np.ravel_multi_index([p[side + 1] for p in maps], shape)
             for side, shape in zip((0, 2), shapes)]
    forms = []
    for x, y in pairs:
        xs, ys = (np.bincount(at, z.real, c) + 1j * np.bincount(at, z.imag, c)
                  for at, z, c in zip(index, (x, y), cells))
        w = ys.reshape(shapes[1])
        for i, t in enumerate(cores):
            w = np.moveaxis(np.tensordot(t, w, axes=(1, i)), 0, i)
        forms.append(complex(np.vdot(xs, w) + x[k].conj() @ (change * y[l])))
    return tuple(off), diagonals, forms


def _overlap_summary(a: SumState, b: SumState, pairs=()) -> tuple:
    """(off, diagonals, forms): per factor, the largest |O[k, l]| with
    k != l and the diagonal O[k, k] for k < min(K_a, K_b), with no factors
    when a side has no terms; and x^H G y for each (x, y) in ``pairs``, G
    the term Gram.  One row block is read whole; more go through
    ``_core_summary`` if it accepts them, else through ``_overlap_blocks``."""
    forms = [0j] * len(pairs)
    if not (a.nterms and b.nterms):
        return (), (), forms
    splits = [_column_split(pa, pb) for pa, pb in zip(a._packed, b._packed)]
    if _nblocks(a, b) == 1:
        blocks = [(0, [_overlap_rows(s)(0, a.nterms) for s in splits])]
    else:
        core = _core_summary(a, b, splits, pairs)
        if core is not None:
            return core
        blocks = _overlap_blocks(a, b, splits)
    off = [0.0] * a.space.nfactors
    diagonals = np.empty((len(off), min(a.nterms, b.nterms)), np.complex128)
    for lo, ovs in blocks:
        height, width = ovs[0].shape
        stop = min(height, max(width - lo, 0)) * (width + 1)
        for i, ov in enumerate(ovs):
            mags = np.abs(ov, order="C")  # so reshape(-1) is a view
            mags.reshape(-1)[lo:stop:width + 1] = 0.0  # entries (j, lo + j)
            off[i] = max(off[i], float(mags.max()))
            del mags  # free before the next abs, which can reuse its memory
            diagonals[i, lo:lo + height] = ov.diagonal(lo)
        if pairs:
            g = reduce(np.multiply, ovs)
            forms = [s + _block_form(x, g, y, lo)
                     for s, (x, y) in zip(forms, pairs)]
    return tuple(off), diagonals, forms


def term_gram(a: SumState, b: SumState) -> np.ndarray:
    """G[k, l] = product over factors of <a_k^i | b_l^i> (coefficients excluded)."""
    _check_same_nfactors(a, b)
    return reduce(np.multiply, [_factor_overlap(a._packed[i], b._packed[i])
                                for i in range(a.space.nfactors)])


def _check_dense(dims) -> None:
    """Refuse a dense tensor of ``dims`` above ``DENSIFY_CEILING``."""
    if math.prod(dims) > DENSIFY_CEILING:
        raise CapacityError(f"dense dimension {math.prod(dims)} exceeds "
                            f"the ceiling {DENSIFY_CEILING}")


def _dense_zeros(dims) -> np.ndarray:
    """A zero tensor of ``dims``, refused above ``DENSIFY_CEILING``."""
    _check_dense(dims)
    return np.zeros(dims, dtype=np.complex128)


def _khatri_rao(mats) -> np.ndarray:
    """Row k is the Kronecker product of row k of each matrix, in order: the
    row-wise Khatri-Rao product (Kolda and Bader, section 2.6)."""
    return reduce(lambda x, y: (x[:, :, None] * y[:, None, :]).reshape(
        x.shape[0], -1), mats)


def _term_blocks(s: SumState, dims: tuple):
    """Yield (c o F_1, F_2 (.) ... (.) F_n), (.) the ``_khatri_rao`` product,
    for blocks of ``s``'s terms with the factor rows F_i cut or zero-padded
    to ``dims``: a block sums to (c o F_1)^T (F_2 (.) ... (.) F_n).  Its
    Khatri-Rao rows hold at most max(a tensor of ``dims``, ``_BLOCK_BYTES``)."""
    step = max(16 * math.prod(dims), _BLOCK_BYTES) // (16 * math.prod(dims[1:]))
    for lo in range(0, s.nterms, step):
        part = s if step >= s.nterms else s.take(
            np.arange(lo, min(lo + step, s.nterms)))
        first, *rest = [_dense_factor(part, i, d) for i, d in enumerate(dims)]
        yield part.coeffs[:, None] * first, _khatri_rao(rest)


def _padded_tensor(state, dims: tuple) -> np.ndarray:
    """The amplitude tensor of ``state`` zero-padded to ``dims``.  A
    SumState is built only up to ``DENSIFY_CEILING`` amplitudes, one GEMM
    per block of ``_term_blocks``."""
    if isinstance(state, SumState):
        out = _dense_zeros(dims).reshape(dims[0], -1)
        for first, rest in _term_blocks(state, dims):
            out += first.T @ rest
        return out.reshape(dims)
    if state.space.dims == tuple(dims):
        return state.tensor
    out = np.zeros(dims, dtype=np.complex128)
    out[tuple(slice(0, d) for d in state.space.dims)] = state.tensor
    return out


def _dense_factor(s: SumState, i: int, dim: int) -> np.ndarray:
    """Terms-by-``dim`` matrix of factor ``i``; indices at or beyond ``dim``
    (zero padding of a smaller dense operand) land in one extra column,
    which is cut off."""
    rows = s.rows[i]
    out = np.zeros((s.nterms, dim + 1), dtype=np.complex128)
    out[rows.entry_terms(), np.minimum(rows.indices, dim)] = rows.data
    return out[:, :dim]


def _columns(s: SumState) -> list:
    """One dims[i] x terms matrix per factor: column k is term k's vector."""
    return [np.ascontiguousarray(_dense_factor(s, i, d).T)
            for i, d in enumerate(s.space.dims)]


def _sum_inner(a: SumState, b: SumState) -> complex:
    """c_a^H (G_1 o G_2 o G_3) c_b: whole by ``term_gram`` when it fits one
    row block (sparing many tiny calls the walk's set-up), else as the one
    form of ``_overlap_summary``."""
    if a.nterms and b.nterms and _nblocks(a, b) == 1:
        return _block_form(a.coeffs, term_gram(a, b), b.coeffs, 0)
    return _overlap_summary(a, b, [(a.coeffs, b.coeffs)])[2][0]


def inner(a, b) -> complex:
    """<a|b>, conjugate-linear in the first argument.

    Dense operands with unequal dims are zero-padded to the larger space;
    SumState operands are combined through factor Gram matrices without
    densification; against a dense operand a SumState is cut to its dims.
    """
    _check_same_nfactors(a, b)
    if isinstance(a, DenseState) and isinstance(b, DenseState):
        dims = tuple(max(x, y) for x, y in zip(a.space.dims, b.space.dims))
        return complex(np.vdot(_padded_tensor(a, dims), _padded_tensor(b, dims)))
    if isinstance(a, SumState) and isinstance(b, SumState):
        return a._self_inner if a is b else _sum_inner(a, b)
    if isinstance(a, DenseState) and isinstance(b, SumState):
        # vdot(A, F^T K) = vdot(conj(F) A, K): no block builds a dense tensor
        mat = a.tensor.reshape(a.space.dims[0], -1)
        return complex(sum((np.vdot(first.conj() @ mat, rest)
                            for first, rest in _term_blocks(b, a.space.dims)),
                           0j))
    if isinstance(a, SumState) and isinstance(b, DenseState):
        return complex(inner(b, a)).conjugate()
    raise TypeError(f"unsupported operands: {type(a).__name__}, {type(b).__name__}")


def norm(s) -> float:
    """sqrt(<s|s>); always >= 0."""
    return math.sqrt(max(inner(s, s).real, 0.0))


def hermitian_eigvalsh(mat: np.ndarray) -> tuple:
    """(largest entry of |mat - mat^H|, ascending eigenvalues of the
    Hermitian part (mat + mat^H) / 2) of a square matrix."""
    adjoint = mat.conj().T
    gap = float(np.abs(mat - adjoint).max()) if mat.size else 0.0
    return gap, np.linalg.eigvalsh((mat + adjoint) / 2.0)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian PSD reduced state on a subset of factors.

    ``dims`` are the block dimensions of ``matrix`` per kept factor.  When the
    matrix was compacted onto the basis indices a SumState actually touches,
    ``basis`` records, per kept factor, which ambient index each block
    position stands for (``None`` means the identity labelling).
    Validation decomposes the matrix once; ``herm_gap`` and the ascending
    ``eigenvalues`` it found are kept for ``spectral.spectrum``.
    """

    matrix: np.ndarray
    dims: tuple
    kept_factors: tuple
    basis: tuple = None
    trace: float = field(init=False, default=0.0)
    herm_gap: float = field(init=False, default=0.0, repr=False)
    eigenvalues: np.ndarray = field(init=False, default=None, repr=False)

    def __post_init__(self):
        dims = tuple(check_integer("block dimension", d, 1) for d in self.dims)
        kept = tuple(check_integer("kept factor", k, 0) for k in self.kept_factors)
        basis = None if self.basis is None else tuple(
            tuple(_integer_array("basis", b).tolist()) for b in self.basis)
        sizes = dims if basis is None else tuple(map(len, basis))
        if len(kept) != len(dims) or sizes != dims:
            raise DimensionMismatchError(f"block dims {dims} do not fit kept "
                                         f"factors {kept} and basis {basis}")
        if len({*kept}) < len(kept) or any(len({*x}) < len(x) for x in basis or ()):
            raise InvalidStateError(f"kept factors {kept} or basis {basis} repeat")
        d = math.prod(dims)
        if np.shape(self.matrix) != (d, d):
            raise DimensionMismatchError(f"matrix shape {np.shape(self.matrix)} "
                                         f"does not match block dims {dims}")
        mat = _finite_complex("density matrix entries", self.matrix)
        herm_gap, eigenvalues = hermitian_eigvalsh(mat)
        if herm_gap > DEFAULT_TOLERANCES.herm:
            raise InvalidStateError(f"not Hermitian: gap {herm_gap!r}")
        eigmin = float(eigenvalues[0])
        if eigmin < -DEFAULT_TOLERANCES.psd:
            raise InvalidStateError(f"not PSD: min eigenvalue {eigmin!r}")
        tr = float(np.trace(mat).real)
        if not 0.0 < tr <= 1.0 + DEFAULT_TOLERANCES.norm:
            raise InvalidStateError(f"trace {tr!r} outside (0, 1]")
        mat.flags.writeable = False
        eigenvalues.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "herm_gap", herm_gap)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "kept_factors", kept)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "trace", tr)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)


def _split_factors(keep, nfactors: int) -> tuple:
    """(keep, rest): ``keep`` sorted and checked, and the other factors."""
    keep = tuple(sorted({check_integer("factor index", k, 0) for k in keep}))
    if not keep or len(keep) >= nfactors:
        raise InvalidStateError(
            "keep must be a nonempty proper subset of the factors")
    if keep[-1] >= nfactors:
        raise InvalidStateError(f"factor index out of range: {keep}")
    return keep, tuple(i for i in range(nfactors) if i not in keep)


def _matricize(s: DenseState, keep: tuple, rest: tuple) -> np.ndarray:
    """The amplitudes with rows over the factors ``keep``, columns ``rest``."""
    rows = math.prod(s.space.dims[i] for i in keep)
    return s.tensor.transpose(keep + rest).reshape(rows, -1)


_HERK_CELLS = 4096  # below this many cells of M, one GEMM costs less


def _gram(mat: np.ndarray) -> np.ndarray:
    """M M^H, the reduced state on the rows of a matricization M: from
    ``_HERK_CELLS`` cells up, one BLAS ``zherk`` (half a GEMM's flops) on
    whichever of M and M^T is Fortran-ordered: no contiguous M is copied."""
    if mat.size < _HERK_CELLS:
        return mat @ mat.conj().T
    if mat.flags.f_contiguous:
        low = zherk(1.0, mat, lower=1)
    else:
        low = zherk(1.0, mat.T, trans=2).T  # ((M^T)^H M^T)^T = M M^H
    gram = low + low.conj().T
    gram.flat[::mat.shape[0] + 1] *= 0.5  # the diagonal was added twice
    return gram


def partial_trace_matrix(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace of an arbitrary (not necessarily PSD) square matrix.

    ``mat`` acts on the product space with factor ``dims``; the result acts
    on the factors in ``keep``, a nonempty proper subset, in ascending order.
    """
    dims = tuple(check_integer("dimension", d, 1) for d in dims)
    nf = len(dims)
    keep, _ = _split_factors(keep, nf)
    d = math.prod(dims)
    if np.shape(mat) != (d, d):
        raise DimensionMismatchError(f"matrix shape {np.shape(mat)} vs dims {dims}")
    tensor = _square_matrix(mat).reshape(dims + dims)
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
        keep, traced = _split_factors(keep, s.space.nfactors)
        return DensityMatrix(_gram(_matricize(s, keep, traced)),
                             tuple(s.space.dims[i] for i in keep), keep)
    if isinstance(s, SumState):
        keep, traced = _split_factors(keep, s.space.nfactors)
        if not s.nterms:
            raise InvalidStateError("cannot reduce the zero state")
        mix = np.outer(s.coeffs, s.coeffs.conj())
        for i in traced:
            mix = mix * _factor_overlap(s._packed[i], s._packed[i]).T
        touched, fmats = zip(*(s._packed[i] for i in keep))
        # column k of cols is term k on the kept factors' touched indices
        cols = _khatri_rao(fmats).T
        rho = cols @ mix @ cols.conj().T
        rho = (rho + rho.conj().T) / 2.0
        return DensityMatrix(rho, tuple(t.size for t in touched), keep,
                             basis=touched)
    if isinstance(s, DensityMatrix):
        positions = tuple(sorted({check_integer("factor index", k, 0) for k in keep}))
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
    When both already share one strictly increasing labelling, that is the
    union, and the (read-only) matrices are returned as they are.
    """
    if len(a.dims) != len(b.dims):
        raise DimensionMismatchError("reduced states keep different factor counts")
    ba, bb = ([np.arange(d) for d in dm.dims] if dm.basis is None
              else [np.array(x, dtype=np.intp) for x in dm.basis]
              for dm in (a, b))
    if all(np.array_equal(x, y) and (x[1:] > x[:-1]).all()
           for x, y in zip(ba, bb)):
        return a.matrix, b.matrix
    unions = [np.union1d(x, y) for x, y in zip(ba, bb)]
    udims = tuple(u.size for u in unions)
    out = np.zeros((2,) + (math.prod(udims),) * 2, dtype=np.complex128)
    for embedded, dm, bases in zip(out, (a, b), (ba, bb)):
        flat = np.ravel_multi_index(np.ix_(*[
            u.searchsorted(x) for u, x in zip(unions, bases)]), udims).ravel()
        embedded[np.ix_(flat, flat)] = dm.matrix
    return out[0], out[1]


def _vector_row(vec) -> tuple:
    if not isinstance(vec, np.ndarray) or vec.ndim != 1:
        raise InvalidStateError("a factor vector must be a 1-D array")
    idx = np.nonzero(vec)[0]
    return (0, idx.size), idx, vec[idx]


def project_factor(s, i: int, phi,
                   tolerances: Tolerances = DEFAULT_TOLERANCES):
    """Collapse factor ``i`` onto ``phi``, a unit vector within
    ``tolerances.norm``: returns |phi><phi| on factor ``i`` applied to ``s``.

    The result is generally subnormalized and keeps the input representation.
    """
    i = check_integer("factor index", i, 0)
    if i >= s.space.nfactors:
        raise DimensionMismatchError(f"factor index {i} out of range")
    indptr, indices, data = _vector_row(phi)
    n = float(np.linalg.norm(data))
    if not abs(n - 1.0) <= tolerances.norm:  # NaN fails too
        raise InvalidStateError(f"projection vector has norm {n!r}, expected 1")
    row = _canonical_rows(i, s.space.dims[i], 1, indptr, indices, data / n)
    if isinstance(s, DenseState):
        v = np.zeros(s.space.dims[i], dtype=np.complex128)
        v[indices] = data
        contracted = np.tensordot(v.conj(), s.tensor, axes=(0, i))
        out = np.moveaxis(np.multiply.outer(v, contracted), 0, i)
        return DenseState(s.space, out.ravel(), normalized=None)
    if isinstance(s, SumState):
        overlap = _factor_overlap(FactorPack(row), s._packed[i])[0]
        k, width = s.nterms, row.indices.size
        rows = list(s.rows)
        rows[i] = _frozen_rows(np.arange(k + 1) * width,
                               np.tile(row.indices, k), np.tile(row.data, k))
        return SumState._trusted(s.space, s.coeffs * overlap * n * n, rows)
    raise TypeError(f"unsupported operand: {type(s).__name__}")


def _square_matrix(a) -> np.ndarray:
    """The matrix of a DensityMatrix, or ``a`` as a square complex array."""
    if isinstance(a, DensityMatrix):
        return a.matrix
    mat = _finite_complex("matrix entries", a)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidStateError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def trace_norm(a) -> float:
    """Sum of singular values (trace-class norm)."""
    return float(np.linalg.svd(_square_matrix(a), compute_uv=False).sum())


def haar_random_state(space: ProductSpace, seed: int) -> DenseState:
    """Seeded Haar-random wavefunction (normalized complex Gaussian)."""
    rng = np.random.default_rng(check_integer("seed", seed, 0))
    z = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return DenseState(space, z / np.linalg.norm(z), normalized=True)


def densify(s: SumState) -> DenseState:
    """Materialize a SumState; refuses spaces above ``DENSIFY_CEILING``."""
    return DenseState(s.space, _padded_tensor(s, s.space.dims).ravel(),
                      normalized=None)


def sparsify(s: DenseState) -> SumState:
    """Basis-aligned SumState: one term per nonzero amplitude."""
    pos = np.nonzero(s.amplitudes)[0]
    ones = np.ones(pos.size, dtype=np.complex128)
    steps = np.arange(pos.size + 1)
    rows = [_frozen_rows(steps, multi, ones.copy())
            for multi in np.unravel_index(pos, s.space.dims)]
    return SumState._trusted(s.space, s.amplitudes[pos], rows)


def as_dense(s) -> DenseState:
    """Dense view of any state representation."""
    if isinstance(s, DenseState):
        return s
    if isinstance(s, SumState):
        return densify(s)
    raise TypeError(f"unsupported operand: {type(s).__name__}")
