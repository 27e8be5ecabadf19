"""Schmidt decomposition, product-sum decompositions of three-factor states,
uniqueness-condition certificates, triorthogonal extraction, and equivalence.

A decomposition that passes its variant's certificate is guaranteed unique
(up to term order and phases), so verification stands in for re-proving
uniqueness.  Extraction goes through the Schmidt structure: a triorthogonal
decomposition is simultaneously a Schmidt decomposition across every
bipartition, which pins the coefficients and, away from degeneracies, the
components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.optimize import linear_sum_assignment

from .config import DEFAULT_TOLERANCES, Tolerances, check_tolerance, json_fields
from .errors import DimensionMismatchError, InvalidStateError
from .spectral import _padded_spectra, _spectra_agree
from .states import (
    DenseState,
    FactorPack,
    ProductSpace,
    SumState,
    _dense_factor,
    _factor_overlap,
    _finite_complex,
    _frozen_rows,
    _gram,
    _khatri_rao,
    _matricize,
    _overlap_summary,
    _split_factors,
    _term_distance,
    as_dense,
    distance,
    norm,
    partial_trace,
    term_gram,
)


class Variant(Enum):
    """Which uniqueness conditions a decomposition claims to satisfy."""

    LI_TWO_FACTORS = "LI_TWO_FACTORS"   # two factors independent, third with no collinear pair
    LI_ALL = "LI_ALL"                   # all three factors linearly independent
    ORTHONORMAL = "ORTHONORMAL"         # all three factors orthonormal


# ---------------------------------------------------------------------------
# Schmidt decomposition


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    space: ProductSpace
    bipartition: tuple          # (left factor indices, right factor indices)
    coefficients: np.ndarray    # descending positive reals
    left_vectors: np.ndarray    # dim_left x rank, orthonormal columns
    right_vectors: np.ndarray   # dim_right x rank, orthonormal columns

    def reconstruct(self) -> DenseState:
        left, right = self.bipartition
        mat = (self.left_vectors * self.coefficients) @ self.right_vectors.T
        tensor = mat.reshape([self.space.dims[i] for i in left] +
                             [self.space.dims[i] for i in right])
        order = list(left) + list(right)
        inverse = np.argsort(order)
        return DenseState(self.space,
                          tensor.transpose(inverse).ravel(), normalized=None)


def _leading_amplitudes(owner, data: np.ndarray, n: int) -> np.ndarray:
    """Each of ``n`` vectors' first amplitude above the default zero cut (0
    where none is), which the one phase rule turns real positive; ``data``
    holds the vectors' entries in index order, ``owner`` their vectors."""
    sig = np.nonzero(np.abs(data) > DEFAULT_TOLERANCES.zero_coeff)[0]
    vec, first = np.unique(owner[sig], return_index=True)
    lead = np.zeros(n, dtype=np.complex128)
    lead[vec] = data[sig[first]]
    return lead


def _degenerate_groups(values, width: float) -> list:
    """(start, stop) slices of descending ``values`` that form degeneracy
    groups: a group continues while each value is within ``width`` of the
    one before it, so a chain of near-ties is one group."""
    groups, start = [], 0
    for j in range(1, len(values)):
        if values[j - 1] - values[j] > width:
            groups.append((start, j))
            start = j
    if len(values):
        groups.append((start, len(values)))
    return groups


def _lexicographic(vectors: np.ndarray) -> np.ndarray:
    """Stable order of the rows of ``vectors`` by their entries' real and
    imaginary parts in index order: the tie rule inside a degeneracy block."""
    flat = np.ascontiguousarray(vectors, dtype=np.complex128).view(float)
    return np.lexsort(flat.T[::-1])


def _short_side_svd(mat: np.ndarray, zero_cut: float,
                    gram: np.ndarray = None) -> tuple:
    """Thin SVD (u, s, vh) of ``mat`` = M, values above ``zero_cut`` only
    (a direct SVD: Halko, Martinsson and Tropp, SIAM Rev. 53 (2011), 5.1).

    The work runs on M's short side: a tall M is decomposed through its
    adjoint, whose SVD is M's with the sides swapped.  The eigenvectors U of
    the short side's Gram M M^H (``gram`` when given, which only a wide or
    square M reads) rotate M into B = U^H M; the smallest rows of B are
    dropped while their joint norm, exactly ||M - U_k B_k||_F, stays within
    min(zero_cut, m eps ||M||_F) for M's m rows.  The kept rows B_k = X S Y^H
    go to LAPACK, so no vector is read off an eigenvector as M^H u / s.
    """
    if mat.shape[0] > mat.shape[1]:
        u, s, vh = _short_side_svd(mat.conj().T, zero_cut)
        return vh.conj().T, s, u.conj().T
    rot = np.linalg.eigh(_gram(mat) if gram is None else gram)[1]
    b = rot.conj().T @ mat
    sq = np.einsum("ij,ij->i", b.view(float), b.view(float))
    order = np.argsort(sq)
    # ||B||_F = ||M||_F, as U is unitary
    floor = min(zero_cut, mat.shape[0] * np.finfo(float).eps
                * math.sqrt(sq.sum()))
    keep = order[np.searchsorted(np.cumsum(sq[order]), floor ** 2,
                                 side="right"):]
    x, s, yh = np.linalg.svd(b[keep], full_matrices=False)
    big = s > zero_cut
    return (rot[:, keep] @ x)[:, big], s[big], yh[big]


def schmidt(psi, left, tolerances: Tolerances = DEFAULT_TOLERANCES
            ) -> SchmidtDecomposition:
    """SVD of the amplitude matrix across ``left`` | complement.

    Coefficients come back descending; those at or below
    ``tolerances.zero_coeff`` are dropped.  Each left vector's leading
    amplitude is made real positive; ties within the degeneracy width are
    ordered by lexicographic comparison of the left vectors.
    """
    psi_d = as_dense(psi)
    left, right = _split_factors(left, psi_d.space.nfactors)
    if np.linalg.norm(psi_d.amplitudes) == 0.0:
        raise InvalidStateError("cannot decompose the zero state")
    u, s, vh = _short_side_svd(_matricize(psi_d, left, right),
                               tolerances.zero_coeff)
    v = vh.T
    lead = _leading_amplitudes(np.arange(s.size).repeat(u.shape[0]),
                               u.T.ravel(), s.size)
    for j in np.nonzero(lead)[0]:
        phase = lead[j] / abs(lead[j])
        u[:, j], v[:, j] = u[:, j] / phase, v[:, j] * phase
    # deterministic tie-breaking inside degenerate groups
    order = np.arange(s.size)
    for i, j in _degenerate_groups(s, tolerances.deg):
        order[i:j] = i + _lexicographic(u[:, i:j].T)
    return SchmidtDecomposition(psi_d.space, (left, right), s[order],
                                u[:, order], v[:, order])


def schmidt_rank(psi, left, tol: float) -> int:
    """Number of Schmidt coefficients above ``tol``; 1 means a product."""
    check_tolerance("tol", tol)
    psi_d = as_dense(psi)
    left, right = _split_factors(left, psi_d.space.nfactors)
    s = np.linalg.svd(_matricize(psi_d, left, right), compute_uv=False)
    return int((s > tol).sum())


def linear_independence(vectors, tol: float):
    """Smallest singular value of the column matrix, and whether it beats tol.

    The vectors are 1-D arrays of one length.  More vectors than that length
    is structural dependence, decided without an SVD: (0.0, False).
    """
    check_tolerance("tol", tol)
    vectors = list(vectors)
    if not vectors:
        raise InvalidStateError("need at least one vector")
    if not all(isinstance(v, np.ndarray) and v.ndim == 1 for v in vectors):
        raise InvalidStateError("vectors must be 1-D arrays")
    length = vectors[0].shape[0]
    if any(v.shape[0] != length for v in vectors):
        raise DimensionMismatchError("vectors have mixed dimensions")
    if len(vectors) > length:
        return 0.0, False
    mat = _finite_complex("vectors", np.column_stack(vectors))
    smin = float(np.linalg.svd(mat, compute_uv=False)[-1])
    return smin, smin > tol


def _factor_independence(pack: FactorPack, tol: float) -> tuple:
    """(sigma_min or a lower bound on it, method) for one factor's components.

    Split the packed matrix M as its shared columns S plus the columns only
    one term touches; then M M^H = S S^H + diag(||p_k||^2), so by Weyl
    sigma_min(M) >= min_k ||p_k||.  That O(nnz) bound certifies independence
    when it clears ``tol``; otherwise the exact SVD decides.  With more terms
    than columns some term owns no private column, so the bound is 0.
    """
    bound = float(pack.private_norms().min())
    if bound > tol:
        return bound, "private_support"
    return linear_independence(list(pack.matrix()), tol)[0], "svd"


# ---------------------------------------------------------------------------
# Product-sum decompositions


@dataclass(frozen=True)
class TriCertificate:
    """Outcome of checking a decomposition against its variant's conditions."""

    passed: bool
    variant: str
    failed_condition: str
    reconstruction_error: float
    min_coefficient: float
    min_singular_values: tuple
    li_method: tuple
    max_offdiag_overlaps: tuple
    max_pairwise_overlaps: tuple
    li_factors: tuple
    tolerances: dict

    def to_json(self) -> dict:
        return json_fields(self)


@dataclass(frozen=True, eq=False)
class TriDecomposition:
    """Finite sum of weighted three-factor product terms, held as one
    ``SumState``.

    ``state`` may also be given as ``ProductTerm`` objects, which are built
    into a SumState (and validated) at construction.  A decomposition built
    from a state shares it, so its packs are computed once.
    """

    space: ProductSpace
    state: SumState
    variant: Variant
    certificate: TriCertificate = None

    def __post_init__(self):
        if self.space.nfactors != 3:
            raise InvalidStateError("decompositions are defined on 3 factors")
        if not isinstance(self.state, SumState):
            object.__setattr__(self, "state", SumState(self.space, self.state))
        elif self.state.space != self.space:
            raise DimensionMismatchError(
                "the state's space differs from the decomposition's")
        object.__setattr__(self, "variant", Variant(self.variant))

    @property
    def nterms(self) -> int:
        return self.state.nterms

    @property
    def coefficients(self) -> np.ndarray:
        return self.state.coeffs.copy()


@dataclass(frozen=True)
class Block:
    """Terms sharing one coefficient magnitude in an ordered decomposition."""

    magnitude: float
    indices: tuple


@dataclass(frozen=True, eq=False)
class OrderedTriortho:
    """Orthonormal-variant decomposition in degeneracy blocks of strictly
    decreasing magnitude (a block's largest |a|), so |a| is non-increasing
    across blocks; a block's terms follow their factor-0 components."""

    decomposition: TriDecomposition
    blocks: tuple

    @property
    def nblocks(self) -> int:
        return len(self.blocks)


def _by_magnitude(state: SumState) -> tuple:
    """(the terms sorted stably by descending |a|, and those |a|)."""
    mags = np.abs(state.coeffs)
    order = np.argsort(-mags, kind="stable")
    return state.take(order), mags[order]


def ordered_triortho(d: TriDecomposition,
                     tolerances: Tolerances = DEFAULT_TOLERANCES
                     ) -> OrderedTriortho:
    """Sort terms by descending |a|, group them by ``tolerances.deg`` and
    order each block by its factor-0 components, as ``schmidt`` orders a
    tied block's left vectors."""
    if d.variant is not Variant.ORTHONORMAL:
        raise InvalidStateError("ordering is defined for orthonormal decompositions")
    state, mags = _by_magnitude(d.state)
    groups = _degenerate_groups(mags, tolerances.deg)
    order = np.arange(state.nterms)
    for i, j in groups:
        if j - i > 1:  # densify only the block's factor-0 rows
            order[i:j] = i + _lexicographic(_dense_factor(
                state.take(order[i:j]), 0, d.space.dims[0]))
    blocks = tuple(Block(float(mags[i]), tuple(range(i, j)))
                   for i, j in groups)
    return OrderedTriortho(replace(d, state=state.take(order)), blocks)


def truncate_terms(d: TriDecomposition, delta: float) -> TriDecomposition:
    """Drop terms with |a_k| <= delta (preprocessing for near-infinite sums)."""
    if not (math.isfinite(delta) and delta >= 0):
        raise InvalidStateError(f"need a finite delta >= 0, got {delta!r}")
    kept = [k for k, c in enumerate(d.coefficients.tolist()) if abs(c) > delta]
    return TriDecomposition(d.space, d.state.take(kept), d.variant)


def _on_own_rows(dec: SumState, psi) -> bool:
    """Whether ``psi`` is a SumState on the same space and rows as ``dec``."""
    return psi is dec or (
        isinstance(psi, SumState) and psi.space == dec.space
        and all(np.array_equal(x, y) for a, b in zip(psi.rows, dec.rows)
                for x, y in zip(a, b)))


def verify_tridecomposition(d: TriDecomposition, psi,
                            tolerances: Tolerances = DEFAULT_TOLERANCES
                            ) -> TriCertificate:
    """Check reconstruction, coefficients, and the variant's conditions.

    A passing certificate means the decomposition is THE decomposition of
    ``psi`` for its variant, up to re-ordering and phase changes.
    """
    tol_echo = tolerances.as_dict()
    dec = d.state
    min_sv, li_method = [], []
    for pack in dec._packed if d.nterms else ():
        sv, method = _factor_independence(pack, tolerances.li)
        min_sv.append(sv)
        li_method.append(method)
    # one walk over the factor overlaps: maxima, diagonals and, for a target
    # on dec's own rows, both self products (as _sum_inner sums them) and the
    # residual's form (x - y)^H G (x - y), which has no cancellation to round
    pairs = ()
    if _on_own_rows(dec, psi):
        x, y = psi.coeffs, dec.coeffs
        pairs = ((x, x), (y, y), (x - y, x - y))
    max_pair, diagonals, forms = _overlap_summary(dec, dec, pairs)
    max_off = [max(p, float(np.abs(g - 1.0).max()))
               for p, g in zip(max_pair, diagonals)]

    def certificate(failed, recon, min_coeff, li_factors=None):
        return TriCertificate(
            passed=failed is None,
            variant=d.variant.value,
            failed_condition=failed,
            reconstruction_error=recon,
            min_coefficient=min_coeff,
            min_singular_values=tuple(min_sv),
            li_method=tuple(li_method),
            max_offdiag_overlaps=tuple(max_off),
            max_pairwise_overlaps=tuple(max_pair),
            li_factors=li_factors,
            tolerances=tol_echo,
        )

    if not d.nterms:
        return certificate("no_terms", math.inf, 0.0)
    min_coeff = float(np.abs(dec.coeffs).min())
    if min_coeff <= tolerances.zero_coeff:
        return certificate("zero_coefficient", math.nan, min_coeff)
    if pairs:
        pp, dd, rr = forms
        psi.__dict__.setdefault("_self_inner", pp)
        dec.__dict__.setdefault("_self_inner", dd)
        recon = math.sqrt(max(rr.real, 0.0))
    else:
        recon = distance(psi, dec)
    if recon > tolerances.recon:
        return certificate("reconstruction", recon, min_coeff)

    if d.variant is Variant.LI_TWO_FACTORS:
        # some pair independent, remaining factor free of collinear pairs
        for third in (2, 1, 0):
            pair = tuple(i for i in range(3) if i != third)
            if all(min_sv[i] > tolerances.li for i in pair) and \
                    max_pair[third] < 1.0 - tolerances.orth:
                return certificate(None, recon, min_coeff, li_factors=pair)
        return certificate("two_factor_independence", recon, min_coeff)
    # LI_ALL and ORTHONORMAL: the first factor to fail names the condition
    li_all = d.variant is Variant.LI_ALL
    fails = (np.less_equal(min_sv, tolerances.li) if li_all
             else np.greater_equal(max_off, tolerances.orth))
    name = "linear_independence" if li_all else "orthonormality"
    failed = f"{name}_factor_{fails.argmax()}" if fails.any() else None
    return certificate(failed, recon, min_coeff)


def canonical_phase(d: TriDecomposition, reference: TriDecomposition = None
                    ) -> TriDecomposition:
    """Push component phases into the coefficients; rank-1 terms are unchanged.

    Without a reference, each component's first entry above the default
    zero cut becomes real positive.  With a reference (terms matched
    positionally), phases are chosen so <component | reference component> >= 0.
    """
    state = d.state
    if reference is not None and reference.nterms != state.nterms:
        raise InvalidStateError(f"reference has {reference.nterms} terms")
    coeffs, rows = state.coeffs, []
    for i, r in enumerate(state.rows):
        if reference is None:
            lead = _leading_amplitudes(r.entry_terms(), r.data, state.nterms)
            turn = -1j
        else:
            lead = np.diagonal(_factor_overlap(
                state._packed[i], reference.state._packed[i]))
            turn = 1j
        mult = np.where(np.abs(lead) > DEFAULT_TOLERANCES.zero_coeff,
                        np.exp(turn * np.angle(lead)), 1.0)
        rows.append(_frozen_rows(r.indptr, r.indices,
                                 r.data * mult.repeat(np.diff(r.indptr))))
        coeffs = coeffs * mult.conj()
    return replace(d, state=SumState._trusted(d.space, coeffs, rows))


def decompositions_equivalent(d1: TriDecomposition, d2: TriDecomposition,
                              tol: float,
                              tolerances: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """True iff a term bijection matches |a_k| and the rank-1 term tensors.

    Terms are sorted by descending |a|; inside each degeneracy group the
    pairing is the optimal assignment on the |<term|term>| matrix, since a
    greedy match can fail under degeneracy.
    """
    check_tolerance("tol", tol)
    if d1.nterms != d2.nterms:
        return False
    if d1.nterms == 0:
        return True

    s1, mags1 = _by_magnitude(d1.state)
    s2, mags2 = _by_magnitude(d2.state)
    if np.max(np.abs(mags1 - mags2)) > tol:
        return False
    gram = term_gram(s1, s2)
    for i, j in _degenerate_groups(mags1, tolerances.deg):
        rows, cols = linear_sum_assignment(-np.abs(gram[i:j, i:j]))
        for a, b in zip(rows + i, cols + i):
            if abs(mags1[a] - mags2[b]) > tol:
                return False
            if _term_distance(s1, a, s2, b) > tol:
                return False
    return True


# ---------------------------------------------------------------------------
# Triorthogonal extraction


@dataclass(frozen=True)
class NotTriorthogonal:
    """Certified absence of a triorthogonal decomposition."""

    reason: str


@dataclass(frozen=True)
class Undetermined:
    """Extraction could not certify either way (degenerate block unresolved)."""

    reason: str


def _tied_products(mats: np.ndarray, tol: float):
    """Candidate products b_k (x) c_k, as rows (b, c), for a tied Schmidt
    group whose right vectors are the d2 x d3 matrices ``mats``; or an
    Undetermined.  The b_k are the eigenvectors of one seeded joint
    reduction on the middle factor, with distinct leading eigenvalues.  If
    the group is triorthogonal, b_k^H M_j = w_jk c_k^T with
    sum_j |w_jk|^2 = 1, so c_k is the largest contraction, normalized."""
    g, _, d3 = mats.shape
    for attempt in range(3):
        rng = np.random.default_rng([0, attempt])
        b = rng.standard_normal((d3, d3)) + 1j * rng.standard_normal((d3, d3))
        h = b @ b.conj().T
        weight = np.eye(d3) + h / np.linalg.norm(h, 2)
        joint = sum(m @ weight.T @ m.conj().T for m in mats)
        joint = (joint + joint.conj().T) / 2.0
        vals, vecs = np.linalg.eigh(joint)
        vals, vecs = vals[::-1], vecs[:, ::-1]
        if vals.size < g or vals[g - 1] < 0.5:
            return Undetermined("degenerate block has deficient joint reduction")
        gaps = -np.diff(vals[:g])
        if (vals[g - 1] - (vals[g] if vals.size > g else 0.0)) < tol or \
                (gaps.size and gaps.min() < tol):
            continue  # weight collision; retry with a fresh seed
        mids = vecs[:, :g].T
        con = np.einsum("ka,jab->jkb", mids.conj(), mats)  # b_k^H M_j
        ends = con[np.linalg.norm(con, axis=2).argmax(axis=0), np.arange(g)]
        return mids, ends / np.linalg.norm(ends, axis=1, keepdims=True)
    return Undetermined("could not separate a degenerate coefficient block")


def _split_group(lefts, mats, svals, tolerances: Tolerances):
    """[coefficients, left, mid, right columns] of one Schmidt group, whose
    right vectors are the d2 x d3 matrices ``mats``, or a verdict.  A lone
    vector's candidate is its top singular pair, a tied group's come from
    ``_tied_products``; either way the products X must span the right
    vectors R, U = R^H X unitary within sqrt(deg), and the terms are the
    columns of (L s) conj(U).  A triorthogonal group's candidates are
    exact, so a failed span certifies absence."""
    g = svals.size
    if g == 1:
        x, s, yh = np.linalg.svd(mats[0], full_matrices=False)
        residual = float(s[1]) if s.size > 1 else 0.0
        if residual > 10 * tolerances.orth:
            return NotTriorthogonal(
                "a nondegenerate Schmidt vector is not a product "
                f"(residual {residual:.3e})")
        mids, ends = x[:, :1].T, yh[:1]
    else:
        found = _tied_products(mats, tolerances.deg)
        if isinstance(found, Undetermined):
            return found
        mids, ends = found
    unitary = mats.reshape(g, -1).conj() @ _khatri_rao([mids, ends]).T
    if np.abs(unitary.conj().T @ unitary - np.eye(g)).max() > \
            math.sqrt(tolerances.deg):
        return NotTriorthogonal(
            "degenerate block products do not span the Schmidt block")
    weighted = (lefts * svals) @ unitary.conj()
    coeffs = np.linalg.norm(weighted, axis=0)
    return [coeffs, weighted / coeffs, mids.T, ends.T]


def extract_triortho(psi, tolerances: Tolerances = DEFAULT_TOLERANCES):
    """Extract the triorthogonal decomposition of a three-factor wavefunction.

    Returns an OrderedTriortho on success, NotTriorthogonal when absence is
    certified, and Undetermined when a degenerate block resists resolution.
    """
    psi_d = as_dense(psi)
    if psi_d.space.nfactors != 3:
        raise InvalidStateError("extraction is defined on 3 factors")
    n = norm(psi_d)
    if abs(n - 1.0) > tolerances.norm:
        raise InvalidStateError(f"expected a wavefunction, norm = {n!r}")
    # factor 0's reduction is the Gram the Schmidt SVD reads if 0 is short
    rhos = [partial_trace(psi_d, (i,)) for i in range(3)]
    if not _spectra_agree(_padded_spectra(rhos, tolerances), tolerances.deg):
        return NotTriorthogonal("reduced spectra disagree across the factors")

    lefts, svals, vh = _short_side_svd(_matricize(psi_d, (0,), (1, 2)),
                                       tolerances.zero_coeff, rhos[0].matrix)
    mats = vh.reshape(-1, *psi_d.space.dims[1:])
    parts = []
    for i, j in _degenerate_groups(svals, tolerances.deg):
        part = _split_group(lefts[:, i:j], mats[i:j], svals[i:j], tolerances)
        if isinstance(part, (NotTriorthogonal, Undetermined)):
            return part
        parts.append(part)
    coeffs, *comps = (np.concatenate(x, axis=-1) for x in zip(*parts))
    assembled = SumState.from_columns(psi_d.space, coeffs, comps)
    candidate = canonical_phase(
        TriDecomposition(psi_d.space, assembled, Variant.ORTHONORMAL))
    cert = verify_tridecomposition(candidate, psi_d, tolerances)
    if not cert.passed:
        return NotTriorthogonal(
            f"assembled candidate fails {cert.failed_condition}")
    return ordered_triortho(replace(candidate, certificate=cert), tolerances)
