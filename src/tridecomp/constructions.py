"""Exact generators for the named example families, witnesses, and the
instability constructions, parameterized as in their defining statements.

Every generator self-checks the invariants its output is supposed to carry
(certificates, norms, overlap ceilings) and raises VerificationError when a
check fails, so a returned bundle is already verified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances, check_integer
from .decomp import (
    TriDecomposition,
    Variant,
    ordered_triortho,
    OrderedTriortho,
    verify_tridecomposition,
)
from .errors import (
    CapacityError,
    InvalidStateError,
    PreconditionError,
    VerificationError,
)
from .states import (
    DenseState,
    DensityMatrix,
    ProductSpace,
    SumState,
    _columns,
    _dense_zeros,
    _khatri_rao,
    _overlap_summary,
    _vector_row,
    combine,
    densify,
    distance,
    inner,
    norm,
    partial_trace,
    sparsify,
    trace_norm,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _basis_vec(dim: int, n: int) -> np.ndarray:
    v = np.zeros(dim, dtype=np.complex128)
    v[n] = 1.0
    return v


def _check_theta(theta: float):
    if not 0.0 < theta <= math.pi / 2.0:
        raise InvalidStateError(f"theta must lie in (0, pi/2], got {theta!r}")


def _verified(d: TriDecomposition, target, tolerances) -> TriDecomposition:
    cert = verify_tridecomposition(d, target, tolerances)
    if not cert.passed:
        raise VerificationError(
            f"generator self-check failed: {cert.failed_condition}")
    return TriDecomposition(d.space, d.state, d.variant, cert)


# ---------------------------------------------------------------------------
# Rotation families on three qubits


@dataclass(frozen=True, eq=False)
class Example31Result:
    """Singlet-based family: two verified expansions collapsing to one limit."""

    theta: float
    psi: DenseState            # the common theta -> 0 limit
    phi_theta: DenseState
    psi_theta: DenseState
    phi_decomposition: TriDecomposition
    psi_decomposition: TriDecomposition


def example31(theta: float,
              tolerances: Tolerances = DEFAULT_TOLERANCES) -> Example31Result:
    """Two distinct verified 2-term expansions whose states merge as theta -> 0.

    The limit state is a first-factor vector times a singlet on factors 2, 3;
    the two families re-expand that singlet in rotated bases and tilt the
    repeated first-factor component by theta to restore independence.
    """
    _check_theta(theta)
    space = ProductSpace((2, 2, 2))
    e0, e1 = _basis_vec(2, 0), _basis_vec(2, 1)

    psi_amp = np.zeros((2, 2, 2), dtype=np.complex128)
    psi_amp[0, 0, 1] = _INV_SQRT2
    psi_amp[0, 1, 0] = -_INV_SQRT2
    psi = DenseState(space, psi_amp.ravel(), normalized=True)

    tilted = -math.cos(theta) * e0 - math.sin(theta) * e1
    first = np.column_stack((e0, tilted))
    minus, plus = (e0 - e1) * _INV_SQRT2, (e0 + e1) * _INV_SQRT2
    coeffs = (_INV_SQRT2, _INV_SQRT2)
    phi_sum = SumState.from_columns(space, coeffs, (
        first, np.column_stack((minus, plus)), np.column_stack((plus, minus))))
    psi_sum = SumState.from_columns(space, coeffs, (
        first, np.column_stack((e0, e1)), np.column_stack((e1, e0))))
    phi_state, psi_state = densify(phi_sum), densify(psi_sum)
    d_phi = _verified(TriDecomposition(space, phi_sum, Variant.LI_ALL),
                      phi_state, tolerances)
    d_psi = _verified(TriDecomposition(space, psi_sum, Variant.LI_ALL),
                      psi_state, tolerances)
    return Example31Result(theta, psi, phi_state, psi_state, d_phi, d_psi)


@dataclass(frozen=True, eq=False)
class SchmidtRotationResult:
    """Two 2-term product expansions of the same bipartite vector.

    The rotated expansion's factor-2 vectors are unit while its factor-3
    vectors carry the split weights, exactly as the rotation identity writes
    them.
    """

    p1: float
    p2: float
    alpha: float
    schmidt_terms: tuple       # ((coeff, vec2, vec3), ...)
    rotated_terms: tuple       # ((vec2 unit, vec3 weighted), ...)
    state: DenseState


def schmidt_rotation(p1: float, p2: float, alpha: float) -> SchmidtRotationResult:
    """Rewrite sqrt(p1) u1 v1 + sqrt(p2) u2 v2 through a rotation by alpha."""
    if not (p1 >= p2 > 0 and math.isfinite(alpha)):
        raise InvalidStateError("need p1 >= p2 > 0 and a finite alpha")
    space = ProductSpace((2, 2))
    e0, e1 = _basis_vec(2, 0), _basis_vec(2, 1)
    c, s = math.cos(alpha), math.sin(alpha)
    r1, r2 = math.sqrt(p1), math.sqrt(p2)
    schmidt_terms = ((r1, e0, e0.copy()), (r2, e1, e1.copy()))
    rotated_terms = (
        (c * e0 + s * e1, r1 * c * e0 + r2 * s * e1),
        (s * e0 - c * e1, r1 * s * e0 - r2 * c * e1),
    )
    amp = r1 * np.outer(e0, e0) + r2 * np.outer(e1, e1)
    rebuilt = sum(np.outer(u, v) for u, v in rotated_terms)
    if not np.max(np.abs(amp - rebuilt)) <= 1e-12:
        raise VerificationError("rotation identity failed to reconstruct")
    return SchmidtRotationResult(p1, p2, alpha, schmidt_terms, rotated_terms,
                                 DenseState(space, amp.ravel(), normalized=None))


@dataclass(frozen=True, eq=False)
class Example32Result:
    """Two reduced states with unique product-projector decompositions whose
    trace-norm gap closes while every cross overlap stays below 1/sqrt(2)."""

    theta: float
    rho_phi: DensityMatrix
    rho_psi: DensityMatrix
    weights: tuple
    phi_products: tuple        # ((vec1, vec2), ...) per term
    psi_products: tuple
    cross_overlaps: np.ndarray
    trace_norm_gap: float


def example32(theta: float,
              tolerances: Tolerances = DEFAULT_TOLERANCES) -> Example32Result:
    """Partial traces of the rotation family on factors (1, 2).

    The overlap ceiling 1/sqrt(2) is asserted with 1e-10 headroom; it is
    attained only in the limit.
    """
    base = example31(theta, tolerances)
    rho_phi = partial_trace(base.phi_theta, (0, 1))
    rho_psi = partial_trace(base.psi_theta, (0, 1))

    def products(d: TriDecomposition):
        first, second, _ = _columns(d.state)
        return tuple(zip(first.T, second.T))

    phi_products = products(base.phi_decomposition)
    psi_products = products(base.psi_decomposition)
    for rho, prods in ((rho_phi, phi_products), (rho_psi, psi_products)):
        pairs = _khatri_rao([np.array(v) for v in zip(*prods)])
        rebuilt = 0.5 * pairs.T @ pairs.conj()
        if np.max(np.abs(rho.matrix - rebuilt)) > 1e-12:
            raise VerificationError("reduced state does not match its "
                                    "product decomposition")
    cross = np.empty((2, 2))
    for i, (a1, a2) in enumerate(phi_products):
        for j, (b1, b2) in enumerate(psi_products):
            cross[i, j] = abs(np.vdot(a1, b1) * np.vdot(a2, b2))
    if cross.max() > _INV_SQRT2 + 1e-10:
        raise VerificationError("cross overlap exceeded the 1/sqrt(2) ceiling")
    gap = trace_norm(rho_phi.matrix - rho_psi.matrix)
    return Example32Result(theta, rho_phi, rho_psi, (0.5, 0.5),
                           phi_products, psi_products, cross, gap)


@dataclass(frozen=True, eq=False)
class Example33Result:
    """Product-state limit with diverging expansion coefficients."""

    theta: float
    raw_coefficients: tuple    # (1 - 1/sqrt(theta), 1/sqrt(theta))
    phi_raw: DenseState        # before normalization
    psi_theta: DenseState
    decomposition: TriDecomposition
    limit: DenseState          # the product state psi1 psi1 psi1


def example33(theta: float,
              tolerances: Tolerances = DEFAULT_TOLERANCES) -> Example33Result:
    """Normalized 2-term expansion approaching a product state while the raw
    coefficient 1/sqrt(theta) diverges."""
    _check_theta(theta)
    c1 = 1.0 - 1.0 / math.sqrt(theta)
    c2 = 1.0 / math.sqrt(theta)
    if abs(c1) <= tolerances.zero_coeff:
        raise InvalidStateError(
            "theta = 1 makes the first coefficient vanish; the expansion "
            "degenerates to a single term")
    space = ProductSpace((2, 2, 2))
    e0, e1 = _basis_vec(2, 0), _basis_vec(2, 1)
    tilted = math.cos(theta) * e0 + math.sin(theta) * e1
    raw = SumState.from_columns(space, (c1, c2),
                                (np.column_stack((e0, tilted)),) * 3)
    phi_raw = densify(raw)
    nrm = norm(phi_raw)
    psi_theta = DenseState(space, phi_raw.amplitudes / nrm, normalized=True)
    d = _verified(TriDecomposition(space, raw.with_coeffs((c1 / nrm, c2 / nrm)),
                                   Variant.LI_ALL),
                  psi_theta, tolerances)
    limit = np.zeros((2, 2, 2), dtype=np.complex128)
    limit[0, 0, 0] = 1.0
    return Example33Result(theta, (c1, c2), phi_raw, psi_theta, d,
                           DenseState(space, limit.ravel(), normalized=True))


# ---------------------------------------------------------------------------
# Flat-overlap basis and the dense instability pair


def dft_basis(n: int) -> np.ndarray:
    """Orthonormal basis columns with |<u_k|v_m>| = 1/sqrt(n) for all k, m.

    v[:, m] has entries exp(2 pi i (k+1)(m+1) / n) / sqrt(n).
    """
    check_integer("basis size", n, 1)
    k = np.arange(1, n + 1)
    return np.exp(2j * math.pi * np.outer(k, k) / n) / math.sqrt(n)


@dataclass(frozen=True, eq=False)
class InstabilityPair:
    """Two nearby wavefunctions with disjoint verified expansions.

    Each component of the first expansion is within theta of a chosen basis
    direction while every cross overlap against the second expansion stays
    small; both certificates pass.
    """

    epsilon: float
    theta: float
    truncation_size: int
    space: ProductSpace
    phi1: SumState
    phi2: SumState
    decomposition1: TriDecomposition
    decomposition2: TriDecomposition
    basis_indices1: tuple     # multi-index n(k) per term of phi1
    basis_indices2: tuple
    distances: tuple          # (||psi - phi1||, ||psi - phi2||)
    basis_overlap_min: float  # min |<component | chosen basis direction>|
    cross_overlap_max: float  # max |<phi1 component | phi2 component>|


def _truncation_size(psi: DenseState, epsilon: float) -> int:
    tensor = psi.tensor
    dims = psi.space.dims
    for n in range(1, max(dims) + 1):
        block = tensor[tuple(slice(0, min(n, d)) for d in dims)]
        weight = float(np.linalg.norm(block))
        if weight > 1.0 - (epsilon / 4.0) ** 2 and \
                math.sqrt(max(2.0 - 2.0 * weight, 0.0)) < epsilon / 2.0:
            return n
    return max(dims)


def _flat_expansion_entries(psi: DenseState, n: int, zero: float):
    """Multi-indices (one row per term) and coefficients of the truncation
    in the u- and v-product bases (above ``zero``), and the v-basis columns."""
    dims = psi.space.dims
    a = np.zeros((n, n, n), dtype=np.complex128)
    sl = tuple(slice(0, min(n, d)) for d in dims)
    a[sl] = psi.tensor[sl]
    a /= np.linalg.norm(a)
    cols = dft_basis(n)
    b = np.einsum("ai,bj,ck,abc->ijk", cols.conj(), cols.conj(), cols.conj(), a)
    multi_u = np.argwhere(np.abs(a) > zero)
    multi_v = np.argwhere(np.abs(b) > zero)
    return ((multi_u, a[tuple(multi_u.T)]), (multi_v, b[tuple(multi_v.T)]),
            cols)


def _perturbed_sum(expansion, cols, n, theta, space) -> tuple:
    """Perturb each product component by theta into a fresh direction.

    Term j (from 1) gets basis direction n + j on every factor, next to its
    chosen basis vector (``cols is None``) or flat-basis column scaled by
    cos(theta).  Both expansions are built straight into rows.
    """
    multi, coeffs = expansion
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    nterms = len(coeffs)
    fresh = n + 1 + np.arange(nterms)
    rows = []
    for i in range(3):
        if cols is None:
            base_idx = multi[:, i:i + 1]
            base_amp = np.full((nterms, 1), cos_t)
        else:
            base_idx = np.broadcast_to(np.arange(n), (nterms, n))
            base_amp = cos_t * cols[:, multi[:, i]].T
        width = base_idx.shape[1] + 1
        rows.append((np.arange(nterms + 1) * width,
                     np.column_stack([base_idx, fresh]).ravel(),
                     np.column_stack([base_amp, np.full(nterms, sin_t)]).ravel()))
    state = SumState.from_rows(space, coeffs, rows)
    # the fresh directions are private to their terms and orthogonal to the
    # base span, and the base products are distinct members of one
    # orthonormal product basis, so the terms are orthonormal and the norm
    # is that of the coefficients
    scaled = state.coeffs / np.linalg.norm(state.coeffs)
    return state.with_coeffs(scaled), tuple(map(tuple, multi.tolist()))


def _basis_overlap_min(state: SumState, indices: tuple) -> float:
    """min over terms k and factors i of |component_k^i at indices[k][i]|."""
    chosen = np.asarray(indices, dtype=np.intp)
    terms = np.arange(state.nterms)
    out = math.inf
    for i, (touched, fmat) in enumerate(state._packed):
        col = np.searchsorted(touched, chosen[:, i]).clip(max=touched.size - 1)
        amps = np.where(touched[col] == chosen[:, i],
                        np.abs(fmat[terms, col]), 0.0)
        out = min(out, float(amps.min()))
    return out


def instability_pair(psi: DenseState, epsilon: float, theta: float = None,
                     tolerances: Tolerances = DEFAULT_TOLERANCES,
                     term_ceiling: int = 5000) -> InstabilityPair:
    """Two wavefunctions within epsilon of ``psi`` whose unique expansions
    have mutually far components.

    The truncation of ``psi`` is expanded in the computational product basis
    and in the flat-overlap basis, every component is tilted by theta into a
    fresh direction to restore independence, and both expansions are
    certified.  When ``theta`` is omitted, the largest value on a 1/2^j grid
    keeping all conclusion inequalities with 10% slack is selected.
    """
    if not isinstance(psi, DenseState):
        raise InvalidStateError("the construction expands a dense state")
    if psi.space.nfactors != 3:
        raise InvalidStateError("three factors required")
    if not 0.0 < epsilon < 1.0:
        raise InvalidStateError("epsilon must lie in (0, 1)")
    if abs(norm(psi) - 1.0) > tolerances.norm:
        raise InvalidStateError("psi must be a wavefunction")
    check_integer("term_ceiling", term_ceiling, 1)

    n0 = _truncation_size(psi, epsilon)
    n = n0
    while 1.0 / math.sqrt(n) >= epsilon / 2.0:
        n += 1
    expansion_u, expansion_v, cols = _flat_expansion_entries(
        psi, n, tolerances.zero_coeff)
    sizes = (len(expansion_u[1]), len(expansion_v[1]))
    if sum(sizes) > term_ceiling:
        # each factor of the larger expansion: K terms on n shared columns,
        # one private entry each and per-column indices, under n + 4 cells
        k = max(sizes)
        raise CapacityError(
            f"expansion would carry {sum(sizes)} terms, with split packs of "
            f"about {3 * k * (n + 4) * 16:,} bytes (3 x {k} x ({n} + 4) x "
            "16 B); raise term_ceiling to proceed")
    ambient = n + max(sizes) + 1
    space = ProductSpace((ambient,) * 3)

    explicit = theta is not None
    if explicit:
        _check_theta(theta)
        candidates, bound = [theta], epsilon
    else:
        candidates, bound = [2.0 ** -j for j in range(1, 41)], 0.9 * epsilon
    for theta in candidates:
        phi1, idx1 = _perturbed_sum(expansion_u, None, n, theta, space)
        phi2, idx2 = _perturbed_sum(expansion_v, cols, n, theta, space)
        # each bound is computed only once the ones before it hold, so a
        # candidate refused on distance builds no factor pack
        d1, d2 = (math.sqrt(max(2.0 - 2.0 * inner(psi, phi).real, 0.0))
                  for phi in (phi1, phi2))
        if not (d1 < bound and d2 < bound):
            failed = f"||psi - phi_j|| < epsilon (got {max(d1, d2):.6f})"
            continue
        basis_min = _basis_overlap_min(phi1, idx1)
        if not basis_min > 1.0 - bound:
            failed = f"basis overlap > 1 - epsilon (got {basis_min:.6f})"
            continue
        off, diagonals, _ = _overlap_summary(phi1, phi2)
        cross = max(max(off), float(np.abs(diagonals).max()))
        if cross < bound:
            break
        failed = f"cross overlap < epsilon (got {cross:.6f})"
    else:
        if explicit:
            raise PreconditionError(f"theta too large: {failed}")
        raise VerificationError("no theta on the grid meets the bounds")

    dec1 = _verified(TriDecomposition(space, phi1, Variant.LI_ALL),
                     phi1, tolerances)
    dec2 = _verified(TriDecomposition(space, phi2, Variant.LI_ALL),
                     phi2, tolerances)
    return InstabilityPair(epsilon, theta, n, space, phi1, phi2, dec1, dec2,
                           idx1, idx2, (d1, d2), basis_min, cross)


# ---------------------------------------------------------------------------
# Moving one tensor product structure onto another


def _as_sum(state) -> SumState:
    return state if isinstance(state, SumState) else sparsify(state)


@dataclass(frozen=True, eq=False)
class MoverUnitary:
    """Unitary sending one wavefunction to another, identity elsewhere.

    With alpha = <phi2|phi1> and beta = sqrt(1 - |alpha|^2), the unit states
    phi1_perp = (conj(alpha) phi1 - phi2) / beta and
    phi2_perp = (phi1 - alpha phi2) / beta complete orthonormal pairs, and
    U - 1 = |phi1><phi2 - phi1| + |phi1_perp><phi2_perp - phi1_perp|.
    Everything lives in the two-state frame (phi1, phi2): a state enters only
    through its brackets <phi1|s> and <phi2|s>, and the perpendicular states
    are coordinate columns, never materialized.
    """

    phi1: SumState
    phi2: SumState
    alpha: complex
    beta: float
    identity: bool = False

    @cached_property
    def _gram(self) -> np.ndarray:
        """G[i, j] = <phi_i | phi_j>, with the stored alpha = <phi2|phi1>."""
        g21 = self.alpha
        return np.array([[inner(self.phi1, self.phi1), g21.conjugate()],
                         [g21, inner(self.phi2, self.phi2)]])

    @cached_property
    def _frame(self) -> tuple:
        """(E, C): columns of E are phi1 and phi1_perp in frame coordinates,
        and (U - 1) s = (phi1, phi2) C (<phi1|s>, <phi2|s>)."""
        a, b = complex(self.alpha), self.beta
        e = np.array([[1.0, a.conjugate() / b], [0.0, -1.0 / b]])
        f = np.array([[0.0, 1.0 / b], [1.0, -a / b]])  # phi2, phi2_perp
        return e, e @ (f - e).conj().T

    def _brackets(self, state) -> np.ndarray:
        return np.array([inner(self.phi1, state), inner(self.phi2, state)])

    def apply(self, state):
        """U state, materialized (term count grows by the frame's)."""
        if self.identity:
            return state
        s = _as_sum(state)
        x = self._frame[1] @ self._brackets(s)
        return combine(self.phi1.space, (1.0, x[0], x[1]),
                       (s, self.phi1, self.phi2))

    def moved_inner(self, a, b) -> complex:
        """<U a | U b> with the rank-2 correction expanded in the frame."""
        if self.identity:
            return inner(a, b)
        c = self._frame[1]
        ba, bb = self._brackets(a), self._brackets(b)
        xa, xb = c @ ba, c @ bb
        return complex(inner(a, b) + np.vdot(ba, xb) + np.vdot(xa, bb)
                       + np.vdot(xa, self._gram @ xb))

    def minus_identity_matrix(self) -> np.ndarray:
        """U - 1 on the orthonormal pair (phi1, phi1_perp), built from the
        Gram of the stored states rather than assumed orthonormal."""
        if self.identity:
            return np.zeros((2, 2), dtype=np.complex128)
        e, c = self._frame
        g = self._gram
        return e.conj().T @ g @ c @ g @ e

    def trace_norm_minus_identity(self) -> float:
        return trace_norm(self.minus_identity_matrix())


@dataclass(frozen=True, eq=False)
class TensorStructurePair:
    """A mover together with the relabeled-overlap evaluator it induces.

    ``relabeled_overlap`` evaluates the bracket between a factor vector of
    the original structure and a moved factor vector of the new structure,
    each a 1-D array, using auxiliary basis indices on the remaining
    factors; the value is independent of that auxiliary choice.
    """

    mover: MoverUnitary
    space: ProductSpace

    def relabeled_overlap(self, i: int, psi_vec, phi_vec, aux) -> complex:
        i, aux = check_integer("factor index", i, 0), tuple(aux)
        if i >= self.space.nfactors:
            raise InvalidStateError(f"factor index out of range: {i}")
        if len(aux) != self.space.nfactors - 1:
            raise InvalidStateError(
                "need one auxiliary basis index per remaining factor")

        def embed(vec):
            rows = [([0, 1], [x], [1.0]) for x in aux]
            rows.insert(i, _vector_row(vec))
            return SumState.from_rows(self.space, [1.0], rows)

        return self.mover.moved_inner(embed(psi_vec), embed(phi_vec))


def structure_mover(phi1, phi2,
                    tolerances: Tolerances = DEFAULT_TOLERANCES
                    ) -> TensorStructurePair:
    """Build the unitary mapping ``phi2`` to ``phi1`` (identity elsewhere)
    and the relabeled-overlap evaluator between the two induced structures.

    Inputs within ``tolerances.norm`` of each other in ``distance`` give
    the identity mover; other collinear inputs (a phase apart) have no
    rank-2 mover and are rejected.
    """
    for name, st in (("phi1", phi1), ("phi2", phi2)):
        if abs(norm(st) - 1.0) > tolerances.norm:
            raise InvalidStateError(f"{name} must be a wavefunction")
    s1, s2 = _as_sum(phi1), _as_sum(phi2)
    if s1.space.nfactors != s2.space.nfactors:
        raise InvalidStateError("states live on different factor counts")
    dims = tuple(max(a, b) for a, b in zip(s1.space.dims, s2.space.dims))
    space = ProductSpace(dims)
    s1, s2 = s1.embedded(space), s2.embedded(space)
    alpha = inner(s2, s1)
    beta_sq = max(1.0 - abs(alpha) ** 2, 0.0)
    if beta_sq <= 1e-10:
        # decided by the exact distance: sqrt(2 - 2 Re alpha) has a
        # rounding floor near 1.5e-8, above the norm tolerance
        if distance(s1, s2) > tolerances.norm:
            raise InvalidStateError(
                "states are collinear up to phase; no rank-2 mover exists")
        mover = MoverUnitary(s1, s2, 1.0 + 0j, 0.0, identity=True)
        return TensorStructurePair(mover, space)
    beta = math.sqrt(beta_sq)
    mover = MoverUnitary(s1, s2, alpha, beta)

    if abs(abs(alpha) ** 2 + beta ** 2 - 1.0) > 1e-10:
        raise VerificationError("mover phase convention broke |a|^2 + |b|^2 = 1")
    m = mover.minus_identity_matrix() + np.eye(2)
    if np.max(np.abs(m.conj().T @ m - np.eye(2))) > 1e-9:
        raise VerificationError("mover is not unitary on its correction plane")
    coords2 = np.array([alpha.conjugate(), -beta])  # phi2 on (phi1, phi1_perp)
    moved = m @ coords2
    if np.max(np.abs(moved - np.array([1.0, 0.0]))) > 1e-9:
        raise VerificationError("mover does not send phi2 to phi1")
    return TensorStructurePair(mover, space)


# ---------------------------------------------------------------------------
# Isolation witnesses and the spectra-mismatch perturbation


def isolation_witness_3(n1: int, dims: tuple = None) -> DenseState:
    """Three-factor state whose factor-3 entropy is ln(n1 + 1), above the
    ceiling any expansion with n1 independent first-factor components allows."""
    n1 = check_integer("n1", n1, 2)
    space = ProductSpace((n1, 2, n1 + 1) if dims is None else dims)
    dims = space.dims
    if len(dims) != 3 or dims[0] < n1 or dims[2] < n1 + 1:
        raise InvalidStateError(
            f"dims {dims} too small for the witness with n1 = {n1}")
    amp = _dense_zeros(dims)
    w = 1.0 / math.sqrt(n1 + 1.0)
    for k in range(n1):
        amp[k, 0, k] = w
    amp[0, 1, n1] = w
    return DenseState(space, amp.ravel(), normalized=True)


def isolation_witness_4(n: int, dims: tuple = None) -> DenseState:
    """Four-factor state whose (2,3)-entropy is ln(n + 1)."""
    n = check_integer("n", n, 2)
    space = ProductSpace((n,) * 4 if dims is None else dims)
    if len(space.dims) != 4 or any(d < n for d in space.dims):
        raise InvalidStateError(f"dims {space.dims} must all be at least "
                                f"{n} (padding above is fine)")
    amp = _dense_zeros(space.dims)
    w = 1.0 / math.sqrt(n + 1.0)
    for k in range(n):
        amp[k, k, 0, 0] = w
    amp[0, 0, 1, 1] = w
    return DenseState(space, amp.ravel(), normalized=True)


def _orthogonal_unit(vec: np.ndarray) -> np.ndarray:
    """First basis direction orthogonalized against ``vec``."""
    d = vec.shape[0]
    for floor in (0.5, 1e-9):
        for j in range(d):
            cand = _basis_vec(d, j) - vec * vec.conj()[j]
            n = np.linalg.norm(cand)
            if n > floor:
                return cand / n
    raise InvalidStateError("no orthogonal direction available")


def non_triortho_perturb(psi, epsilon: float,
                         tolerances: Tolerances = DEFAULT_TOLERANCES
                         ) -> DenseState:
    """Perturb a triorthogonal state so no neighbour is triorthogonal.

    The third factor of the leading term is tilted toward the second term's
    third component (single-term inputs first get fresh orthogonal
    directions), which splits the top reduced eigenvalue of factor 3 away
    from factors 1 and 2 while moving the state by at most sqrt(2 epsilon).
    The input must be unit-norm and certified ``ORTHONORMAL`` at the default
    tolerances (a precondition, not a verdict), else ``InvalidStateError``.
    """
    if isinstance(psi, OrderedTriortho):
        ordered = psi
    elif isinstance(psi, TriDecomposition):
        ordered = ordered_triortho(psi, tolerances)
    else:
        raise InvalidStateError("expected an (ordered) orthonormal decomposition")
    if not 0.0 < epsilon < 1.0:
        raise InvalidStateError("epsilon must lie in (0, 1)")
    state = ordered.decomposition.state
    cert = verify_tridecomposition(ordered.decomposition, state)
    if not cert.passed or abs(norm(state) - 1.0) > DEFAULT_TOLERANCES.norm:
        raise InvalidStateError(
            "expected a unit-norm decomposition passing its ORTHONORMAL "
            f"certificate: {cert.failed_condition or f'norm {norm(state)!r}'}")
    eta = math.sqrt(1.0 - epsilon)
    eta_p = math.sqrt(epsilon)
    coeffs = state.coeffs
    cols = _columns(state)
    if state.nterms == 1:
        coeffs = coeffs[0] * np.array([eta, eta_p])
        cols = [np.column_stack((c[:, 0], _orthogonal_unit(c[:, 0])))
                for c in cols]
    cols[2][:, 0] = eta * cols[2][:, 0] + eta_p * cols[2][:, 1]
    try:
        out = densify(SumState.from_columns(state.space, coeffs, cols))
    except InvalidStateError as exc:  # the input was certified: our fault
        raise VerificationError(f"perturbed terms were refused: {exc}") from exc
    # only z_0 (term 0, factor 2) moves: ||out||^2 - ||psi||^2 = |c_0|^2 (eta'^2
    # (||z_1||^2 - ||z_0||^2) + 2 eta eta' Re<z_0|z_1>) + O(orth^2) < 3 orth, as
    # the certificate holds both gaps below orth, |c_0| <= 1, and the eta sum < 1.62
    if not abs(norm(out) ** 2 - norm(state) ** 2) <= 3 * DEFAULT_TOLERANCES.orth:
        raise VerificationError("perturbed state failed to keep its norm")
    return out
