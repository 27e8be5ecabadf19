"""Quantitative matching between neighbouring decompositions.

``match_single_product`` compares one weighted product against an orthonormal
product sum on two factors and certifies the coefficient and overlap bounds.
``match_components`` lifts it to full three-factor orthonormal decompositions
through the projection route: collapse factor 3 onto a component, match on
factors (1, 2), then collapse factor 1 to recover the factor-3 overlap.  The
projection route inherits the uniqueness guarantee of the underlying bound,
so no global optimizer is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances, check_integer, json_fields
from .decomp import OrderedTriortho, TriDecomposition, Variant
from .errors import InvalidStateError, PreconditionError, VerificationError
from .states import (
    ProductSpace,
    SumState,
    _factor_overlap,
    _overlap_summary,
    _term_distance,
    aligned_density_matrices,
    distance,
    norm,
    partial_trace,
    trace_norm,
)


def _require(condition: bool, inequality: str):
    if not condition:
        raise PreconditionError(f"precondition failed: {inequality}")


@dataclass(frozen=True)
class ProductMatchReport:
    """Every quantity entering the single-product matching bound."""

    matched_index: int
    eps: float
    eps_prime: float
    trace_norm_gap: float
    coeff_sq_gap: float
    max_other_coeff_sq: float
    unique: bool
    state_distance: float
    second_part: bool
    second_part_skipped: str
    term_distance: float
    overlaps: tuple
    holds: bool

    def to_json(self) -> dict:
        return json_fields(self)


def match_single_product(psi: SumState, phi: SumState, eps: float,
                         eps_prime: float,
                         tolerances: Tolerances = DEFAULT_TOLERANCES
                         ) -> ProductMatchReport:
    """Locate the unique term of ``phi`` matching the single product ``psi``.

    ``psi`` is one weighted product on two factors; ``phi`` is a finite sum
    of products whose factor sequences are orthonormal.  Neither needs to be
    normalized.  The first conclusion isolates the matching coefficient
    within eps_prime; when the states are also close in norm, the matched
    term is close and both factor overlaps exceed 1 - eps.
    """
    if psi.space.nfactors != 2 or phi.space.nfactors != 2:
        raise PreconditionError("precondition failed: two-factor states required")
    if psi.nterms != 1:
        raise PreconditionError("precondition failed: psi must be a single product")
    if not phi.nterms:
        raise PreconditionError("precondition failed: phi has no terms")
    for i, off in enumerate(_overlap_summary(phi, phi)[0]):
        _require(off < max(10 * tolerances.orth, 1e-7),
                 f"factor {i} sequence of the product sum is not orthonormal")

    a = complex(psi.coeffs[0])
    _require(eps_prime > 0.0, "eps_prime > 0")
    _require(abs(a) ** 2 <= 1.0 + tolerances.norm, "|a|^2 <= 1")
    _require(abs(a) ** 2 > 2.0 * eps_prime, "|a|^2 > 2*eps_prime")
    gap = trace_norm(np.subtract(*aligned_density_matrices(
        partial_trace(psi, (0,)), partial_trace(phi, (0,)))))
    _require(gap < eps_prime,
             "trace_norm(rho1(psi) - rho1(phi)) < eps_prime")

    b_sq = np.abs(phi.coeffs) ** 2
    m = int(np.argmax(b_sq))
    coeff_gap = abs(abs(a) ** 2 - b_sq[m])
    others = np.delete(b_sq, m)
    max_other = float(others.max()) if others.size else 0.0
    other_gaps = np.abs(abs(a) ** 2 - others)
    unique = bool((other_gaps >= eps_prime).all()) if others.size else True

    state_dist = distance(psi, phi)
    second, skipped = True, ""
    if not state_dist < eps_prime:
        second, skipped = False, "||psi - phi|| < eps_prime"
    elif not (math.sqrt(eps_prime) <= abs(a) * eps / 3.0 < 1.0):
        second, skipped = False, "sqrt(eps_prime) <= |a|*eps/3 < 1"

    tdist, ov1, ov2 = math.nan, math.nan, math.nan
    holds = coeff_gap < eps_prime and max_other < eps_prime and unique
    if second:
        tdist = _term_distance(psi, 0, phi, m)
        ov1, ov2 = (abs(complex(_factor_overlap(p, q)[0, m]))
                    for p, q in zip(psi._packed, phi._packed))
        holds = holds and tdist < eps and ov1 > 1.0 - eps and ov2 > 1.0 - eps
    return ProductMatchReport(m, eps, eps_prime, gap, coeff_gap, max_other,
                              unique, state_dist, second, skipped, tdist,
                              (ov1, ov2), holds)


@dataclass(frozen=True)
class PairRecord:
    """One matched term pair with the three bound families evaluated."""

    block: int
    index: int
    matched: int
    coeff_sq_gap: float
    coeff_bound: float
    overlaps: tuple
    overlap_floor: float
    term_distance: float
    term_bound: float
    holds: bool

    def to_json(self) -> dict:
        return json_fields(self)


@dataclass(frozen=True)
class MatchReport:
    """Injective pairing between two decompositions with all bound records."""

    pairing: tuple          # ((block, index, matched), ...)
    records: tuple          # PairRecord per matched pair
    level: int              # how many leading blocks were matched
    eps: float
    eps_prime: float
    state_distance: float
    distance_bound: float
    all_bounds_hold: bool

    def to_json(self) -> dict:
        return json_fields(self)


def _projected_pair(space2: ProductSpace, keep: tuple, state: SumState,
                    k: int, other: SumState, project_axis: int):
    """Collapse ``project_axis`` of both sides onto term ``k``'s component.

    Returns the single-product state of term ``k`` of ``state`` restricted to
    ``keep`` and the projected product sum of ``other`` on the same two
    factors.  Both are built on their parent's rows and packs.
    """
    term = state.take([k])
    overlap = _factor_overlap(term._packed[project_axis],
                              other._packed[project_axis])[0]
    return (term.on_factors(space2, keep, term.coeffs),
            other.on_factors(space2, keep, other.coeffs * overlap))


def match_components(psi: OrderedTriortho, phi: TriDecomposition, level: int,
                     eps: float,
                     tolerances: Tolerances = DEFAULT_TOLERANCES) -> MatchReport:
    """Match every term in the first ``level`` blocks of ``psi`` into ``phi``.

    Both decompositions must be orthonormal-variant wavefunction
    decompositions with ||psi - phi|| below |a_level|^2 eps^2 / 18 for an
    eps in (0, 1/4).  Each matched pair certifies the coefficient gap below
    3 eps, all three factor overlaps above 1 - eps, and the rank-1 term
    distance below 3 sqrt(eps).  Ambiguous matchings raise, since the bound
    guarantees uniqueness.
    """
    dpsi = psi.decomposition
    if dpsi.variant is not Variant.ORTHONORMAL or \
            phi.variant is not Variant.ORTHONORMAL:
        raise InvalidStateError(
            "matching is defined for orthonormal decompositions")
    _require(0.0 < eps < 0.25, "eps in (0, 1/4)")
    level = check_integer("level", level, 1)
    if level > psi.nblocks:
        raise InvalidStateError(
            f"level {level} is not in 1..{psi.nblocks}, the reference's "
            "block count")
    psi_state = dpsi.state
    phi_state = phi.state
    for name, st in (("psi", psi_state), ("phi", phi_state)):
        n = norm(st)
        _require(abs(n - 1.0) <= tolerances.norm, f"{name} is a wavefunction")

    a_level = psi.blocks[level - 1].magnitude
    state_dist = distance(psi_state, phi_state)
    bound = a_level ** 2 * eps ** 2 / 18.0
    _require(state_dist < bound, "||psi - phi|| < |a_L|^2 * eps^2 / 18")
    eps_prime = a_level ** 2 * eps ** 2 / 9.0

    dims = dpsi.space.dims
    space_12 = ProductSpace((dims[0], dims[1]))
    space_23 = ProductSpace((dims[1], dims[2]))
    pairing, records = [], []
    used = {}
    for bi, block in enumerate(psi.blocks[:level]):
        for k in block.indices:
            a = abs(complex(psi_state.coeffs[k]))
            # For the last block sqrt(eps') equals |a| eps / 3 exactly, so a
            # one-ulp rounding could flip the guaranteed gate; shave it.
            eps_p = min(eps_prime, (a * eps / 3.0) ** 2 * (1.0 - 1e-12))
            single, projected = _projected_pair(space_12, (0, 1), psi_state,
                                                k, phi_state, 2)
            front = match_single_product(single, projected, eps, eps_p,
                                         tolerances)
            if not front.second_part:
                raise VerificationError(
                    "projection chain lost the matching hypothesis: "
                    + front.second_part_skipped)
            single_b, projected_b = _projected_pair(space_23, (1, 2),
                                                    psi_state, k, phi_state, 0)
            back = match_single_product(single_b, projected_b, eps, eps_p,
                                        tolerances)
            if front.matched_index != back.matched_index:
                raise VerificationError(
                    "matching ambiguity: the two projection routes disagree")
            kp = front.matched_index
            if kp in used:
                raise VerificationError(
                    f"matching ambiguity: term {kp} matched twice")
            used[kp] = (bi, k)
            ov = (front.overlaps[0], front.overlaps[1], back.overlaps[1])
            coeff_gap = abs(a ** 2 - abs(complex(phi_state.coeffs[kp])) ** 2)
            tdist = _term_distance(psi_state, k, phi_state, kp)
            rec = PairRecord(
                block=bi + 1, index=k, matched=kp,
                coeff_sq_gap=coeff_gap, coeff_bound=3.0 * eps,
                overlaps=ov, overlap_floor=1.0 - eps,
                term_distance=tdist, term_bound=3.0 * math.sqrt(eps),
                holds=(coeff_gap < 3.0 * eps
                       and all(o > 1.0 - eps for o in ov)
                       and tdist < 3.0 * math.sqrt(eps)))
            pairing.append((bi + 1, k, kp))
            records.append(rec)
    return MatchReport(tuple(pairing), tuple(records), level, eps, eps_prime,
                       state_dist, bound,
                       all(r.holds for r in records))
