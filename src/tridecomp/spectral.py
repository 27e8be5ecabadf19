"""Eigenvalue spectra, von Neumann entropy, and checkable spectral bounds.

Entropy is in nats throughout; every serialized report records the base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances, check_integer, check_tolerance
from .errors import DimensionMismatchError, InvalidStateError
from .states import (
    DenseState,
    DensityMatrix,
    SumState,
    _square_matrix,
    aligned_density_matrices,
    hermitian_eigvalsh,
    partial_trace,
    trace_norm,
)

LOG_BASE_NOTE = "natural log"

LEMMA_5_1_SLACK = 1e-10  # rounding headroom of the spectral shift check
LEMMA_4_5_SLACK = 1e-9  # and of the ln k entropy ceiling


@dataclass(frozen=True)
class Spectrum:
    """Decreasing eigenvalue sequence of a PSD matrix, repetitions kept.

    ``clamped_dust`` records the most negative raw eigenvalue that was
    clamped to zero (0.0 when none was).
    """

    values: tuple
    source_trace: float
    clamped_dust: float = 0.0

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if any(a < b for a, b in zip(vals, vals[1:])):
            raise InvalidStateError("spectrum must be non-increasing")
        if abs(sum(vals) - self.source_trace) > 1e-9 * max(1.0,
                                                           self.source_trace):
            raise InvalidStateError("spectrum does not sum to the trace")


@dataclass(frozen=True)
class EntropyValue:
    nats: float
    base_note: str = LOG_BASE_NOTE


def spectrum(rho, tolerances: Tolerances = DEFAULT_TOLERANCES) -> Spectrum:
    """Eigenvalues of a PSD matrix, descending, numerical dust clamped to 0.

    Values in [-psd_tolerance, 0) are treated as dust; anything more negative
    is a hard error, distinguishing roundoff from invalid input.  A
    DensityMatrix is not decomposed again: the Hermitian gap and eigenvalues
    its validation found are checked against ``tolerances`` here.
    """
    if isinstance(rho, DensityMatrix):
        gap, vals, trace = rho.herm_gap, rho.eigenvalues, rho.trace
    else:
        mat = _square_matrix(rho)
        gap, vals = hermitian_eigvalsh(mat)
        trace = float(np.trace(mat).real)
    if gap > tolerances.herm:
        raise InvalidStateError(f"not Hermitian: gap {gap!r}")
    dust = float(vals[0]) if vals.size and vals[0] < 0 else 0.0
    if dust < -tolerances.psd:
        raise InvalidStateError(f"negative eigenvalue {dust!r} beyond dust tolerance")
    vals = np.clip(vals, 0.0, None)[::-1]
    return Spectrum(tuple(vals.tolist()), trace, min(dust, 0.0))


def entropy(rho, tolerances: Tolerances = DEFAULT_TOLERANCES) -> EntropyValue:
    """Von Neumann entropy -sum r ln r in nats, with 0 ln 0 := 0."""
    spec = rho if isinstance(rho, Spectrum) else spectrum(rho, tolerances)
    vals = np.asarray(spec.values)
    dim = vals.size
    vals = vals[vals > 0.0]
    nats = max(float(-(vals * np.log(vals)).sum()) if vals.size else 0.0, 0.0)
    # a spectrum of trace t on dim values has entropy at most t ln(dim / t),
    # checked near trace 1, where the spectrum's trace slack is below 1e-9
    t = spec.source_trace
    if dim and abs(t - 1.0) <= tolerances.norm and \
            nats > t * math.log(dim / t) + 1e-9:
        raise InvalidStateError(f"entropy {nats!r} exceeds t ln(dim / t) = "
                                f"{t * math.log(dim / t)!r} at trace {t!r}")
    return EntropyValue(nats)


@dataclass(frozen=True)
class SpectralShiftReport:
    """Eigenvalue-by-eigenvalue gap against the trace-norm distance."""

    max_eigenvalue_gap: float
    trace_norm_diff: float
    bound_holds: bool

    def to_json(self) -> dict:
        return {
            "lemma": "5.1",
            "lhs": self.max_eigenvalue_gap,
            "rhs": self.trace_norm_diff,
            "holds": self.bound_holds,
            "max_eigenvalue_gap": self.max_eigenvalue_gap,
            "trace_norm_diff": self.trace_norm_diff,
        }


def verify_spectral_lemmas(r, s, tolerances: Tolerances = DEFAULT_TOLERANCES
                           ) -> SpectralShiftReport:
    """Check max_n |r_n - s_n| <= ||R - S||_1 for two PSD trace-class operators.

    ``bound_holds`` must come back True; a False value flags a defect, not a
    property of the inputs.
    """
    if isinstance(r, DensityMatrix) and isinstance(s, DensityMatrix):
        rm, sm = aligned_density_matrices(r, s)
    else:
        rm, sm = _square_matrix(r), _square_matrix(s)
    if rm.shape != sm.shape:
        raise DimensionMismatchError(f"shapes differ: {rm.shape} vs {sm.shape}")
    rv = np.asarray(spectrum(rm, tolerances).values)
    sv = np.asarray(spectrum(sm, tolerances).values)
    max_gap = float(np.max(np.abs(rv - sv))) if rv.size else 0.0
    tn = trace_norm(rm - sm)
    return SpectralShiftReport(max_gap, tn, max_gap <= tn + LEMMA_5_1_SLACK)


@dataclass(frozen=True)
class EntropyBoundReport:
    """Reduced entropies against the ln K ceiling for K-term product sums.

    ``violated`` certifies that no K-term product decomposition exists.
    """

    term_ceiling: int
    entropies: tuple
    ceiling_nats: float
    violated: bool

    def to_json(self) -> dict:
        return {
            "lemma": "4.5",
            "k": self.term_ceiling,
            "entropies": list(self.entropies),
            "lhs": max(self.entropies),
            "rhs": self.ceiling_nats,
            "holds": not self.violated,
            "violated": self.violated,
            "log_base": LOG_BASE_NOTE,
        }


def entropy_decomposition_bound(psi, k: int,
                                tolerances: Tolerances = DEFAULT_TOLERANCES
                                ) -> EntropyBoundReport:
    """Compare every single-factor reduced entropy of ``psi`` with ln k."""
    if not isinstance(psi, (DenseState, SumState)):
        raise InvalidStateError("expected a state")
    if psi.space.nfactors != 3:
        raise InvalidStateError("the term-count bound is stated on 3 factors")
    k = check_integer("k", k, 1)
    ents = tuple(entropy(partial_trace(psi, (i,)), tolerances).nats
                 for i in range(3))
    ceiling = math.log(k)
    return EntropyBoundReport(k, ents, ceiling,
                              max(ents) > ceiling + LEMMA_4_5_SLACK)


def _padded_spectra(rhos, tolerances: Tolerances) -> np.ndarray:
    """One row per reduction: its spectrum, zero-padded to equal length."""
    specs = [spectrum(rho, tolerances).values for rho in rhos]
    out = np.zeros((len(specs), max(map(len, specs))))
    for row, vals in zip(out, specs):
        row[:len(vals)] = vals
    return out


def reduced_spectra(psi, tolerances: Tolerances = DEFAULT_TOLERANCES) -> tuple:
    """Spectra of every single-factor reduction, zero-padded to equal length."""
    rhos = [partial_trace(psi, (i,)) for i in range(psi.space.nfactors)]
    return tuple(_padded_spectra(rhos, tolerances))


def isolation_radii(spectra, terms: int,
                    tolerances: Tolerances = DEFAULT_TOLERANCES) -> tuple:
    """(r, g/2) for a unit state whose reductions have the eigenvalue rows
    ``spectra``, zero-padded as ``reduced_spectra`` gives them.  No sum of
    at most R = ``terms`` products, whose flattenings have rank <= R, lies
    within r = max_i (sum_{n>R} lambda_n(rho_i))^(1/2) (Eckart and Young,
    Psychometrika 1 (1936)).  No triorthogonal state lies within g/2,
    g = max_n ptp_i lambda_n(rho_i): its reductions share one spectrum, and
    each lambda_n moves by at most ||psi - phi|| (Weyl, as the partial trace
    contracts the trace norm; Bhatia, Matrix Analysis, III.2).  Both radii
    subtract the eigenvalues' rounding, ``tolerances.psd`` each, to >= 0."""
    terms = check_integer("terms", terms, 1)
    lam = np.atleast_2d(np.asarray(spectra, dtype=float))
    if not np.isfinite(lam).all():
        raise InvalidStateError("spectra must be finite")
    tail = lam[:, terms:]
    mass = float(tail.sum(axis=1).max()) - tail.shape[1] * tolerances.psd
    gap = float(np.ptp(lam, axis=0).max())
    return math.sqrt(max(mass, 0.0)), max(gap / 2.0 - tolerances.psd, 0.0)


def _spectra_agree(spectra, tol: float) -> bool:
    """Whether the rows agree elementwise within ``tol`` (max - min)."""
    return bool(np.ptp(spectra, axis=0).max() <= tol)


def triortho_necessary_test(psi, tol: float = 1e-8,
                            tolerances: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """True iff all three reduced spectra agree elementwise within ``tol``.

    Agreement is necessary for a triorthogonal decomposition to exist, so a
    False return certifies non-triorthogonality.
    """
    check_tolerance("tol", tol)
    if psi.space.nfactors != 3:
        raise InvalidStateError("the necessary condition is stated on 3 factors")
    return _spectra_agree(reduced_spectra(psi, tolerances), tol)
