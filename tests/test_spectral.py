import inspect
import math

import numpy as np
import pytest

from tridecomp.constructions import (
    example31,
    isolation_witness_3,
    non_triortho_perturb,
)
from tridecomp.config import Tolerances
from tridecomp.errors import DimensionMismatchError, InvalidStateError
from tridecomp.spectral import (
    Spectrum,
    entropy,
    entropy_decomposition_bound,
    reduced_spectra,
    spectrum,
    triortho_necessary_test,
    verify_spectral_lemmas,
)
from tridecomp.states import (
    DenseState,
    DensityMatrix,
    ProductSpace,
    ProductTerm,
    SumState,
    densify,
    haar_random_state,
    partial_trace,
    sparse_vector,
    trace_norm,
)

from conftest import random_orthonormal, random_psd, random_triortho, random_unit


class TestSpectrum:
    def test_product_reduction_is_pure(self, rng):
        vecs = [random_unit(rng, d) for d in (3, 4, 5)]
        t = ProductTerm(1.0, tuple(sparse_vector(v) for v in vecs))
        rho = partial_trace(SumState(ProductSpace((3, 4, 5)), (t,)), (1,))
        vals = spectrum(rho).values
        assert vals[0] == pytest.approx(1.0, abs=1e-12)
        assert all(abs(v) < 1e-12 for v in vals[1:])

    def test_witness_spectrum_uniform(self):
        rho = partial_trace(isolation_witness_3(4), (2,))
        vals = np.asarray(spectrum(rho).values)
        assert vals.shape == (5,)
        assert np.allclose(vals, 0.2, atol=1e-12)

    def test_triortho_reductions_match_coefficients(self):
        d = random_triortho(3, dims=(5, 5, 5), k=3)
        psi = densify(d.state)
        expected = np.sort(np.abs(d.coefficients)) [::-1] ** 2
        for i in range(3):
            vals = np.asarray(spectrum(partial_trace(psi, (i,))).values)
            assert np.allclose(vals[:3], expected, atol=1e-9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidStateError):
            spectrum(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_clamps_dust_but_rejects_negative(self):
        slightly = np.diag([1.0, -1e-12]).astype(complex)
        spec = spectrum(slightly)
        assert spec.values[-1] == 0.0
        assert spec.clamped_dust < 0.0
        with pytest.raises(InvalidStateError):
            spectrum(np.diag([1.0, -1e-6]).astype(complex))

    def test_unitary_invariance(self, rng):
        rho = random_psd(rng, 7, top=1.0 / 7)
        q = random_orthonormal(rng, 7, 7)
        a = np.asarray(spectrum(rho).values)
        b = np.asarray(spectrum(q @ rho @ q.conj().T).values)
        assert np.max(np.abs(a - b)) < 1e-9


def same_spectrum(a, b):
    """Bitwise equality of two Spectrum results."""
    return (np.asarray(a.values).tobytes() == np.asarray(b.values).tobytes()
            and a.source_trace == b.source_trace
            and a.clamped_dust == b.clamped_dust)


class TestEigenvalueReuse:
    """``spectrum`` of a DensityMatrix reads the eigenvalues its validation
    computed, and still applies the caller's tolerances to them."""

    def reductions(self):
        dense = haar_random_state(ProductSpace((3, 4, 5)), 8)
        compact = random_triortho(9, dims=(5, 6, 7), k=3).state
        for psi in (dense, compact):
            for keep in ((0,), (1,), (2,), (0, 2)):
                yield partial_trace(psi, keep)
        yield partial_trace(partial_trace(dense, (0, 2)), (2,))
        yield partial_trace(partial_trace(compact, (1, 2)), (1,))

    def test_matches_the_matrix_path_bitwise(self):
        for rho in self.reductions():
            assert same_spectrum(spectrum(rho), spectrum(rho.matrix))
            assert same_spectrum(spectrum(rho, Tolerances(herm=1e-12)),
                                 spectrum(rho.matrix, Tolerances(herm=1e-12)))

    def test_reduced_spectra_pad_with_zeros(self):
        psi = haar_random_state(ProductSpace((2, 3, 4)), 3)
        padded = reduced_spectra(psi)
        for i, row in enumerate(padded):
            vals = spectrum(partial_trace(psi, (i,))).values
            assert row.shape == (4,)
            assert row[:len(vals)].tolist() == list(vals)
            assert not row[len(vals):].any()

    def test_stricter_hermiticity_still_raises(self, rng):
        mat = random_psd(rng, 3, top=0.3)
        mat[0, 1] += 1e-11  # Hermitian gap 1e-11, inside the default 1e-9
        rho = DensityMatrix(mat, (3,), (0,))
        assert rho.herm_gap == pytest.approx(1e-11, rel=1e-3)
        spectrum(rho)
        strict = Tolerances(herm=1e-13)
        with pytest.raises(InvalidStateError, match="Hermitian"):
            spectrum(rho, strict)
        with pytest.raises(InvalidStateError, match="Hermitian"):
            spectrum(rho.matrix, strict)

    def test_stricter_psd_still_raises(self):
        rho = DensityMatrix(np.diag([0.5, 0.5, -1e-11]).astype(complex),
                            (3,), (0,))
        spec = spectrum(rho)
        assert spec.clamped_dust == pytest.approx(-1e-11, rel=1e-6)
        assert spec.values[-1] == 0.0
        strict = Tolerances(psd=1e-12)
        with pytest.raises(InvalidStateError, match="dust"):
            spectrum(rho, strict)
        with pytest.raises(InvalidStateError, match="dust"):
            spectrum(rho.matrix, strict)

    def test_eigenvalues_are_read_only(self):
        rho = partial_trace(haar_random_state(ProductSpace((2, 2, 2)), 1), (0,))
        with pytest.raises(ValueError):
            rho.eigenvalues[0] = 1.0


class TestEntropy:
    def test_pure_state_zero(self, rng):
        v = random_unit(rng, 6)
        assert entropy(np.outer(v, v.conj())).nats == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_reaches_log_dim(self):
        for d in (2, 5, 9):
            assert entropy(np.eye(d, dtype=complex) / d).nats == \
                pytest.approx(math.log(d), abs=1e-12)

    def test_witness_entropy(self):
        rho = partial_trace(isolation_witness_3(3), (2,))
        assert entropy(rho).nats == pytest.approx(math.log(4), abs=1e-12)

    def test_dimension_bound(self, rng):
        for _ in range(20):
            rho = random_psd(rng, 6)
            rho = rho / np.trace(rho).real
            nats = entropy(rho).nats
            assert -1e-12 <= nats <= math.log(6) + 1e-12

    def test_concavity(self, rng):
        for _ in range(20):
            a = random_psd(rng, 5)
            a /= np.trace(a).real
            b = random_psd(rng, 5)
            b /= np.trace(b).real
            lam = rng.uniform()
            mixed = entropy(lam * a + (1 - lam) * b).nats
            assert mixed >= lam * entropy(a).nats \
                + (1 - lam) * entropy(b).nats - 1e-10

    def test_records_log_base(self):
        assert entropy(np.eye(2, dtype=complex) / 2).base_note == "natural log"

    def test_flat_spectrum_above_unit_trace_is_valid(self):
        # trace t = 1 + 9e-10 is within tolerances.norm; the entropy ceiling
        # at trace t is t ln(dim / t), which sits above ln(dim) + 1e-9 here
        t = 1.0 + 9e-10
        nats = entropy(np.eye(64) * t / 64).nats
        assert nats == pytest.approx(t * math.log(64 / t), abs=1e-14)
        assert nats > math.log(64) + 1e-9

    def test_maximally_entangled_state_a_little_above_norm_one(self):
        d = 16
        amps = np.eye(d).ravel() * (1.0 + 4.5e-10) / math.sqrt(d)
        psi = DenseState(ProductSpace((d, d)), amps)
        assert psi.normalized
        t = float(np.vdot(amps, amps).real)
        nats = entropy(partial_trace(psi, (0,))).nats
        assert nats == pytest.approx(t * math.log(d / t), abs=1e-14)

    def test_spectrum_above_its_trace_ceiling_raises(self):
        # a validated Spectrum cannot exceed the ceiling beyond rounding, so
        # reach the guard with values that do not sum to the declared trace
        bad = object.__new__(Spectrum)
        object.__setattr__(bad, "values", (0.3,) * 4)
        object.__setattr__(bad, "source_trace", 1.0)
        object.__setattr__(bad, "clamped_dust", 0.0)
        with pytest.raises(InvalidStateError, match="exceeds t ln"):
            entropy(bad)


class TestEigenvalueShiftBound:
    def test_identical_operators(self, rng):
        r = random_psd(rng, 6)
        rep = verify_spectral_lemmas(r, r)
        assert rep.max_eigenvalue_gap == pytest.approx(0.0, abs=1e-12)
        assert rep.bound_holds

    def test_random_pairs(self, rng):
        for _ in range(200):
            r, s = random_psd(rng, 8), random_psd(rng, 8)
            assert verify_spectral_lemmas(r, s).bound_holds

    def test_nearby_states_chain(self, rng):
        # reduced states of psi and phi with ||psi - phi|| = delta have
        # eigenvalue shifts at most 2 delta
        for seed in range(50):
            psi = haar_random_state(ProductSpace((3, 4)), seed)
            bump = random_unit(np.random.default_rng(seed), 12)
            delta = 0.05
            amps = psi.amplitudes + delta * bump
            phi = DenseState(psi.space, amps / np.linalg.norm(amps))
            dist = np.linalg.norm(psi.amplitudes - phi.amplitudes)
            rep = verify_spectral_lemmas(partial_trace(psi, (0,)),
                                         partial_trace(phi, (0,)))
            assert rep.bound_holds
            assert rep.max_eigenvalue_gap <= 2 * dist + 1e-10

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            verify_spectral_lemmas(random_psd(rng, 4), random_psd(rng, 5))

    def test_serialization_labels_bound(self, rng):
        doc = verify_spectral_lemmas(random_psd(rng, 4),
                                     random_psd(rng, 4)).to_json()
        assert doc["lemma"] == "5.1"
        assert doc["holds"]
        assert doc["lhs"] <= doc["rhs"] + 1e-10


class TestEntropyTermBound:
    def test_product_state(self, rng):
        vecs = [random_unit(rng, 3) for _ in range(3)]
        s = SumState(ProductSpace((3, 3, 3)),
                     (ProductTerm(1.0, tuple(sparse_vector(v) for v in vecs)),))
        rep = entropy_decomposition_bound(s, 1)
        assert not rep.violated
        assert max(rep.entropies) <= 1e-9

    def test_k_term_states_respect_ceiling(self, rng):
        for seed in range(30):
            g = np.random.default_rng(seed)
            k = int(g.integers(2, 7))
            terms = []
            for _ in range(k):
                coeff = g.standard_normal() + 1j * g.standard_normal()
                terms.append(ProductTerm(
                    coeff, tuple(sparse_vector(random_unit(g, 7))
                                 for _ in range(3))))
            raw = SumState(ProductSpace((7, 7, 7)), tuple(terms))
            from tridecomp.states import norm as state_norm
            s = raw.with_coeffs(raw.coeffs / state_norm(raw))
            rep = entropy_decomposition_bound(s, k)
            assert not rep.violated
            assert max(rep.entropies) <= math.log(k) + 1e-9

    def test_witness_violates_its_dimension_ceiling(self):
        w = isolation_witness_3(4)
        rep = entropy_decomposition_bound(w, 4)
        assert rep.violated
        assert max(rep.entropies) == pytest.approx(math.log(5), abs=1e-10)

    def test_ghz_meets_its_two_term_ceiling(self):
        # GHZ on 2^3 has a 2-term decomposition and entropies of exactly
        # ln 2: k = 2 must not certify that none exists, k = 1 must
        amp = np.zeros(8)
        amp[0] = amp[7] = 1 / math.sqrt(2)
        ghz = DenseState(ProductSpace((2, 2, 2)), amp, normalized=True)
        assert not entropy_decomposition_bound(ghz, 2).violated
        assert entropy_decomposition_bound(ghz, 1).violated

    @pytest.mark.parametrize("k", [1.9, 2.0, math.nan, 0, -1, True])
    def test_term_ceiling_must_be_a_positive_integer(self, k):
        # 1.9 used to be read as k = 1 and certify that GHZ has no 1-term
        # decomposition, and so was True; NaN escaped as a bare ValueError
        amp = np.zeros(8)
        amp[0] = amp[7] = 1 / math.sqrt(2)
        ghz = DenseState(ProductSpace((2, 2, 2)), amp, normalized=True)
        with pytest.raises(InvalidStateError, match="k must be an integer"):
            entropy_decomposition_bound(ghz, k)
        rep = entropy_decomposition_bound(ghz, np.int64(2))
        assert type(rep.term_ceiling) is int and not rep.violated


@pytest.mark.parametrize("check", [verify_spectral_lemmas,
                                   entropy_decomposition_bound])
def test_lemma_slacks_are_constants(check):
    # a caller-set slack could flip a certificate (a negative one makes GHZ
    # "violate" its 2-term ceiling, a NaN one fails Lemma 5.1 on r = s)
    assert "slack" not in inspect.signature(check).parameters


class TestNecessaryCondition:
    def test_triorthogonal_passes(self):
        d = random_triortho(9, dims=(4, 5, 6), k=3)
        assert triortho_necessary_test(densify(d.state), 1e-8)

    def test_singlet_family_fails(self):
        # factor 1 reduction is pure while factor 2 is mixed
        fam = example31(0.3)
        assert not triortho_necessary_test(fam.psi, 1e-8)
        s1, s2, _ = reduced_spectra(fam.psi)
        assert s1[0] == pytest.approx(1.0, abs=1e-12)
        assert s2[0] == pytest.approx(0.5, abs=1e-12)

    def test_perturbed_state_fails(self):
        d = random_triortho(12, dims=(4, 4, 4), k=2)
        pert = non_triortho_perturb(d, 0.1)
        assert not triortho_necessary_test(pert, 1e-6)


class TestContinuityForms:
    def test_eigenvalue_shift_vanishes_with_perturbation(self, rng):
        # finite-dimensional continuity along a decreasing-delta schedule
        rho = random_psd(rng, 8, top=1.0 / 8)
        bump = random_psd(rng, 8)
        bump = bump / trace_norm(bump)
        gaps = []
        for delta in (1e-1, 1e-2, 1e-3, 1e-4):
            rep = verify_spectral_lemmas(rho, rho + delta * bump)
            assert rep.bound_holds
            gaps.append(rep.max_eigenvalue_gap)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3

    def test_entropy_modulus_shrinks(self, rng):
        # report-only: the observed entropy modulus decreases along the
        # schedule; no universal constant is asserted
        rho = random_psd(rng, 8)
        rho = rho / np.trace(rho).real
        bump = random_psd(rng, 8)
        bump = bump / trace_norm(bump)
        moduli = []
        for delta in (1e-2, 1e-3, 1e-4, 1e-5):
            sigma = (rho + delta * bump)
            sigma = sigma / np.trace(sigma).real
            moduli.append(abs(entropy(rho).nats - entropy(sigma).nats))
        assert all(a > b for a, b in zip(moduli, moduli[1:]))
        assert moduli[-1] < 1e-4
