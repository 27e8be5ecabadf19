import math

import numpy as np
import pytest

from tridecomp import constructions, states
from tridecomp.constructions import (
    dft_basis,
    example31,
    example32,
    example33,
    instability_pair,
    isolation_witness_3,
    isolation_witness_4,
    non_triortho_perturb,
    schmidt_rotation,
    structure_mover,
)
from tridecomp.decomp import (
    TriDecomposition,
    Variant,
    extract_triortho,
    ordered_triortho,
)
from tridecomp.errors import (
    CapacityError,
    DimensionMismatchError,
    InvalidStateError,
    PreconditionError,
    VerificationError,
)
from tridecomp.spectral import (
    entropy,
    entropy_decomposition_bound,
    reduced_spectra,
    spectrum,
)
from tridecomp.states import (
    DenseState,
    ProductSpace,
    ProductTerm,
    SumState,
    _sum_inner,
    densify,
    distance,
    haar_random_state,
    inner,
    norm,
    partial_trace,
    sparse_vector,
)

from conftest import random_triortho

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestExample31:
    def test_right_angle_tilts_to_second_direction(self):
        fam = example31(math.pi / 2)
        tilted = states._dense_factor(fam.phi_decomposition.state, 0, 2)[1]
        assert tilted[0] == pytest.approx(0.0, abs=1e-12)
        assert tilted[1] == pytest.approx(-1.0, abs=1e-12)

    def test_limit_component(self):
        fam = example31(0.4)
        probe = np.zeros(8, dtype=complex)
        probe[0b001] = 1.0
        val = inner(DenseState(fam.psi.space, probe), fam.psi)
        assert val == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_families_never_meet(self):
        for theta in (0.05, 0.4, 1.2, math.pi / 2):
            fam = example31(theta)
            gap = distance(fam.phi_theta, fam.psi_theta)
            assert gap > 1e-3

    def test_theta_range(self):
        for bad in (0.0, -0.2, math.pi / 2 + 0.1):
            with pytest.raises(InvalidStateError):
                example31(bad)

    def test_distances_have_closed_form(self):
        for theta in (0.3, 0.02):
            fam = example31(theta)
            gap = distance(fam.phi_theta, fam.psi)
            assert gap == pytest.approx(math.sqrt(1 - math.cos(theta)),
                                        abs=1e-12)


class TestSchmidtRotation:
    def test_zero_angle_reproduces_schmidt_form(self):
        res = schmidt_rotation(0.7, 0.3, 0.0)
        (u1, w1), (u2, w2) = res.rotated_terms
        assert np.allclose(u1, [1, 0]) and np.allclose(w1, [math.sqrt(0.7), 0])
        assert np.allclose(u2, [0, -1])
        assert np.allclose(w2, [0, -math.sqrt(0.3)])

    def test_balanced_rotation(self):
        res = schmidt_rotation(0.5, 0.5, math.pi / 4)
        for u, w in res.rotated_terms:
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(w) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_random_reconstruction(self, rng):
        for _ in range(25):
            p1 = rng.uniform(0.3, 1.0)
            p2 = rng.uniform(0.05, p1)
            alpha = rng.uniform(-math.pi, math.pi)
            res = schmidt_rotation(p1, p2, alpha)
            rebuilt = sum(np.outer(u, w) for u, w in res.rotated_terms)
            assert np.max(np.abs(rebuilt - res.state.tensor)) < 1e-12

    def test_weight_ordering_enforced(self):
        with pytest.raises(InvalidStateError):
            schmidt_rotation(0.2, 0.5, 0.1)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        # NaN returned NaN terms, inf escaped as a bare math domain error
        with pytest.raises(InvalidStateError, match="alpha"):
            schmidt_rotation(0.7, 0.3, alpha)

    def test_self_check_fails_on_nan(self, monkeypatch):
        monkeypatch.setattr(constructions.math, "cos", lambda a: math.nan)
        with pytest.raises(VerificationError, match="rotation identity"):
            schmidt_rotation(0.7, 0.3, 0.2)


class TestExample32:
    def test_weights(self):
        res = example32(0.5)
        assert res.weights == (0.5, 0.5)

    def test_cross_overlap_ceiling(self):
        for theta in (0.01, 0.3, 1.0, math.pi / 2):
            res = example32(theta)
            assert res.cross_overlaps.max() <= INV_SQRT2 + 1e-10

    def test_gap_shrinks_with_theta(self):
        assert example32(0.01).trace_norm_gap < example32(0.3).trace_norm_gap

    def test_reductions_match_their_products(self):
        res = example32(0.7)
        for rho, prods in ((res.rho_phi, res.phi_products),
                           (res.rho_psi, res.psi_products)):
            rebuilt = sum(0.5 * np.outer(np.kron(a, b), np.kron(a, b).conj())
                          for a, b in prods)
            assert np.allclose(rho.matrix, rebuilt, atol=1e-12)


class TestExample33:
    def test_degenerate_theta_rejected(self):
        with pytest.raises(InvalidStateError):
            example33(1.0)

    def test_coefficient_magnitude_closed_form(self):
        res = example33(0.04)
        assert res.raw_coefficients[1] == pytest.approx(5.0, abs=1e-12)

    def test_norm_tends_to_one(self):
        norms = [norm(example33(t).phi_raw) for t in (0.1, 0.01, 0.001)]
        assert all(abs(n - 1.0) < 0.5 for n in norms)
        gaps = [abs(n - 1.0) for n in norms]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_decomposition_certified(self):
        res = example33(0.2)
        assert res.decomposition.certificate.passed


class TestDftBasis:
    def test_single_direction_is_phase_only(self):
        v = dft_basis(1)
        assert v.shape == (1, 1)
        assert v[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_flat_overlaps_n4(self):
        v = dft_basis(4)
        assert np.allclose(np.abs(v), 0.5, atol=1e-12)

    def test_gram_identity_up_to_64(self):
        for n in (2, 9, 33, 64):
            v = dft_basis(n)
            assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-12

    @pytest.mark.parametrize("n", [2.5, math.nan, 0, True])
    def test_size_must_be_a_positive_integer(self, n):
        # dft_basis(True) used to return the 1 x 1 basis
        with pytest.raises(InvalidStateError, match="integer"):
            dft_basis(n)


@pytest.fixture(scope="module")
def desk_pair():
    amp = np.zeros(8, dtype=complex)
    amp[0] = 1.0
    psi = DenseState(ProductSpace((2, 2, 2)), amp, normalized=True)
    return psi, instability_pair(psi, 0.7)


class TestInstabilityPair:

    def test_truncation_and_term_counts(self, desk_pair):
        _, pair = desk_pair
        assert pair.truncation_size == 9
        assert pair.phi1.nterms == 1
        assert pair.phi2.nterms == 729
        mags = {round(abs(c), 12) for c in pair.phi2.coeffs.tolist()}
        assert mags == {round(9 ** -1.5, 12)}

    def test_conclusions(self, desk_pair):
        _, pair = desk_pair
        assert max(pair.distances) < 0.7
        assert pair.basis_overlap_min > 0.3
        assert pair.cross_overlap_max < 0.7
        assert pair.decomposition1.certificate.passed
        assert pair.decomposition2.certificate.passed

    def test_independence_bound_is_sin_theta(self, desk_pair):
        _, pair = desk_pair
        cert1 = pair.decomposition1.certificate
        cert2 = pair.decomposition2.certificate
        assert cert1.li_method == cert2.li_method == ("private_support",) * 3
        assert cert1.min_singular_values == pytest.approx((1.0,) * 3,
                                                          abs=1e-12)
        for sv in cert2.min_singular_values:
            assert sv == pytest.approx(math.sin(pair.theta), abs=1e-12)

    def test_component_overlap_is_cos_theta(self, desk_pair):
        _, pair = desk_pair
        k = 0
        comp = states._dense_factor(pair.phi1, 0, pair.space.dims[0])[k]
        base_idx = pair.basis_indices1[k][0]
        assert abs(comp[base_idx]) == pytest.approx(math.cos(pair.theta),
                                                    abs=1e-12)

    def test_certificate_leaves_norm_without_a_gram(self, desk_pair):
        # the certificate records <phi2|phi2> from its one term Gram, which
        # it does not keep; a later norm reads the recorded value
        _, pair = desk_pair
        k = pair.phi2.nterms
        assert "_self_inner" in vars(pair.phi2)
        assert not [name for name, v in vars(pair.phi2).items()
                    if getattr(v, "shape", None) == (k, k)]
        fresh = math.sqrt(max(_sum_inner(pair.phi2, pair.phi2).real, 0.0))
        assert norm(pair.phi2) == fresh

    @pytest.mark.parametrize("seed", [None, 1, 13])
    def test_coefficient_norm_normalizes(self, seed, monkeypatch):
        # the terms are orthonormal, so dividing by the coefficients' norm
        # gives unit states; no term Gram is built on the way
        space = ProductSpace((2, 2, 2))
        psi = (DenseState(space, np.eye(8)[0], normalized=True)
               if seed is None else haar_random_state(space, seed))
        sum_inner = states._sum_inner
        grams = []
        monkeypatch.setattr(states, "_sum_inner",
                            lambda a, b: grams.append(a) or sum_inner(a, b))
        for eps in (0.9, 0.8, 0.7):
            pair = instability_pair(psi, eps)
            assert not grams
            for phi in (pair.phi1, pair.phi2):
                assert abs(norm(phi) - 1.0) <= 1e-14
                fresh = math.sqrt(sum_inner(phi, phi).real)
                assert abs(fresh - 1.0) <= 1e-14

    def test_refused_theta_builds_no_pack(self, monkeypatch):
        # at eps = 0.7 the grid's first theta, 1/2, fails on distance; only
        # the accepted theta's two expansions pack their three factors
        built, original = [], states.FactorPack.__init__

        def counting(pack, rows):
            built.append(rows)
            original(pack, rows)
        monkeypatch.setattr(states.FactorPack, "__init__", counting)
        psi = DenseState(ProductSpace((2, 2, 2)), np.eye(8)[0],
                         normalized=True)
        pair = instability_pair(psi, 0.7)
        assert pair.theta == 0.25
        assert len(built) == 6

    def test_capacity_error_states_the_pack_bytes(self):
        psi = DenseState(ProductSpace((2, 2, 2)), np.eye(8)[0],
                         normalized=True)
        # eps = 0.48 needs n = 18 and 18^3 = 5,832 flat-basis terms
        with pytest.raises(CapacityError, match=(
                r"5833 terms, with split packs of about 6,158,592 bytes "
                r"\(3 x 5832 x \(18 \+ 4\) x 16 B\)")):
            instability_pair(psi, 0.48)
        with pytest.raises(CapacityError,
                           match=r"\(3 x 729 x \(9 \+ 4\) x 16 B\)"):
            instability_pair(psi, 0.7, term_ceiling=729)
        # the quoted size bounds every array of the packs it describes
        phi2 = instability_pair(psi, 0.7).phi2
        held = sum(arr.nbytes for pack in phi2._packed for arr in (
            pack.touched, pack.owner, pack.shared, pack.slot, *pack.private))
        assert 0.85 * 3 * 729 * 13 * 16 < held <= 3 * 729 * 13 * 16

    @pytest.mark.parametrize("ceiling", [math.nan, math.inf, 0, -5, 125.0])
    def test_term_ceiling_must_be_a_positive_integer(self, monkeypatch,
                                                     ceiling):
        # a NaN ceiling passed the capacity guard: sum(sizes) > nan is False
        def no_expansion(*args):
            raise AssertionError("the expansion was built")

        psi = DenseState(ProductSpace((2, 2, 2)), np.eye(8)[0],
                         normalized=True)
        monkeypatch.setattr(constructions, "_flat_expansion_entries",
                            no_expansion)
        with pytest.raises(InvalidStateError, match="term_ceiling"):
            instability_pair(psi, 0.9, term_ceiling=ceiling)

    def test_explicit_theta_too_large(self, desk_pair):
        psi, _ = desk_pair
        with pytest.raises(PreconditionError, match="theta too large"):
            instability_pair(psi, 0.7, theta=math.pi / 2)

    def test_explicit_theta_reproduces_the_search(self):
        # the searched theta, given back explicitly, builds the same pair
        psi = haar_random_state(ProductSpace((2, 2, 2)), 13)
        found = instability_pair(psi, 0.8)
        given = instability_pair(psi, 0.8, theta=found.theta)
        assert given.theta == found.theta
        assert given.distances == found.distances
        assert given.basis_overlap_min == found.basis_overlap_min
        assert given.cross_overlap_max == found.cross_overlap_max
        for a, b in ((given.decomposition1, found.decomposition1),
                     (given.decomposition2, found.decomposition2)):
            assert a.certificate.to_json() == b.certificate.to_json()

    def test_random_state_input(self):
        psi = haar_random_state(ProductSpace((2, 2, 2)), 13)
        pair = instability_pair(psi, 0.9)
        assert max(pair.distances) < 0.9
        assert pair.decomposition1.certificate.passed
        assert pair.decomposition2.certificate.passed

    def test_requires_wavefunction_and_range(self):
        amp = np.zeros(8, dtype=complex)
        amp[0] = 0.5
        sub = DenseState(ProductSpace((2, 2, 2)), amp, normalized=False)
        with pytest.raises(InvalidStateError):
            instability_pair(sub, 0.5)
        good = DenseState(ProductSpace((2, 2, 2)), amp * 2, normalized=True)
        with pytest.raises(InvalidStateError):
            instability_pair(good, 1.5)


class TestMover:
    def test_identity_for_equal_inputs(self):
        psi = haar_random_state(ProductSpace((2, 2, 2)), 3)
        pair = structure_mover(psi, psi)
        assert pair.mover.identity
        assert pair.mover.trace_norm_minus_identity() == 0.0

    def test_identity_for_one_state_given_twice(self):
        # <s|s> rounds below 1 for many Haar states (0.9999999999999998 at
        # seed 1), and the chord sqrt(2 - 2 Re <s|s>) then reads about
        # 1.5e-8, above the norm tolerance; a phase apart stays collinear
        for seed in range(40):
            psi = haar_random_state(ProductSpace((2, 3, 2)), seed)
            again = DenseState(psi.space, psi.amplitudes.copy())
            pair = structure_mover(psi, again)
            assert pair.mover.identity, seed
            assert pair.mover.trace_norm_minus_identity() == 0.0
            turned = DenseState(psi.space, psi.amplitudes * np.exp(1e-6j))
            with pytest.raises(InvalidStateError, match="collinear"):
                structure_mover(psi, turned)

    def test_identity_mover_moves_nothing(self):
        psi = haar_random_state(ProductSpace((2, 2, 2)), 3)
        other = haar_random_state(ProductSpace((2, 2, 2)), 4)
        mover = structure_mover(psi, psi).mover
        assert mover.identity
        assert mover.apply(other) is other
        assert mover.moved_inner(psi, other) == inner(psi, other)

    def test_trace_norm_closed_form(self):
        a = haar_random_state(ProductSpace((2, 3)), 4)
        b = haar_random_state(ProductSpace((2, 3)), 5)
        pair = structure_mover(a, b)
        alpha = inner(b, a)
        expected = 2.0 * math.sqrt(2.0 - 2.0 * alpha.real)
        assert pair.mover.trace_norm_minus_identity() == pytest.approx(
            expected, abs=1e-10)
        dist = math.sqrt(2.0 - 2.0 * alpha.real)
        assert pair.mover.trace_norm_minus_identity() == pytest.approx(
            2.0 * dist, abs=1e-10)

    def test_relabeled_overlap_matches_plain(self, rng):
        a = haar_random_state(ProductSpace((3, 3, 3)), 6)
        b = haar_random_state(ProductSpace((3, 3, 3)), 7)
        pair = structure_mover(a, b)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w /= np.linalg.norm(w)
        plain = np.vdot(v, w)
        for i, aux in ((0, (0, 1)), (1, (2, 0)), (2, (1, 2))):
            val = pair.relabeled_overlap(i, v, w, aux)
            assert val == pytest.approx(plain, abs=1e-10)

    def test_aux_independence(self, rng):
        a = haar_random_state(ProductSpace((3, 3, 3)), 8)
        b = haar_random_state(ProductSpace((3, 3, 3)), 9)
        pair = structure_mover(a, b)
        v = np.array([1, 0, 0], dtype=complex)
        w = np.array([0, 1, 0], dtype=complex)
        vals = [pair.relabeled_overlap(1, v, w, aux)
                for aux in ((0, 0), (1, 2), (2, 1))]
        assert max(abs(x - vals[0]) for x in vals) < 1e-10

    @pytest.mark.parametrize("i", [-1, 3])
    def test_relabeled_factor_out_of_range(self, i):
        a = haar_random_state(ProductSpace((3, 3, 3)), 8)
        b = haar_random_state(ProductSpace((3, 3, 3)), 9)
        pair = structure_mover(a, b)
        v = np.array([1, 0, 0], dtype=complex)
        with pytest.raises(InvalidStateError, match="factor index"):
            pair.relabeled_overlap(i, v, v, (0, 1))

    def test_collinear_rejected(self):
        psi = haar_random_state(ProductSpace((2, 2)), 10)
        flipped = DenseState(psi.space, -psi.amplitudes)
        with pytest.raises(InvalidStateError):
            structure_mover(psi, flipped)

    def test_frame_matches_materialized_perps(self, rng):
        amp = np.zeros(8, dtype=complex)
        amp[0] = 1.0
        pair = instability_pair(DenseState(ProductSpace((2, 2, 2)), amp,
                                           normalized=True), 0.9)
        mover = structure_mover(pair.phi1, pair.phi2).mover
        space = mover.phi1.space

        def dense(s):
            mats = [states._dense_factor(s, i, d)
                    for i, d in enumerate(space.dims)]
            return np.einsum("k,ka,kb,kc->abc", s.coeffs, *mats,
                             optimize=True).ravel()

        p1, p2 = dense(mover.phi1), dense(mover.phi2)
        alpha = np.vdot(p2, p1)
        beta = math.sqrt(1.0 - abs(alpha) ** 2)
        p1_perp = (alpha.conjugate() * p1 - p2) / beta
        p2_perp = (p1 - alpha * p2) / beta

        def moved(v):
            return (v + p1 * (np.vdot(p2, v) - np.vdot(p1, v))
                    + p1_perp * (np.vdot(p2_perp, v) - np.vdot(p1_perp, v)))

        def probe():
            terms = tuple(ProductTerm(
                rng.standard_normal() + 1j * rng.standard_normal(),
                tuple(sparse_vector({int(j): 1.0}) for j in
                      rng.integers(0, 12, size=3)))
                for _ in range(3))
            return SumState(space, terms)

        a, b = probe(), probe()
        ua, ub = moved(dense(a)), moved(dense(b))
        assert np.max(np.abs(densify(mover.apply(a)).amplitudes - ua)) < 1e-12
        for x, y, want in ((a, b, np.vdot(ua, ub)),
                           (a, mover.phi2, np.vdot(ua, p1)),
                           (mover.phi1, b, np.vdot(moved(p1), ub))):
            assert abs(mover.moved_inner(x, y) - want) < 1e-12
        basis = (p1, p1_perp)
        want = np.array([[np.vdot(ei, moved(ej) - ej) for ej in basis]
                         for ei in basis])
        m = mover.minus_identity_matrix()
        assert np.max(np.abs(m - want)) < 1e-12
        u = m + np.eye(2)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
        dist = np.linalg.norm(p1 - p2)
        assert abs(mover.trace_norm_minus_identity() - 2.0 * dist) < 1e-10

    def test_apply_sends_phi2_to_phi1(self):
        a = haar_random_state(ProductSpace((2, 2)), 11)
        b = haar_random_state(ProductSpace((2, 2)), 12)
        pair = structure_mover(a, b)
        moved = densify(pair.mover.apply(b))
        assert np.allclose(moved.amplitudes, a.amplitudes, atol=1e-9)


class TestWitnesses:
    def test_entropy_values(self):
        for n1 in (2, 3, 6):
            w = isolation_witness_3(n1)
            assert norm(w) == pytest.approx(1.0, abs=1e-12)
            ent = entropy(partial_trace(w, (2,))).nats
            assert ent == pytest.approx(math.log(n1 + 1), abs=1e-10)

    def test_dimension_ceiling_violated(self):
        w = isolation_witness_3(3)
        rep = entropy_decomposition_bound(w, 3)
        assert rep.violated

    def test_four_factor_witness(self):
        for n in (2, 4):
            w = isolation_witness_4(n)
            assert norm(w) == pytest.approx(1.0, abs=1e-12)
            rho = partial_trace(w, (1, 2))
            assert entropy(rho).nats == pytest.approx(math.log(n + 1),
                                                      abs=1e-10)
            vals = np.asarray(spectrum(rho).values)
            nonzero = vals[vals > 1e-12]
            assert nonzero.size == n + 1
            assert np.allclose(nonzero, 1.0 / (n + 1), atol=1e-10)

    @pytest.mark.parametrize("build", [isolation_witness_3,
                                       isolation_witness_4])
    @pytest.mark.parametrize("n", [2.9, 3.0, math.nan, 1])
    def test_size_must_be_an_integer_of_at_least_two(self, build, n):
        # 2.9 used to build the n = 2 witness; NaN escaped as a ValueError
        with pytest.raises(InvalidStateError, match="must be an integer"):
            build(n)

    def test_numpy_integer_sizes(self):
        assert isolation_witness_3(np.int64(3)).space.dims == (3, 2, 4)
        assert isolation_witness_4(np.int32(2)).space.dims == (2, 2, 2, 2)

    def test_dims_too_small(self):
        with pytest.raises(InvalidStateError):
            isolation_witness_3(3, dims=(3, 2, 3))
        with pytest.raises(InvalidStateError):
            isolation_witness_4(3, dims=(3, 3, 3, 2))

    # each of these tensors would take over 1e11 bytes
    @pytest.mark.parametrize("build", [
        lambda: isolation_witness_3(100000),
        lambda: isolation_witness_3(3, dims=(3000, 2000, 3000)),
        lambda: isolation_witness_4(1000),
    ])
    def test_refused_above_the_dense_ceiling_before_allocating(self, build):
        with pytest.raises(CapacityError, match="ceiling"):
            build()


class TestPerturbation:
    def test_single_term_distance_exact(self):
        space = ProductSpace((2, 2, 2))
        amp = np.zeros(8, dtype=complex)
        amp[0b101] = 1.0
        base = extract_triortho(DenseState(space, amp)).decomposition
        for eps in (0.05, 0.1, 0.2):
            pert = non_triortho_perturb(base, eps)
            dist_sq = distance(DenseState(space, amp), pert) ** 2
            assert dist_sq == pytest.approx(2 * eps, abs=1e-12)

    def test_spec_case_two_spectra(self):
        # coefficients (sqrt(0.7), sqrt(0.3)): factors 1 and 2 keep the top
        # reduced eigenvalue while factor 3 grows past it
        space = ProductSpace((3, 3, 3))
        e = np.eye(3, dtype=complex)
        terms = tuple(
            ProductTerm(c, (sparse_vector(e[k]), sparse_vector(e[k]),
                            sparse_vector(e[k])))
            for k, c in enumerate((math.sqrt(0.7), math.sqrt(0.3))))
        from tridecomp.decomp import TriDecomposition, Variant
        base = TriDecomposition(space, terms, Variant.ORTHONORMAL)
        pert = non_triortho_perturb(base, 0.1)
        s1, s2, s3 = reduced_spectra(pert)
        assert s1[0] == pytest.approx(0.7, abs=1e-12)
        assert s2[0] == pytest.approx(0.7, abs=1e-12)
        assert s3[0] > 0.7 + 1e-6

    def test_normalized_both_cases(self):
        single = extract_triortho(densify(SumState(
            ProductSpace((2, 2, 2)),
            (ProductTerm(1.0, (((0, 1.0),), ((1, 1.0),), ((0, 1.0),))),)
        ))).decomposition
        multi = random_triortho(44, dims=(4, 4, 4), k=3)
        for base in (single, multi):
            for eps in (0.05, 0.2):
                assert norm(non_triortho_perturb(base, eps)) == pytest.approx(
                    1.0, abs=1e-12)

    def test_epsilon_range(self):
        base = random_triortho(45)
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(InvalidStateError):
                non_triortho_perturb(base, bad)

    def test_refuses_an_input_that_is_not_unit_or_orthonormal(self):
        # coefficients of norm sqrt(5) failed only the output's norm check,
        # a bound failure, and example31's oblique phi expansion labelled
        # ORTHONORMAL was perturbed without complaint
        base = random_triortho(46, dims=(4, 4, 4), k=2)
        scaled = TriDecomposition(base.space, base.state.with_coeffs(
            base.state.coeffs * math.sqrt(5)), Variant.ORTHONORMAL)
        oblique = example31(0.3).phi_decomposition
        oblique = TriDecomposition(oblique.space, oblique.state,
                                   Variant.ORTHONORMAL)
        for bad, reason in ((scaled, "norm 2.236"),
                            (oblique, "orthonormality_factor_0")):
            with pytest.raises(InvalidStateError, match=reason):
                non_triortho_perturb(bad, 0.1)

    def test_near_unit_input_keeps_its_norm(self):
        # the precondition admits a norm 5e-12 above 1, which the output
        # keeps; comparing the output with 1 to 1e-12 refused it (exit 2)
        base = random_triortho(47, dims=(4, 4, 4), k=2)
        near = TriDecomposition(base.space, base.state.with_coeffs(
            base.state.coeffs * (1 + 5e-12)), Variant.ORTHONORMAL)
        for eps in (0.05, 0.2):
            pert = non_triortho_perturb(near, eps)
            assert norm(pert) == pytest.approx(norm(near.state), abs=1e-14)
            assert abs(norm(pert) - 1.0) > 1e-12

    def test_broken_construction_fails_its_norm_check(self, monkeypatch):
        # fresh directions with an imaginary overlap 1e-3 with each factor
        # vector keep every row a unit vector, but the two terms are no
        # longer orthogonal: the norm moves by about 2e-7, above 3 orth
        def leaning(vec):
            fresh = orthogonal_unit(vec) + 1e-3j * vec
            return fresh / np.linalg.norm(fresh)

        orthogonal_unit = constructions._orthogonal_unit
        single = extract_triortho(densify(SumState(
            ProductSpace((2, 2, 2)),
            (ProductTerm(1.0, (((0, 1.0),), ((1, 1.0),), ((0, 1.0),))),)
        ))).decomposition
        assert norm(non_triortho_perturb(single, 0.1)) == pytest.approx(
            1.0, abs=1e-15)
        monkeypatch.setattr(constructions, "_orthogonal_unit", leaning)
        with pytest.raises(VerificationError, match="norm"):
            non_triortho_perturb(single, 0.1)

    def test_refused_perturbed_terms_are_a_construction_fault(self,
                                                              monkeypatch):
        # a fresh direction leaning by a real 1e-5 toward the factor vector
        # tilts z_0 off unit norm by about 3e-6, so the rows check refuses
        # the construction's own terms: a bound failure, not bad input
        def leaning(vec):
            fresh = orthogonal_unit(vec) + 1e-5 * vec
            return fresh / np.linalg.norm(fresh)

        orthogonal_unit = constructions._orthogonal_unit
        single = extract_triortho(densify(SumState(
            ProductSpace((2, 2, 2)),
            (ProductTerm(1.0, (((0, 1.0),), ((1, 1.0),), ((0, 1.0),))),)
        ))).decomposition
        monkeypatch.setattr(constructions, "_orthogonal_unit", leaning)
        with pytest.raises(VerificationError, match="refused: factor 2"):
            non_triortho_perturb(single, 0.1)

    def test_accepts_ordered_form(self):
        base = random_triortho(46, dims=(4, 4, 4), k=2)
        pert = non_triortho_perturb(ordered_triortho(base), 0.1)
        assert norm(pert) == pytest.approx(1.0, abs=1e-12)

    def test_component_index_beyond_factor_dimension(self):
        # an index the factor cannot hold is an error, not a silent drop
        e = np.eye(3, dtype=complex)
        terms = (
            ProductTerm(math.sqrt(0.7), (sparse_vector(e[0]),) * 3),
            ProductTerm(math.sqrt(0.3), (sparse_vector(e[1]),
                                         sparse_vector(e[1]), ((5, 1.0),))),
        )
        with pytest.raises(DimensionMismatchError, match="index 5"):
            TriDecomposition(ProductSpace((3, 3, 3)), terms,
                             Variant.ORTHONORMAL)
