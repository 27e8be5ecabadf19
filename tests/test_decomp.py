import cmath
import inspect
import itertools
import math

import numpy as np
import pytest

from tridecomp import decomp, experiments, states
from tridecomp.constructions import (
    example31,
    instability_pair,
    isolation_witness_3,
    non_triortho_perturb,
)
from tridecomp.decomp import (
    NotTriorthogonal,
    OrderedTriortho,
    TriDecomposition,
    Undetermined,
    Variant,
    _degenerate_groups,
    _factor_independence,
    _tied_products,
    canonical_phase,
    decompositions_equivalent,
    extract_triortho,
    linear_independence,
    ordered_triortho,
    schmidt,
    schmidt_rank,
    truncate_terms,
    verify_tridecomposition,
)
from tridecomp.config import DEFAULT_TOLERANCES, DENSIFY_CEILING, Tolerances
from tridecomp.errors import InvalidStateError
from tridecomp.serialize import state_from_json, state_to_json
from tridecomp.spectral import spectrum, triortho_necessary_test
from tridecomp.states import (
    DenseState,
    ProductSpace,
    ProductTerm,
    SumState,
    densify,
    haar_random_state,
    norm,
    partial_trace,
    sparse_vector,
    sparsify,
)

from conftest import (
    private_column_state,
    random_orthonormal,
    random_triortho,
    random_unit,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _inversions(perm) -> int:
    return sum(a > b for a, b in itertools.combinations(perm, 2))


def singlet_state():
    amp = np.zeros((2, 2, 2), dtype=complex)
    amp[0, 0, 1] = INV_SQRT2
    amp[0, 1, 0] = -INV_SQRT2
    return DenseState(ProductSpace((2, 2, 2)), amp.ravel())


def product_state(rng, dims=(3, 3, 3)):
    vecs = [random_unit(rng, d) for d in dims]
    t = ProductTerm(1.0, tuple(sparse_vector(v) for v in vecs))
    return densify(SumState(ProductSpace(dims), (t,)))


class TestSchmidt:
    def test_product_state_single_coefficient(self, rng):
        sd = schmidt(product_state(rng), (0,))
        assert sd.coefficients.shape == (1,)
        assert sd.coefficients[0] == pytest.approx(1.0)

    def test_singlet_coefficients(self):
        sd = schmidt(singlet_state(), (1,))
        assert np.allclose(sd.coefficients, [INV_SQRT2, INV_SQRT2], atol=1e-12)

    def test_coefficients_square_to_reduced_spectrum(self):
        psi = haar_random_state(ProductSpace((3, 4, 2)), 17)
        sd = schmidt(psi, (0, 2))
        specs = np.asarray(spectrum(partial_trace(psi, (0, 2))).values)
        assert np.allclose(np.sort(sd.coefficients ** 2)[::-1],
                           specs[:sd.coefficients.size], atol=1e-10)

    def test_reconstruction(self):
        for seed in range(10):
            psi = haar_random_state(ProductSpace((3, 3, 3)), seed)
            sd = schmidt(psi, (1,))
            err = np.linalg.norm(sd.reconstruct().amplitudes - psi.amplitudes)
            assert err <= 1e-8

    def test_sum_state_input_decomposes_as_its_densified_form(self):
        state = random_triortho(23, dims=(3, 4, 5), k=3).state
        got, want = schmidt(state, (1,)), schmidt(densify(state), (1,))
        for name in ("coefficients", "left_vectors", "right_vectors"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_zero_state_rejected(self):
        zero = DenseState(ProductSpace((2, 2)), np.zeros(4, dtype=complex),
                          normalized=False)
        with pytest.raises(InvalidStateError):
            schmidt(zero, (0,))

    def test_degenerate_ordering_deterministic(self):
        amp = np.zeros((2, 2, 2), dtype=complex)
        amp[0, 0, 0] = amp[1, 1, 1] = INV_SQRT2
        ghz = DenseState(ProductSpace((2, 2, 2)), amp.ravel())
        a = schmidt(ghz, (0,))
        b = schmidt(ghz, (0,))
        assert np.array_equal(a.left_vectors, b.left_vectors)
        assert np.array_equal(a.right_vectors, b.right_vectors)

    def test_zero_cut_is_the_tolerances(self):
        # Schmidt coefficients in the ratio 1 : 1e-4
        psi = DenseState(ProductSpace((2, 2)),
                         np.array([1.0, 0.0, 0.0, 1e-4]) / math.sqrt(1 + 1e-8))
        assert schmidt(psi, (0,)).coefficients.size == 2
        cut = schmidt(psi, (0,), Tolerances(zero_coeff=1e-3))
        assert cut.coefficients.size == 1

    def test_bipartition_validation(self):
        psi = singlet_state()
        with pytest.raises(InvalidStateError):
            schmidt(psi, (0, 1, 2))

    def test_chain_of_near_ties_is_one_group(self):
        # 1 and 1 - 1.2 deg are further apart than deg, but each step of the
        # chain is within it, so the three columns sort as one group
        deg = DEFAULT_TOLERANCES.deg
        amp = np.diag([1.0, 1.0 - 0.6 * deg, 1.0 - 1.2 * deg]).astype(complex)
        sd = schmidt(DenseState(ProductSpace((3, 3)), amp.ravel()), (0,))
        assert np.allclose(sd.left_vectors, np.eye(3)[:, ::-1], atol=1e-12)


def sum_of_products(seed, dims, coeffs, orthonormal=False):
    """Dense sum_k c_k a_k (x) b_k (x) c_k of random unit components
    (orthonormal per factor, or generic), normalized."""
    rng = np.random.default_rng(seed)
    k = len(coeffs)
    if orthonormal:
        cols = [random_orthonormal(rng, d, k) for d in dims]
    else:
        cols = [np.column_stack([random_unit(rng, d) for _ in range(k)])
                for d in dims]
    amp = np.einsum("k,ak,bk,ck->abc", np.asarray(coeffs, dtype=complex),
                    *cols).ravel()
    return DenseState(ProductSpace(dims), amp / np.linalg.norm(amp))


class TestShortSideSchmidt:
    """``schmidt`` against LAPACK's SVD of the whole matricization."""

    @staticmethod
    def check(psi, left):
        sd = schmidt(psi, left)
        mat = states._matricize(psi, *states._split_factors(left, 3))
        ref = np.linalg.svd(mat, compute_uv=False)
        ref = ref[ref > DEFAULT_TOLERANCES.zero_coeff]
        assert sd.coefficients.size == ref.size
        assert np.abs(np.sort(sd.coefficients)[::-1] - ref).max() <= 1e-13
        recon = np.linalg.norm(sd.reconstruct().amplitudes - psi.amplitudes)
        assert recon <= 1e-13
        for vecs in (sd.left_vectors, sd.right_vectors):
            gram = vecs.conj().T @ vecs
            assert np.abs(gram - np.eye(ref.size)).max() <= 1e-13
        return sd

    def test_low_rank_wide(self):
        psi = sum_of_products(3, (32, 32, 32), [1.0, 0.7, 0.4, 0.2, 0.1, 0.05])
        assert self.check(psi, (0,)).coefficients.size == 6

    def test_low_rank_tall(self):
        psi = sum_of_products(4, (32, 32, 32), [1.0, 0.6, 0.3, 0.1, 0.02])
        sd = self.check(psi, (0, 1))
        assert sd.left_vectors.shape == (1024, 5)
        assert sd.right_vectors.shape == (32, 5)

    def test_full_rank_haar(self):
        psi = haar_random_state(ProductSpace((32, 32, 32)), 5)
        assert self.check(psi, (0,)).coefficients.size == 32

    def test_small_coefficients_either_side_of_the_zero_cut(self):
        coeffs = [1.0, 0.5, 1e-11, 1e-13]
        psi = sum_of_products(6, (6, 6, 6), coeffs, orthonormal=True)
        sd = self.check(psi, (0,))
        scale = np.linalg.norm(coeffs)
        assert np.allclose(sd.coefficients, np.asarray(coeffs[:3]) / scale,
                           rtol=0.0, atol=1e-13)

    def test_spread_spectrum_extracts_and_certifies(self):
        # Schmidt vectors taken as M^H u / s from an eigendecomposition of
        # M M^H would carry errors of order u s_1^3 / s_2^3 = 1e2 here
        coeffs = np.array([1.0, 1e-6]) / math.sqrt(1.0 + 1e-12)
        rng = np.random.default_rng(7)
        space = ProductSpace((5, 6, 7))
        dec = TriDecomposition(space, SumState.from_columns(
            space, coeffs, [random_orthonormal(rng, d, 2) for d in space.dims]),
            Variant.ORTHONORMAL)
        out = extract_triortho(densify(dec.state))
        assert isinstance(out, OrderedTriortho)
        assert out.decomposition.certificate.passed
        assert decompositions_equivalent(out.decomposition, dec, 1e-9)


class TestDegenerateGroups:
    def test_empty(self):
        assert _degenerate_groups([], 1e-7) == []

    def test_singleton(self):
        assert _degenerate_groups([0.4], 1e-7) == [(0, 1)]

    def test_exact_tie(self):
        assert _degenerate_groups([0.6, 0.6, 0.2], 1e-7) == [(0, 2), (2, 3)]

    def test_chain_is_one_group(self):
        deg = DEFAULT_TOLERANCES.deg
        values = np.array([1.0, 1.0 - 0.6 * deg, 1.0 - 1.2 * deg, 0.5])
        assert _degenerate_groups(values, deg) == [(0, 3), (3, 4)]


class TestSchmidtRank:
    def test_product_is_rank_one(self, rng):
        assert schmidt_rank(product_state(rng), (0,), 1e-9) == 1

    def test_singlet_is_rank_two(self):
        assert schmidt_rank(singlet_state(), (1,), 1e-9) == 2

    def test_witness_rank(self):
        for n1 in (2, 4):
            w = isolation_witness_3(n1)
            assert schmidt_rank(w, (2,), 1e-9) == n1 + 1


class TestLinearIndependence:
    def test_orthonormal_set(self):
        vals = [np.array([1, 0, 0], dtype=complex),
                np.array([0, 1, 0], dtype=complex)]
        sv, ok = linear_independence(vals, 1e-8)
        assert sv == pytest.approx(1.0)
        assert ok

    def test_tilted_pair_depends_on_angle(self):
        e0 = np.array([1, 0], dtype=complex)
        e1 = np.array([0, 1], dtype=complex)
        for theta in (0.5, 0.01):
            sv, ok = linear_independence(
                [e0, -math.cos(theta) * e0 - math.sin(theta) * e1], 1e-8)
            assert ok and sv > 0
        sv, ok = linear_independence([e0, -e0], 1e-8)
        assert not ok and sv == pytest.approx(0.0, abs=1e-12)

    def test_duplicate_vector(self, rng):
        v = random_unit(rng, 4)
        sv, ok = linear_independence([v, v.copy()], 1e-8)
        assert not ok and sv == pytest.approx(0.0, abs=1e-8)

    def test_more_vectors_than_dimensions(self, rng):
        vecs = [random_unit(rng, 2) for _ in range(3)]
        assert linear_independence(vecs, 1e-8) == (0.0, False)

    def test_vectors_must_be_one_dimensional_arrays(self):
        with pytest.raises(InvalidStateError, match="1-D arrays"):
            linear_independence([((0, 1.0 + 0j),), ((5, 1.0 + 0j),)], 1e-8)
        with pytest.raises(InvalidStateError, match="1-D arrays"):
            linear_independence([np.eye(2, dtype=complex)], 1e-8)

    def test_entries_of_a_larger_dimension(self):
        # the rows of a pack: coordinates on the touched columns of a larger
        # factor, whose count alone bounds an independent set
        vecs = [np.array([1.0, 0.0], dtype=complex),
                np.array([0.0, 1.0], dtype=complex)]
        sv, ok = linear_independence(vecs, 1e-8)
        assert ok and sv == pytest.approx(1.0)
        assert linear_independence(vecs + vecs[:1], 1e-8) == (0.0, False)


class TestPrivateSupportBound:
    def test_bound_below_svd(self, rng):
        d = 12
        for _ in range(40):
            k = int(rng.integers(2, 7))
            terms = []
            for _ in range(k):
                size = int(rng.integers(1, 5))
                support = rng.choice(d, size=size, replace=False)
                v = np.zeros(d, dtype=complex)
                v[support] = random_unit(rng, size)
                terms.append(ProductTerm(1.0, (sparse_vector(v),) * 3))
            pack = SumState(ProductSpace((d, d, d)), tuple(terms))._packed[0]
            fmat = pack.matrix()
            if fmat.shape[0] > fmat.shape[1]:
                continue
            smin = np.linalg.svd(fmat, compute_uv=False)[-1]
            assert pack.private_norms().min() <= smin + 1e-12

    def test_term_without_private_index_falls_back(self):
        e = np.eye(3, dtype=complex)
        first = ((e[0] + e[2]) / math.sqrt(2), e[1], (e[0] + e[1]) / math.sqrt(2))
        space = ProductSpace((3, 3, 3))
        terms = tuple(
            ProductTerm(c, (sparse_vector(first[k]), sparse_vector(e[k]),
                            sparse_vector(e[k])))
            for k, c in enumerate((0.8, 0.6, 0.4)))
        d = TriDecomposition(space, terms, Variant.LI_ALL)
        cert = verify_tridecomposition(d, densify(SumState(space, terms)))
        assert cert.passed
        assert cert.li_method == ("svd", "private_support", "private_support")
        exact, _ = linear_independence(list(first), 1e-8)
        assert cert.min_singular_values[0] == pytest.approx(exact, abs=1e-14)
        assert cert.min_singular_values[1:] == (1.0, 1.0)

    def test_more_terms_than_dimensions_stay_dependent(self):
        pack = SumState(ProductSpace((2, 2)), tuple(
            ProductTerm(1.0, (((k, 1.0),), ((0, 1.0),))) for k in range(2))
        )._packed[1]
        assert _factor_independence(pack, 1e-8) == (0.0, "svd")
        # three terms on a 2-dimensional factor: e0, e1 and (e0 + e1)/sqrt 2
        # own no private column, and the length check decides without an SVD
        e = np.eye(2, dtype=complex)
        space = ProductSpace((2, 2))
        pack = SumState.from_columns(space, [1.0, 1.0, 1.0], [
            np.column_stack([e[0], e[1], (e[0] + e[1]) / math.sqrt(2)]),
            np.column_stack([e[0]] * 3)])._packed[0]
        assert pack.matrix().shape == (3, 2)
        assert _factor_independence(pack, 1e-8) == (0.0, "svd")


class TestVerify:
    def test_target_must_be_a_state(self):
        d = random_triortho(5)
        with pytest.raises(InvalidStateError):
            verify_tridecomposition(d, np.zeros(d.space.dim, dtype=complex))

    def test_rotation_family_verifies(self):
        fam = example31(math.pi / 4)
        cert = verify_tridecomposition(fam.phi_decomposition, fam.phi_theta)
        assert cert.passed and cert.failed_condition is None
        assert min(cert.min_singular_values) > 1e-8

    def test_collinear_limit_fails(self):
        # the same two terms at theta = 0 collapse onto collinear components
        space = ProductSpace((2, 2, 2))
        e0 = np.array([1, 0], dtype=complex)
        plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
        minus = np.array([1, -1], dtype=complex) / math.sqrt(2)
        terms = (
            ProductTerm(INV_SQRT2, (sparse_vector(e0), sparse_vector(minus),
                                    sparse_vector(plus))),
            ProductTerm(INV_SQRT2, (sparse_vector(-e0), sparse_vector(plus),
                                    sparse_vector(minus))),
        )
        target = densify(SumState(space, terms))
        cert = verify_tridecomposition(
            TriDecomposition(space, terms, Variant.LI_ALL), target)
        assert not cert.passed
        assert cert.failed_condition == "linear_independence_factor_0"

    def test_orthonormal_round_trip(self):
        d = random_triortho(4)
        cert = verify_tridecomposition(d, densify(d.state))
        assert cert.passed
        assert max(cert.max_offdiag_overlaps) < 1e-8

    def test_reconstruction_failure_named(self):
        d = random_triortho(5)
        other = haar_random_state(d.space, 99)
        cert = verify_tridecomposition(d, other)
        assert not cert.passed
        assert cert.failed_condition == "reconstruction"

    def test_zero_coefficient_rejected(self, rng):
        space = ProductSpace((2, 2, 2))
        comps = tuple(sparse_vector(random_unit(rng, 2)) for _ in range(3))
        terms = (ProductTerm(1.0, comps), ProductTerm(0.0, comps))
        cert = verify_tridecomposition(
            TriDecomposition(space, terms, Variant.LI_ALL),
            densify(SumState(space, terms)))
        assert not cert.passed
        assert cert.failed_condition == "zero_coefficient"

    def test_two_factor_variant(self):
        # independent components on factors 1 and 2; the factor-3 components
        # are pairwise non-collinear yet span only two dimensions
        space = ProductSpace((3, 3, 3))
        e = np.eye(3, dtype=complex)
        third = (e[0], e[1], (e[0] + e[1]) / math.sqrt(2))
        terms = tuple(
            ProductTerm(c, (sparse_vector(e[k]), sparse_vector(e[k]),
                            sparse_vector(third[k])))
            for k, c in enumerate((0.8, 0.6, 0.4)))
        target = densify(SumState(space, terms))
        d = TriDecomposition(space, terms, Variant.LI_TWO_FACTORS)
        cert = verify_tridecomposition(d, target)
        assert cert.passed
        assert cert.li_factors == (0, 1)
        all_li = verify_tridecomposition(
            TriDecomposition(space, terms, Variant.LI_ALL), target)
        assert not all_li.passed
        assert all_li.failed_condition == "linear_independence_factor_2"

    def test_certificate_sharpness(self):
        # pushing one component further than the certificate's margin must
        # break reconstruction
        fam = example31(0.7)
        d = fam.phi_decomposition
        cols = experiments._columns(d.state)
        bumped = cols[2][:, 0] * cmath.exp(0.3j)
        bumped[0] += 0.25
        cols[2][:, 0] = bumped / np.linalg.norm(bumped)
        bent = SumState.from_columns(d.space, d.state.coeffs, cols)
        cert = verify_tridecomposition(
            TriDecomposition(d.space, bent, Variant.LI_ALL), fam.phi_theta)
        assert not cert.passed
        assert cert.failed_condition == "reconstruction"


def three_inner_residual(dec, psi):
    """||psi - dec|| from three fresh term Grams, as the inner path takes it."""
    val = (states._sum_inner(psi, psi).real
           - 2.0 * states._sum_inner(psi, dec).real
           + states._sum_inner(dec, dec).real)
    return math.sqrt(max(val, 0.0))


class TestFailingReturns:
    def test_orthonormal_label_on_an_oblique_expansion(self):
        # example31's phi expansion reconstructs exactly, but its factor-0
        # components are not orthogonal
        fam = example31(0.3)
        d = fam.phi_decomposition
        cert = verify_tridecomposition(
            TriDecomposition(d.space, d.state, Variant.ORTHONORMAL),
            fam.phi_theta)
        assert not cert.passed
        assert cert.failed_condition == "orthonormality_factor_0"
        assert cert.reconstruction_error <= 1e-12

    def test_w_as_three_terms_has_no_independent_pair(self):
        # every factor repeats e0, so no two factors are independent
        space = ProductSpace((2, 2, 2))
        e = np.eye(2)
        w = SumState.from_columns(space, np.full(3, 1 / math.sqrt(3)),
                                  [e[:, [1, 0, 0]], e[:, [0, 1, 0]],
                                   e[:, [0, 0, 1]]])
        cert = verify_tridecomposition(
            TriDecomposition(space, w, Variant.LI_TWO_FACTORS), densify(w))
        assert cert.failed_condition == "two_factor_independence"
        assert cert.li_factors is None
        assert cert.max_pairwise_overlaps == (1.0, 1.0, 1.0)

    def test_empty_decomposition(self):
        space = ProductSpace((2, 2, 2))
        empty = SumState.from_columns(space, np.zeros(0),
                                      [np.zeros((2, 0))] * 3)
        cert = verify_tridecomposition(
            TriDecomposition(space, empty, Variant.ORTHONORMAL), empty)
        assert not cert.passed
        assert cert.failed_condition == "no_terms"
        assert cert.reconstruction_error == math.inf
        assert cert.min_singular_values == ()

    @pytest.mark.parametrize("variant", list(Variant))
    def test_empty_certificate_has_no_factor_numbers(self, variant):
        # no terms, no factors: the per-factor fields stay empty rather
        # than reading as maxima over nothing
        space = ProductSpace((2, 2, 2))
        empty = random_triortho(5, dims=(2, 2, 2), k=2).state.take([])
        for target in (empty, densify(empty)):
            cert = verify_tridecomposition(
                TriDecomposition(space, empty, variant), target)
            assert cert.failed_condition == "no_terms"
            assert (cert.min_singular_values, cert.li_method,
                    cert.max_offdiag_overlaps, cert.max_pairwise_overlaps) \
                == ((), (), (), ())

    @pytest.mark.parametrize("variant, bad, condition", [
        (Variant.LI_ALL, (1, 2), "linear_independence_factor_1"),
        (Variant.LI_ALL, (2,), "linear_independence_factor_2"),
        (Variant.ORTHONORMAL, (0, 2), "orthonormality_factor_0"),
        (Variant.ORTHONORMAL, (1,), "orthonormality_factor_1"),
    ])
    def test_first_failing_factor_names_the_condition(self, variant, bad,
                                                      condition):
        # factors in ``bad`` repeat one component across both terms, which
        # is neither independent nor orthonormal
        space = ProductSpace((3, 3, 3))
        e = np.eye(3)
        cols = [e[:, [0, 0]] if i in bad else e[:, [0, 1]] for i in range(3)]
        state = SumState.from_columns(space, [0.8, 0.6], cols)
        cert = verify_tridecomposition(
            TriDecomposition(space, state, variant), state)
        assert cert.failed_condition == condition
        assert cert.reconstruction_error == 0.0


class TestDenseRoundTripTarget:
    def test_correct_decompositions_certify(self):
        # the Gram-form residual failed 88 of these 200 at the default recon
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = experiments._random_triortho(rng, (6, 6, 6), 3)
            target = sparsify(densify(d.state))
            cert = verify_tridecomposition(d, target)
            assert cert.passed, cert.reconstruction_error
            assert cert.tolerances["recon"] == DEFAULT_TOLERANCES.recon


class TestResidualFromOneGram:
    @staticmethod
    def own_rows_target(dec, kind):
        if kind == "identical":
            return dec
        if kind == "serialized":
            return state_from_json(state_to_json(dec))
        coeffs = dec.coeffs.copy()
        coeffs[1] *= 1.5
        return dec.with_coeffs(coeffs)

    @pytest.mark.parametrize("kind, passed", [
        ("identical", True), ("serialized", True), ("tampered", False)])
    def test_own_rows_match_three_inner_products(self, kind, passed):
        # the one Gram's forms give the residual from the coefficient
        # difference: exactly zero for equal coefficients, and the exact
        # distance otherwise
        d = random_triortho(6)
        dec = d.state
        target = self.own_rows_target(dec, kind)
        cert = verify_tridecomposition(d, target)
        if passed:
            assert cert.reconstruction_error == 0.0
        else:
            oracle = np.linalg.norm(densify(target).amplitudes
                                    - densify(dec).amplitudes)
            assert cert.reconstruction_error == pytest.approx(oracle,
                                                              abs=1e-14)
            assert cert.failed_condition == "reconstruction"
        assert cert.passed is passed
        assert dec._self_inner == states._sum_inner(dec, dec)
        assert target._self_inner == states._sum_inner(target, target)

    def test_other_rows_take_the_inner_path(self, monkeypatch):
        d = random_triortho(7)
        dec = d.state
        rows = list(dec.rows)
        data = rows[0].data.copy()
        data[0] *= cmath.exp(0.4j)  # one amplitude, same unit norm
        rows[0] = (rows[0].indptr, rows[0].indices, data)
        moved = SumState.from_rows(dec.space, dec.coeffs, rows)
        # other rows: subtracted in the difference core, to the dense oracle
        oracle = np.linalg.norm(densify(moved).amplitudes
                                - densify(dec).amplitudes)
        cert = verify_tridecomposition(d, moved)
        assert not cert.passed
        assert cert.reconstruction_error == pytest.approx(oracle, abs=1e-14)
        # the core follows the term count, so a few-term target far above
        # the densify ceiling is still subtracted exactly
        embedded = dec.embedded(ProductSpace((200, 200, 200)))
        assert embedded.space.dim > DENSIFY_CEILING
        cert = verify_tridecomposition(d, embedded)
        assert cert.passed
        assert cert.reconstruction_error < 1e-14
        # a core too large for the ceiling: the three inner products,
        # through blocked term Grams
        n = 200
        pad = SumState.from_rows(embedded.space, np.zeros(n),
                                 [(np.arange(n + 1), np.arange(n),
                                   np.ones(n, dtype=complex))] * 3)
        target = states.combine(embedded.space, (1.0, 1.0), (embedded, pad))
        inners = []
        sum_inner = states._sum_inner

        def counted(a, b):
            inners.append((a, b))
            return sum_inner(a, b)

        monkeypatch.setattr(states, "_sum_inner", counted)
        expected = three_inner_residual(dec, target)
        del inners[:]
        cert = verify_tridecomposition(d, target)
        assert inners
        assert cert.reconstruction_error == expected


class TestRoundingIndependentVerdict:
    @pytest.mark.parametrize("epsilon", [0.9, 0.8])
    def test_coefficients_within_rounding_pass(self, epsilon):
        # the residual's cancelling (x, y) form read 1.5-1.8e-8 for
        # coefficients 4e-16 (relative) off the target's and rejected a
        # quarter of these draws
        psi = haar_random_state(ProductSpace((2, 2, 2)), 1)
        d = instability_pair(psi, epsilon).decomposition2
        coeffs = d.state.coeffs
        rng = np.random.default_rng(0)
        for _ in range(40):
            target = d.state.with_coeffs(
                coeffs * (1.0 + 4e-16 * rng.standard_normal(coeffs.size)))
            cert = verify_tridecomposition(d, target)
            assert cert.passed, cert.reconstruction_error
            exact = np.linalg.norm(target.coeffs - coeffs)
            assert abs(cert.reconstruction_error - exact) <= 1e-15


class TestBlockedCertificate:
    def test_maxima_match_the_whole_gram(self, rng, monkeypatch):
        state = private_column_state(rng, 50)
        d = TriDecomposition(state.space, state, Variant.LI_ALL)
        pairs, offs = [], []
        for pack in state._packed:
            g = states._factor_overlap(pack, pack)
            off = np.abs(g)
            np.fill_diagonal(off, 0.0)
            pairs.append(float(off.max()))
            offs.append(max(pairs[-1],
                            float(np.abs(np.diagonal(g) - 1.0).max())))
        target = state.with_coeffs(state.coeffs * 1.01)
        monkeypatch.setattr(states, "_BLOCK_BYTES", 16 * 50 * 12)
        assert len(list(states._overlap_blocks(state, state))) >= 3
        for psi in (state, target):
            cert = verify_tridecomposition(d, psi)
            assert cert.max_pairwise_overlaps == tuple(pairs)  # bitwise
            assert cert.max_offdiag_overlaps == tuple(offs)
        # the own-rows residual is summed block by block to its exact value
        oracle = np.linalg.norm(densify(target).amplitudes
                                - densify(state).amplitudes)
        assert cert.reconstruction_error == pytest.approx(oracle, abs=1e-14)
        assert cert.reconstruction_error == pytest.approx(
            0.01 * norm(state), rel=1e-9)

    def test_one_block_records_the_norm_of_a_fresh_inner(self, rng):
        state = private_column_state(rng, 50)
        assert states._nblocks(state, state) == 1
        d = TriDecomposition(state.space, state, Variant.LI_ALL)
        assert verify_tridecomposition(d, state).passed
        assert state._self_inner == states._sum_inner(state, state)


def term_tensor(d, k):
    """Term ``k`` of a decomposition, coefficient included, densified."""
    return densify(d.state.take([k])).amplitudes


def rephased(d, phases, order=None):
    """``d`` with its terms in ``order``, each coefficient times its phase
    and its factor-0 vector divided by it: the same term tensors."""
    order = np.arange(d.nterms) if order is None else np.asarray(order)
    cols = [c[:, order] for c in experiments._columns(d.state)]
    cols[0] = cols[0] / phases
    return TriDecomposition(d.space, SumState.from_columns(
        d.space, d.state.coeffs[order] * phases, cols), d.variant)


class TestCanonicalPhase:
    def test_idempotent(self):
        d = canonical_phase(random_triortho(6))
        again = canonical_phase(d)
        assert np.allclose(d.state.coeffs, again.state.coeffs, rtol=0.0,
                           atol=1e-14)
        for k in range(d.nterms):
            assert np.allclose(term_tensor(d, k), term_tensor(again, k),
                               atol=1e-13)

    def test_first_significant_entry_turns_real_positive(self):
        # the per-row loop the array version replaced is the reference; the
        # first two terms' first entries lie below zero_tol, so their lead
        # is the next entry
        rng = np.random.default_rng(31)
        space = ProductSpace((6, 7, 8))
        cols = []
        for dim in space.dims:
            z = (rng.standard_normal((dim, 4))
                 + 1j * rng.standard_normal((dim, 4)))
            z[0, :2] = 1e-13j
            cols.append(z / np.linalg.norm(z, axis=0))
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        d = TriDecomposition(space, SumState.from_columns(space, coeffs, cols),
                             Variant.LI_ALL)
        canon = canonical_phase(d)
        for k in range(d.nterms):
            coeff = complex(d.state.coeffs[k])
            for r, g in zip(d.state.rows, canon.state.rows):
                span = slice(r.indptr[k], r.indptr[k + 1])
                comp = r.data[span]
                got = g.data[g.indptr[k]:g.indptr[k + 1]]
                lead = next(a for a in comp if abs(a) > 1e-12)
                mult = cmath.exp(-1j * cmath.phase(lead))
                coeff *= mult.conjugate()
                assert np.array_equal(g.indices[g.indptr[k]:g.indptr[k + 1]],
                                      r.indices[span])
                assert np.allclose(got, comp * mult, rtol=0.0, atol=1e-15)
                first = next(a for a in got if abs(a) > 1e-12)
                assert first.real > 0.0 and abs(first.imag) <= 1e-15
            assert canon.state.coeffs[k] == pytest.approx(coeff, abs=1e-15)

    def test_gauge_invariance(self):
        d = random_triortho(7)
        d2 = rephased(d, [cmath.exp(-0.9j), 1.0, 1.0])
        c1, c2 = canonical_phase(d), canonical_phase(d2)
        assert c1.state.coeffs[0] == pytest.approx(c2.state.coeffs[0],
                                                   abs=1e-12)
        assert np.allclose(term_tensor(c1, 0), term_tensor(c2, 0), atol=1e-12)

    def test_rank_one_terms_invariant(self):
        d = random_triortho(8)
        canon = canonical_phase(d)
        for k in range(d.nterms):
            assert np.allclose(term_tensor(d, k), term_tensor(canon, k),
                               atol=1e-12)

    def test_reference_alignment(self):
        d = random_triortho(9)
        d2 = rephased(d, [cmath.exp(1.3j), 1.0, 1.0])
        aligned = canonical_phase(d2, reference=d)
        for got, want in zip(experiments._columns(aligned.state),
                             experiments._columns(d.state)):
            for k in range(d.nterms):
                ov = np.vdot(got[:, k], want[:, k])
                assert ov.real > 0 and abs(ov.imag) < 1e-10

    def test_reference_of_another_term_count_refused(self):
        # raised numpy's broadcast ValueError
        d = random_triortho(9)
        with pytest.raises(InvalidStateError, match="reference has 2 terms"):
            canonical_phase(d, reference=truncate_terms(d, abs(
                d.coefficients).min()))


class TestEquivalence:
    def test_permuted_and_rephased(self):
        d = random_triortho(10)
        d2 = rephased(d, np.exp(1j * (0.3 + np.arange(d.nterms))),
                      order=np.arange(d.nterms)[::-1])
        assert decompositions_equivalent(d, d2, 1e-7)

    def test_rotation_families_differ(self):
        fam = example31(math.pi / 4)
        assert not decompositions_equivalent(
            fam.phi_decomposition, fam.psi_decomposition, 1e-7)

    def test_changed_coefficient_detected(self):
        tol = 1e-7
        d = random_triortho(11)
        coeffs = d.state.coeffs.copy()
        coeffs[0] *= 1 + 10 * tol / abs(coeffs[0])
        d2 = TriDecomposition(d.space, d.state.with_coeffs(coeffs), d.variant)
        assert not decompositions_equivalent(d, d2, tol)

    def test_term_count_mismatch(self):
        d = random_triortho(12, k=3)
        d2 = truncate_terms(d, abs(d.state.coeffs[-1]) + 1e-12)
        assert d2.nterms == 2
        assert not decompositions_equivalent(d, d2, 1e-7)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -1.0])
    def test_truncation_rejects_a_bad_delta(self, delta):
        # a NaN delta used to drop every term, an infinite one too
        d = random_triortho(12, k=3)
        assert truncate_terms(d, 0.0).nterms == 3
        with pytest.raises(InvalidStateError, match="delta"):
            truncate_terms(d, delta)

    def test_no_terms_are_equivalent(self):
        empty = random_triortho(14).state.take([])
        d = TriDecomposition(empty.space, empty, Variant.ORTHONORMAL)
        assert decompositions_equivalent(d, d, 1e-7)

    def test_tied_group_pairs_terms_by_overlap_then_checks_magnitudes(self):
        # d2 swaps the two tied magnitudes between the same term tensors:
        # the sorted magnitudes agree, but the assignment pairs each term
        # with its own tensor, whose magnitude is 5e-8 away
        d = random_triortho(15, k=3)
        coeffs = d.state.coeffs.copy()
        coeffs[1] = coeffs[0] / abs(coeffs[0]) * (abs(coeffs[0]) - 5e-8)
        d1 = TriDecomposition(d.space, d.state.with_coeffs(coeffs), d.variant)
        swapped = coeffs.copy()
        swapped[:2] = coeffs[:2] / np.abs(coeffs[:2]) * np.abs(coeffs[1::-1])
        d2 = TriDecomposition(d.space, d.state.with_coeffs(swapped), d.variant)
        assert decompositions_equivalent(d1, d1, 1e-8)
        assert not decompositions_equivalent(d1, d2, 1e-8)
        assert decompositions_equivalent(d1, d2, 1e-7)

    def test_degenerate_blocks_matched_by_assignment(self):
        d = random_triortho(13, k=3, tie=True)
        d2 = TriDecomposition(d.space, d.state.take([2, 1, 0]), d.variant)
        assert decompositions_equivalent(d, d2, 1e-7)


class TestFreeTolerances:
    # a NaN, infinite, zero or negative tolerance would flip a comparison
    # and with it the answer, so each is refused as invalid input
    BAD = [math.nan, math.inf, 0.0, -1.0]

    @pytest.mark.parametrize("tol", BAD)
    def test_decompositions_equivalent(self, tol):
        d = random_triortho(40, dims=(4, 4, 4), k=3)
        d2 = random_triortho(41, dims=(4, 4, 4), k=3)
        assert not decompositions_equivalent(d, d2, 1e-6)
        with pytest.raises(InvalidStateError, match="tolerance tol"):
            decompositions_equivalent(d, d2, tol)

    @pytest.mark.parametrize("tol", BAD)
    def test_triortho_necessary_test(self, tol):
        psi = densify(random_triortho(42, dims=(4, 4, 4), k=3).state)
        assert triortho_necessary_test(psi, 1e-8)
        with pytest.raises(InvalidStateError, match="tolerance tol"):
            triortho_necessary_test(psi, tol)

    @pytest.mark.parametrize("tol", BAD)
    def test_linear_independence(self, tol):
        v = np.array([1.0, 0.0], dtype=complex)
        assert linear_independence([v, v], 1e-8) == (0.0, False)
        with pytest.raises(InvalidStateError, match="tolerance tol"):
            linear_independence([v, v], tol)

    @pytest.mark.parametrize("tol", BAD)
    def test_schmidt_rank(self, tol):
        with pytest.raises(InvalidStateError, match="tolerance tol"):
            schmidt_rank(singlet_state(), (0,), tol)


class TestExtraction:
    def test_round_trip_nondegenerate(self):
        d = random_triortho(14, dims=(4, 5, 6), k=4)
        out = extract_triortho(densify(d.state))
        assert isinstance(out, OrderedTriortho)
        assert decompositions_equivalent(out.decomposition, d, 1e-7)
        assert out.decomposition.certificate.passed

    def test_product_state_single_term(self, rng):
        out = extract_triortho(product_state(rng))
        assert isinstance(out, OrderedTriortho)
        assert out.decomposition.nterms == 1
        assert abs(out.decomposition.state.coeffs[0]) == pytest.approx(1.0)

    def test_singlet_family_rejected(self):
        out = extract_triortho(singlet_state())
        assert isinstance(out, NotTriorthogonal)
        assert "spectra" in out.reason

    def test_w_state_rejected_at_product_split(self):
        amp = np.zeros((2, 2, 2), dtype=complex)
        amp[1, 0, 0] = amp[0, 1, 0] = amp[0, 0, 1] = 1 / math.sqrt(3)
        w = DenseState(ProductSpace((2, 2, 2)), amp.ravel())
        out = extract_triortho(w)
        assert isinstance(out, NotTriorthogonal)
        assert "not a product" in out.reason

    def test_long_first_factor(self):
        # factor 0 is the long side of its 10 x 4 matricization; extraction
        # rotates by the short side's 4 x 4 Gram instead
        d = random_triortho(18, dims=(10, 2, 2), k=2)
        out = extract_triortho(densify(d.state))
        assert isinstance(out, OrderedTriortho)
        assert out.decomposition.certificate.passed
        assert decompositions_equivalent(out.decomposition, d, 1e-9)

    def test_degenerate_block_resolved(self):
        amp = np.zeros((2, 2, 2), dtype=complex)
        amp[0, 0, 0] = amp[1, 1, 1] = INV_SQRT2
        ghz = DenseState(ProductSpace((2, 2, 2)), amp.ravel())
        out = extract_triortho(ghz)
        assert isinstance(out, OrderedTriortho)
        assert out.decomposition.nterms == 2
        assert len(out.blocks) == 1
        assert out.blocks[0].indices == (0, 1)

    def test_exact_tie_round_trip(self):
        d = random_triortho(15, dims=(4, 4, 4), k=3, tie=True)
        out = extract_triortho(densify(d.state))
        assert isinstance(out, OrderedTriortho)
        assert decompositions_equivalent(out.decomposition, d, 1e-7)

    def test_extracted_spectra_match_coefficients(self):
        d = random_triortho(16, dims=(5, 5, 5), k=3)
        psi = densify(d.state)
        out = extract_triortho(psi)
        coeffs = np.abs(out.decomposition.coefficients) ** 2
        for i in range(3):
            vals = np.asarray(spectrum(partial_trace(psi, (i,))).values)
            assert np.allclose(vals[:3], coeffs, atol=1e-9)

    def test_requires_wavefunction(self):
        sub = DenseState(ProductSpace((2, 2, 2)),
                         np.full(8, 0.1, dtype=complex), normalized=False)
        with pytest.raises(InvalidStateError):
            extract_triortho(sub)

    def test_deficient_degenerate_block_undetermined(self):
        # two orthonormal right vectors sharing one factor-2 direction give a
        # rank-deficient joint reduction; resolution must stay honest
        e = np.eye(4, dtype=complex)
        r1 = np.kron(e[:, 0], e[:, 1])
        r2 = np.kron(e[:, 0], e[:, 2])
        out = _tied_products(np.array([r1, r2]).reshape(2, 4, 4), 1e-7)
        assert isinstance(out, Undetermined)

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_flat_three_qutrit_states_rejected_at_the_span(self, sign):
        # the antisymmetric (sign -1) and symmetric sums over the
        # permutations of |012> have equal reduced spectra and one tied
        # Schmidt block of three, which no products span
        amp = np.zeros((3, 3, 3), dtype=complex)
        for p in itertools.permutations(range(3)):
            amp[p] = sign ** _inversions(p) / math.sqrt(6)
        out = extract_triortho(DenseState(ProductSpace((3, 3, 3)),
                                          amp.ravel()))
        assert isinstance(out, NotTriorthogonal)
        assert out.reason.startswith("degenerate block")

    @staticmethod
    def perturbed_core(seed, delta):
        """A 3-term triorthogonal 4^3 state whose 3 x 3 x 3 core moved by
        delta E, E random complex with ||E|| = 1, renormalized."""
        rng = np.random.default_rng(seed)
        q = [random_orthonormal(rng, 4, 3) for _ in range(3)]
        core = np.zeros((3, 3, 3), dtype=complex)
        core[range(3), range(3), range(3)] = [0.8, 0.5, 0.33]
        e = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        core += delta * e / np.linalg.norm(e)
        psi = np.einsum("abc,ia,jb,kc->ijk", core, *q)
        return DenseState(ProductSpace((4, 4, 4)),
                          (psi / np.linalg.norm(psi)).ravel())

    @pytest.mark.parametrize("seed", range(4))
    def test_assembled_candidate_refused_by_its_certificate(self, seed):
        # at 3e-8 every group splits within its checks, but the assembled
        # terms miss the state by more than the reconstruction tolerance;
        # at 3e-9 the same state still extracts
        out = extract_triortho(self.perturbed_core(seed, 3e-8))
        assert isinstance(out, NotTriorthogonal)
        assert out.reason == "assembled candidate fails reconstruction"
        assert isinstance(extract_triortho(self.perturbed_core(seed, 3e-9)),
                          OrderedTriortho)

    def test_sum_state_input_extracts_as_its_densified_form(self):
        d = random_triortho(22, dims=(4, 5, 6), k=3, tie=True)
        got = extract_triortho(d.state)
        want = extract_triortho(densify(d.state))
        assert got.blocks == want.blocks
        assert np.array_equal(got.decomposition.coefficients,
                              want.decomposition.coefficients)
        for a, b in zip(got.decomposition.state.rows,
                        want.decomposition.state.rows):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))

    @pytest.mark.parametrize("dims,k,seed", [
        ((4, 4, 4), 3, 0), ((4, 4, 4), 3, 2), ((6, 5, 4), 4, 1),
        ((5, 5, 5), 4, 3)])
    def test_tied_term_order_is_independent_of_the_svd(self, monkeypatch,
                                                       dims, k, seed):
        # a tied block's terms are unique up to order and phase; the
        # canonical phase and the factor-0 order inside the block pin both,
        # whichever SVD found the Schmidt basis
        def whole_matrix_svd(mat, zero_cut, gram=None):
            u, s, vh = np.linalg.svd(mat, full_matrices=False)
            big = s > zero_cut
            return u[:, big], s[big], vh[big]

        psi = densify(random_triortho(seed, dims=dims, k=k, tie=True).state)
        short = extract_triortho(psi)
        monkeypatch.setattr(decomp, "_short_side_svd", whole_matrix_svd)
        whole = extract_triortho(psi)
        assert [b.indices for b in short.blocks] == \
            [b.indices for b in whole.blocks]
        assert len(short.blocks[0].indices) == 2
        for a, b in zip(experiments._columns(short.decomposition.state),
                        experiments._columns(whole.decomposition.state)):
            assert np.max(np.abs(a - b)) < 1e-10

    def test_uniqueness_against_independent_derivation(self):
        # re-derive the verified expansion through the dual basis of the
        # first factor and check equivalence
        fam = example31(0.8)
        d = fam.phi_decomposition
        cols = experiments._columns(d.state)[0]
        dual = np.linalg.inv(cols.conj().T @ cols) @ cols.conj().T
        tensor = fam.phi_theta.tensor
        coeffs, mids, rights = [], [], []
        for k in range(d.nterms):
            block = np.einsum("a,abc->bc", dual[k].conj(), tensor)
            u, s, vh = np.linalg.svd(block)
            assert s[1] < 1e-10
            coeffs.append(s[0])
            mids.append(u[:, 0])
            rights.append(vh[0, :])
        d2 = TriDecomposition(d.space, SumState.from_columns(
            d.space, coeffs, [cols, np.column_stack(mids),
                              np.column_stack(rights)]), Variant.LI_ALL)
        assert verify_tridecomposition(d2, fam.phi_theta).passed
        assert decompositions_equivalent(d, d2, 1e-7)


class TestOneGramPerFactor:
    @pytest.fixture
    def grams(self, monkeypatch):
        """The shapes of the matrices whose Gram M M^H is formed."""
        shapes, original = [], states._gram

        def counting(mat):
            shapes.append(mat.shape)
            return original(mat)
        for module in (states, decomp):  # decomp binds the helper by name
            monkeypatch.setattr(module, "_gram", counting)
        return shapes

    def test_extraction_forms_one_gram_per_factor(self, grams):
        # the reduction the necessary test forms for factor 0 also rotates
        # the Schmidt SVD across factor 0
        d = random_triortho(19, dims=(6, 5, 4), k=3)
        out = extract_triortho(densify(d.state))
        assert out.decomposition.certificate.passed
        assert sorted(grams) == [(4, 30), (5, 24), (6, 20)]

    def test_long_factor_0_rotates_by_the_short_side(self, grams,
                                                     monkeypatch):
        # a 24 x 6 matricization: the 6 x 6 Gram of its adjoint rotates the
        # Schmidt SVD, not the 24 x 24 reduction the necessary test formed
        eighs, original = [], np.linalg.eigh

        def counting(mat):
            eighs.append(mat.shape)
            return original(mat)
        monkeypatch.setattr(np.linalg, "eigh", counting)
        d = random_triortho(21, dims=(24, 3, 2), k=2)
        out = extract_triortho(densify(d.state))
        assert out.decomposition.certificate.passed
        assert decompositions_equivalent(out.decomposition, d, 1e-9)
        assert eighs == [(6, 6)]
        assert grams == [(24, 6), (3, 48), (2, 72), (6, 24)]

    def test_schmidt_forms_its_short_sides_gram(self, grams):
        psi = densify(random_triortho(20, dims=(6, 5, 4), k=3).state)
        schmidt(psi, (0, 1))  # 30 x 4: the short side is the adjoint
        schmidt(psi, (2,))
        assert grams == [(4, 30), (4, 30)]


def _verdict_class_state(kind):
    """12^3 states of the four verdict classes the extraction benchmark runs,
    with the decomposition extraction must recover (None: not triorthogonal)."""
    if kind == "haar":
        return haar_random_state(ProductSpace((12, 12, 12)), 71), None
    d = random_triortho(70, dims=(12, 12, 12), k=8, tie=(kind == "tie"))
    if kind == "perturbed":
        return non_triortho_perturb(d, 0.1), None
    return densify(d.state), d


class TestExtractionVerdictClasses:
    @pytest.mark.parametrize("kind", ["triortho", "tie", "haar", "perturbed"])
    def test_verdict(self, kind):
        psi, expected = _verdict_class_state(kind)
        out = extract_triortho(psi)
        if expected is None:
            assert isinstance(out, NotTriorthogonal)
            assert "spectra" in out.reason
        else:
            assert isinstance(out, OrderedTriortho)
            assert out.decomposition.certificate.passed
            assert decompositions_equivalent(out.decomposition, expected, 1e-7)


class TestOrderedForm:
    def test_blocks_strictly_decreasing(self):
        d = random_triortho(18, k=4)
        po = ordered_triortho(d)
        mags = [b.magnitude for b in po.blocks]
        assert all(a > b for a, b in zip(mags, mags[1:]))
        sizes = sum(len(b.indices) for b in po.blocks)
        assert sizes == d.nterms

    def test_tie_grouped(self):
        d = random_triortho(19, k=3, tie=True)
        po = ordered_triortho(d)
        assert len(po.blocks[0].indices) == 2

    def test_requires_orthonormal_variant(self):
        fam = example31(0.5)
        with pytest.raises(InvalidStateError):
            ordered_triortho(fam.phi_decomposition)

    def test_blocks_follow_the_degeneracy_width(self):
        # magnitudes 0.6, 0.6 - 1e-4 and 0.2 are one block per value at the
        # default width and a tie at Tolerances(deg=1e-3)
        d = random_triortho(20, k=3)
        a = np.array([0.6, 0.6 - 1e-4, 0.2])
        a /= np.linalg.norm(a)
        d = TriDecomposition(d.space, d.state.with_coeffs(a), d.variant)
        assert "tol_deg" not in inspect.signature(ordered_triortho).parameters
        assert [b.indices for b in ordered_triortho(d).blocks] == \
            [(0,), (1,), (2,)]
        wide = ordered_triortho(d, Tolerances(deg=1e-3))
        assert [b.indices for b in wide.blocks] == [(0, 1), (2,)]

    @pytest.mark.parametrize("width", [math.nan, -1.0])
    def test_width_is_checked_by_the_tolerance_table(self, width):
        # a NaN width merged distinct magnitudes, a negative one split ties
        with pytest.raises(InvalidStateError, match="tolerance deg"):
            Tolerances(deg=width)
