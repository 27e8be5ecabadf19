import base64
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tridecomp import experiments, states
from tridecomp.config import Tolerances
from tridecomp.errors import (
    CapacityError,
    DimensionMismatchError,
    InvalidStateError,
)
from tridecomp.states import (
    DenseState,
    DensityMatrix,
    FactorPack,
    ProductSpace,
    ProductTerm,
    Rows,
    SumState,
    _factor_overlap,
    aligned_density_matrices,
    densify,
    distance,
    haar_random_state,
    inner,
    norm,
    partial_trace,
    partial_trace_matrix,
    project_factor,
    sparse_vector,
    sparsify,
    trace_norm,
)
from tridecomp.constructions import isolation_witness_3, structure_mover
from tridecomp.decomp import (
    TriDecomposition,
    Variant,
    linear_independence,
    ordered_triortho,
    schmidt,
)
from tridecomp.matching import match_components
from tridecomp.serialize import state_from_json, state_to_json
from tridecomp.spectral import entropy, spectrum, verify_spectral_lemmas

from conftest import (
    private_column_state,
    random_orthonormal,
    random_psd,
    random_unit,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
SPACE3 = ProductSpace((2, 2, 2))


def singlet_state():
    """First-factor vector times a singlet on factors 2, 3."""
    amp = np.zeros((2, 2, 2), dtype=complex)
    amp[0, 0, 1] = INV_SQRT2
    amp[0, 1, 0] = -INV_SQRT2
    return DenseState(SPACE3, amp.ravel(), normalized=True)


def singlet_sum():
    t1 = ProductTerm(INV_SQRT2, (((0, 1.0),), ((0, 1.0),), ((1, 1.0),)))
    t2 = ProductTerm(-INV_SQRT2, (((0, 1.0),), ((1, 1.0),), ((0, 1.0),)))
    return SumState(SPACE3, (t1, t2))


def random_sum_state(rng, dims=(3, 4, 5), k=5):
    terms = tuple(
        ProductTerm(rng.standard_normal() + 1j * rng.standard_normal(),
                    tuple(sparse_vector(random_unit(rng, d)) for d in dims))
        for _ in range(k))
    return SumState(ProductSpace(dims), terms)


class TestSpace:
    def test_factor_count_bounds(self):
        with pytest.raises(InvalidStateError):
            ProductSpace((4,))
        with pytest.raises(InvalidStateError):
            ProductSpace((2, 2, 2, 2, 2))

    def test_min_dimension(self):
        with pytest.raises(InvalidStateError):
            ProductSpace((1, 2))

    def test_immutable(self):
        sp = ProductSpace((2, 3))
        with pytest.raises(Exception):
            sp.dims = (3, 3)


E0 = np.eye(2, dtype=complex)[0]


def _ordered():
    d = TriDecomposition(SPACE3, SumState.from_columns(
        SPACE3, [1.0], [E0[:, None]] * 3), Variant.ORTHONORMAL)
    return ordered_triortho(d), d


_TERMS_V1 = {"schema": "tridecomp/1", "dims": [2, 2], "format": "product_sum",
             "terms": [{"coeff": [1.0, 0.0],
                        "factors": [[[1.7, [1.0, 0.0]]], [[0, [1.0, 0.0]]]]}]}
_DENSE_V2 = {"schema": "tridecomp/2", "dims": [2.9, 3, 2], "format": "dense",
             "amplitudes": base64.b64encode(
                 np.eye(12, dtype="<c16")[0].tobytes()).decode()}

# every caller or document integer that used to be truncated by int()
INTEGER_INPUTS = {
    "ProductSpace dims": lambda: ProductSpace((2.5, 2)),
    "TrialConfig dims": lambda: experiments.TrialConfig(dims=(4.7, 4, 4)),
    "partial_trace float": lambda: partial_trace(singlet_state(), (1.9,)),
    "partial_trace bool": lambda: partial_trace(singlet_state(), (True,)),
    "schmidt": lambda: schmidt(singlet_state(), (0.5,)),
    "project_factor": lambda: project_factor(singlet_state(), 1.7, E0),
    "match_components level": lambda: match_components(*_ordered(), 1.5, 0.1),
    "match_components bool": lambda: match_components(*_ordered(), True, 0.1),
    "haar_random_state seed": lambda: haar_random_state(SPACE3, True),
    "witness dims": lambda: isolation_witness_3(3, dims=(3.5, 2, 4)),
    "from_rows index": lambda: SumState.from_rows(
        ProductSpace((2, 2)), [1.0], [([0, 1], [1.5], [1.0])] * 2),
    "from_rows indptr": lambda: SumState.from_rows(
        ProductSpace((2, 2)), [1.0], [([0, 1.0], [0], [1.0])] * 2),
    "tridecomp/1 component index": lambda: state_from_json(_TERMS_V1),
    "tridecomp/2 dims": lambda: state_from_json(_DENSE_V2),
    "sparse_vector pair": lambda: sparse_vector([(1.5, 1.0)]),
    "DensityMatrix dims": lambda: DensityMatrix(np.eye(2) / 2, (2.0,), (0,)),
    "DensityMatrix kept factor": lambda: DensityMatrix(np.eye(2) / 2, (2,),
                                                       (0.5,)),
    "DensityMatrix basis": lambda: DensityMatrix(np.eye(2) / 2, (2,), (0,),
                                                 basis=((0, 1.5),)),
    "partial_trace of a matrix": lambda: partial_trace(
        partial_trace(singlet_state(), (0, 1)), (True,)),
    "partial_trace_matrix dims": lambda: partial_trace_matrix(
        np.eye(4) / 4, (2.5, 2), (0,)),
    "relabeled_overlap factor": lambda: _mover().relabeled_overlap(
        0.5, E0, E0, (0, 0)),
    "relabeled_overlap aux": lambda: _mover().relabeled_overlap(
        0, E0, E0, (1.5, 0)),
    "SumState.take": lambda: sparsify(singlet_state()).take([0.5]),
}


def _mover():
    return structure_mover(haar_random_state(SPACE3, 8),
                           haar_random_state(SPACE3, 9))


@pytest.mark.parametrize("name", INTEGER_INPUTS)
def test_integers_are_not_truncated(name):
    # each of these truncated 2.5 to 2 or True to 1 and went on
    with pytest.raises(InvalidStateError, match="integer"):
        INTEGER_INPUTS[name]()


class TestInner:
    def test_normalization(self):
        psi = singlet_state()
        assert inner(psi, psi) == pytest.approx(1.0)

    def test_singlet_component(self):
        # the amplitude of the first-factor vector with the up-down product
        probe = np.zeros(8, dtype=complex)
        probe[0b001] = 1.0
        val = inner(DenseState(SPACE3, probe), singlet_state())
        assert val == pytest.approx(INV_SQRT2)

    def test_sum_matches_densified_oracle(self, rng):
        a = random_sum_state(rng)
        b = random_sum_state(rng)
        direct = inner(a, b)
        oracle = np.vdot(densify(a).amplitudes, densify(b).amplitudes)
        assert direct == pytest.approx(oracle, abs=1e-12)

    def test_conjugate_linear_in_first_argument(self, rng):
        a, b = random_sum_state(rng), random_sum_state(rng)
        assert inner(a, b) == pytest.approx(np.conj(inner(b, a)))

    def test_mixed_representations_agree(self, rng):
        a = random_sum_state(rng)
        b = random_sum_state(rng)
        assert inner(densify(a), b) == pytest.approx(inner(a, b), abs=1e-12)
        assert inner(a, densify(b)) == pytest.approx(inner(a, b), abs=1e-12)

    def test_zero_padding_smaller_space(self):
        small = DenseState(ProductSpace((2, 2)),
                           np.array([1, 0, 0, 0], dtype=complex))
        big_amp = np.zeros((3, 2), dtype=complex)
        big_amp[0, 0] = 1.0
        big = DenseState(ProductSpace((3, 2)), big_amp.ravel())
        assert inner(small, big) == pytest.approx(1.0)

    def test_factor_count_mismatch(self):
        two = DenseState(ProductSpace((2, 2)), np.eye(2).ravel() / math.sqrt(2))
        with pytest.raises(DimensionMismatchError):
            inner(two, singlet_state())

    def test_cauchy_schwarz(self, rng):
        for _ in range(50):
            a, b = random_sum_state(rng, k=3), random_sum_state(rng, k=4)
            assert abs(inner(a, b)) <= norm(a) * norm(b) + 1e-10


def dense_overlap(pack_a, pack_b):
    """Reference for ``_factor_overlap``: one product over the common columns."""
    (ia, fa), (ib, fb) = pack_a, pack_b
    _, ca, cb = np.intersect1d(ia, ib, return_indices=True)
    return fa[:, ca].conj() @ fb[:, cb].T


def supported_sum_state(rng, supports, dims):
    """Random SumState whose factor-0 components live on ``supports``."""
    terms = []
    for support in supports:
        v = np.zeros(dims[0], dtype=complex)
        v[list(support)] = random_unit(rng, len(support))
        terms.append(ProductTerm(
            rng.standard_normal() + 1j * rng.standard_normal(),
            (sparse_vector(v),) + tuple(sparse_vector(random_unit(rng, d))
                                        for d in dims[1:])))
    return SumState(ProductSpace(dims), tuple(terms))


class TestFactorOverlap:
    DIMS = (20, 3, 3)
    SUPPORTS = {
        # every index shared by at least two terms
        "none": [(0, 1, 2), (0, 1, 2), (1, 2, 3), (0, 3)],
        # a shared core plus one private index per term (the tilted shape)
        "some": [(0, 1, 2, 10), (0, 1, 2, 11), (0, 1, 2, 12), (3, 13, 14)],
        # private here where "some" shares and shared where "some" is private
        "crossed": [(0, 10, 11), (1, 10, 11), (12,), (3, 13)],
        # disjoint supports
        "all": [(10,), (11, 15), (12, 16, 17), (13,)],
    }

    def test_private_columns_recorded(self, rng):
        for kind, supports in self.SUPPORTS.items():
            pack = supported_sum_state(rng, supports, self.DIMS)._packed[0]
            touched, _ = pack
            users = {int(c): [k for k, s in enumerate(supports) if c in s]
                     for c in touched}
            expected = [u[0] if len(u) == 1 else -1 for u in users.values()]
            assert pack.owner.tolist() == expected, kind
            assert pack.has_private == (kind != "none")

    def test_matches_single_product(self, rng):
        for _ in range(5):
            states = [supported_sum_state(rng, s, self.DIMS)
                      for s in self.SUPPORTS.values()]
            for a in states:
                for b in states:
                    for i in range(3):
                        got = _factor_overlap(a._packed[i], b._packed[i])
                        want = dense_overlap(a._packed[i], b._packed[i])
                        assert np.max(np.abs(got - want)) < 1e-13

    @staticmethod
    def intersect_overlap(pack_a, pack_b):
        """``_factor_overlap`` as it was before equal supports were
        special-cased: the common columns always come from ``intersect1d``."""
        ia, fa = pack_a
        ib, fb = pack_b
        common, ca, cb = np.intersect1d(ia, ib, assume_unique=True,
                                        return_indices=True)
        if common.size == 0:
            return np.zeros((fa.shape[0], fb.shape[0]), dtype=np.complex128)
        if not (pack_a.has_private and pack_b.has_private):
            return fa[:, ca].conj() @ fb[:, cb].T
        ra, rb = pack_a.owner[ca], pack_b.owner[cb]
        both = (ra >= 0) & (rb >= 0)
        out = fa[:, ca[~both]].conj() @ fb[:, cb[~both]].T
        ra, rb = ra[both], rb[both]
        np.add.at(out, (ra, rb), fa[ra, ca[both]].conj() * fb[rb, cb[both]])
        return out

    def test_equal_supports_match_the_intersect_path_bitwise(self, rng):
        states = {kind: supported_sum_state(rng, s, self.DIMS)
                  for kind, s in self.SUPPORTS.items()}
        for kind, st in states.items():
            for i in range(3):
                pack = st._packed[i]
                # an equal copy: equal touched indices in another array
                copy = FactorPack(Rows(*(a.copy() for a in st.rows[i])))
                assert copy.touched is not pack.touched
                for a, b in ((pack, pack), (pack, copy), (copy, pack)):
                    assert np.array_equal(_factor_overlap(a, b),
                                          self.intersect_overlap(a, b)), kind
        # partly disjoint ("some" and "crossed" share factor-0 indices 0 and
        # 3) and fully disjoint supports keep the intersect path
        disjoint = supported_sum_state(rng, [(4, 5), (6,), (7, 8, 9)],
                                       self.DIMS)
        for a, b in (("some", "crossed"), ("none", "all"), ("crossed", "all")):
            pa, pb = states[a]._packed[0], states[b]._packed[0]
            assert np.array_equal(_factor_overlap(pa, pb),
                                  self.intersect_overlap(pa, pb))
        for st in states.values():
            pa, pb = st._packed[0], disjoint._packed[0]
            got = _factor_overlap(pa, pb)
            assert np.array_equal(got, self.intersect_overlap(pa, pb))
            assert not got.any()

    def test_term_gram_with_an_empty_operand(self, rng):
        s = random_sum_state(rng, (3, 4, 5), k=4)
        empty = SumState(s.space, ())
        assert states.term_gram(empty, s).shape == (0, 4)
        assert states.term_gram(s, empty).shape == (4, 0)
        assert states.term_gram(empty, empty).shape == (0, 0)
        assert inner(empty, s) == 0 and inner(s, empty) == 0

    def test_instability_pair_factors(self):
        from tridecomp.constructions import instability_pair
        pair = instability_pair(haar_random_state(SPACE3, 13), 0.9)
        for a, b in ((pair.phi1, pair.phi2), (pair.phi2, pair.phi1),
                     (pair.phi2, pair.phi2)):
            for i in range(3):
                assert a._packed[i].has_private and b._packed[i].has_private
                got = _factor_overlap(a._packed[i], b._packed[i])
                want = dense_overlap(a._packed[i], b._packed[i])
                assert np.max(np.abs(got - want)) < 1e-13


class TestNorm:
    def test_single_term(self, rng):
        t = ProductTerm(0.25 - 0.5j,
                        tuple(sparse_vector(random_unit(rng, d))
                              for d in (3, 3, 3)))
        assert norm(SumState(ProductSpace((3, 3, 3)), (t,))) == \
            pytest.approx(abs(0.25 - 0.5j))

    def test_random_against_densified(self, rng):
        s = random_sum_state(rng)
        assert norm(s) == pytest.approx(norm(densify(s)), abs=1e-10)


class TestPartialTrace:
    def test_product_state_gives_projector(self, rng):
        vecs = [random_unit(rng, d) for d in (3, 4, 5)]
        t = ProductTerm(1.0, tuple(sparse_vector(v) for v in vecs))
        s = SumState(ProductSpace((3, 4, 5)), (t,))
        rho = partial_trace(s, (0,))
        expected = np.outer(vecs[0], vecs[0].conj())
        a, b = aligned_density_matrices(
            rho, DensityMatrix(expected, (3,), (0,)))
        assert np.allclose(a, b, atol=1e-12)

    def test_singlet_reduction_is_maximally_mixed(self):
        # brute-force oracle: contract factors 0 and 2 by hand, diagonalize
        psi = singlet_state()
        tensor = psi.tensor
        oracle = np.einsum("abc,adc->bd", tensor, tensor.conj())
        rho = partial_trace(psi, (1,))
        assert np.allclose(rho.matrix, oracle, atol=1e-12)
        vals = np.linalg.eigvalsh(rho.matrix)
        assert np.allclose(vals, [0.5, 0.5], atol=1e-12)

    def test_trace_matches_squared_norm(self, rng):
        raw = random_sum_state(rng)
        s = raw.with_coeffs(raw.coeffs * (0.7 / norm(raw)))
        rho = partial_trace(s, (0, 2))
        assert rho.trace == pytest.approx(norm(s) ** 2, abs=1e-10)

    def test_subnormalized_projection_trace(self, rng):
        psi = haar_random_state(ProductSpace((2, 3, 2)), 5)
        proj = project_factor(psi, 2, np.array([1.0, 0.0], dtype=complex))
        rho = partial_trace(proj, (0,))
        assert rho.trace == pytest.approx(norm(proj) ** 2, abs=1e-10)

    def test_keep_everything_rejected(self):
        psi = singlet_state()
        with pytest.raises(InvalidStateError):
            partial_trace(psi, (0, 1, 2))
        with pytest.raises(InvalidStateError):
            partial_trace(psi, ())

    def test_density_matrix_input(self, rng):
        psi = haar_random_state(ProductSpace((2, 3, 4)), 11)
        rho12 = partial_trace(psi, (0, 1))
        rho1_direct = partial_trace(psi, (0,))
        rho1_chained = partial_trace(rho12, (0,))
        assert np.allclose(rho1_direct.matrix, rho1_chained.matrix, atol=1e-12)

    def test_matrix_contraction_contracts_trace_norm(self, rng):
        # partial traces never increase the trace-class norm
        for _ in range(100):
            m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
            reduced = partial_trace_matrix(m, (3, 4), (1,))
            assert trace_norm(reduced) <= trace_norm(m) + 1e-10

    @pytest.mark.parametrize("keep", [(2,), (-1,), (), (0, 1)])
    def test_matrix_keep_is_a_nonempty_proper_subset(self, keep):
        # the rule partial_trace applies: no einsum error, no whole trace
        # and no matrix returned unchanged
        with pytest.raises(InvalidStateError):
            partial_trace_matrix(np.eye(12), (3, 4), keep)


def einsum_reduction(tensor, keep):
    """Reference reduction: contract every traced index of psi with psi*."""
    nf = tensor.ndim
    bra = [i if i not in keep else nf + i for i in range(nf)]
    out = list(keep) + [nf + i for i in keep]
    reduced = np.einsum(tensor, list(range(nf)), tensor.conj(), bra, out)
    dk = math.prod(tensor.shape[i] for i in keep)
    return reduced.reshape(dk, dk)


KEEP_CASES = [(dims, keep)
              for dims in ((2, 3), (3, 4, 5), (2, 3, 2, 3))
              for r in range(1, len(dims))
              for keep in itertools.combinations(range(len(dims)), r)]


class TestDensePartialTraceKernel:
    @pytest.mark.parametrize("dims,keep", KEEP_CASES)
    def test_matches_einsum_reference(self, dims, keep):
        psi = haar_random_state(ProductSpace(dims), 17 + len(keep))
        rho = partial_trace(psi, keep)
        assert rho.dims == tuple(dims[i] for i in keep)
        assert rho.kept_factors == keep
        ref = einsum_reduction(psi.tensor, keep)
        assert np.max(np.abs(rho.matrix - ref)) <= 1e-14

    def test_keep_order_does_not_matter(self):
        psi = haar_random_state(ProductSpace((2, 3, 2, 3)), 4)
        a, b = partial_trace(psi, (2, 0)), partial_trace(psi, (0, 2))
        assert a.kept_factors == b.kept_factors == (0, 2)
        assert np.array_equal(a.matrix, b.matrix)

    def test_subnormalized_trace_is_squared_norm(self, rng):
        dims = (3, 4, 5)
        z = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        psi = DenseState(ProductSpace(dims), 0.6 * z / np.linalg.norm(z))
        assert not psi.normalized
        for keep in ((0,), (0, 2), (1, 2)):
            rho = partial_trace(psi, keep)
            assert rho.trace == pytest.approx(norm(psi) ** 2, abs=1e-14)
            ref = einsum_reduction(psi.tensor, keep)
            assert np.max(np.abs(rho.matrix - ref)) <= 1e-14


GRAM_SHAPES = [(4, 16), (6, 36), (16, 128), (16, 256), (48, 512)]


def _laid_out(mat, layout):
    """``mat`` in C order, Fortran order, or as a strided (uncontiguous) view."""
    if layout == "C":
        return np.ascontiguousarray(mat)
    if layout == "F":
        return np.asfortranarray(mat)
    wide = np.zeros((mat.shape[0], 2 * mat.shape[1]), dtype=complex)
    wide[:, ::2] = mat
    return wide[:, ::2]


class TestGram:
    def test_shapes_straddle_the_size_rule(self):
        cells = [m * n for m, n in GRAM_SHAPES]
        assert min(cells) < states._HERK_CELLS <= max(cells)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("shape", GRAM_SHAPES)
    def test_matches_the_gemm(self, rng, shape, layout):
        mat = _laid_out(rng.standard_normal(shape)
                        + 1j * rng.standard_normal(shape), layout)
        ref = mat @ mat.conj().T
        gram = states._gram(mat)
        assert gram.shape == ref.shape
        assert np.abs(gram - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("keep", [(0,), (1,), (2,)])
    def test_rank_k_update_is_exactly_hermitian(self, keep):
        # 16 x 256 matricizations, at the size rule: factor 0's is a C-ordered
        # view, factor 1's a C-ordered copy and factor 2's a Fortran view
        rho = partial_trace(haar_random_state(ProductSpace((16, 16, 16)), 6),
                            keep)
        assert np.array_equal(rho.matrix, rho.matrix.conj().T)
        assert not np.diagonal(rho.matrix).imag.any()
        assert rho.herm_gap == 0.0

    @pytest.mark.parametrize("keep", [(0,), (2,)])
    def test_factor_views_are_not_copied(self, keep):
        # a 64 x 4096 matricization holds 4 MiB, so a conjugated copy of it
        # would peak above that; the 64 x 64 triangle, its conjugate and the
        # Gram hold 192 KiB
        psi = haar_random_state(ProductSpace((64, 64, 64)), 5)
        rest = tuple(i for i in range(3) if i not in keep)
        mat = states._matricize(psi, keep, rest)
        assert np.shares_memory(mat, psi.tensor)
        tracemalloc.start()
        try:
            states._gram(mat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestProjectFactor:
    def test_singlet_projection(self):
        psi = singlet_state()
        out = project_factor(psi, 2, np.array([0.0, 1.0], dtype=complex))
        expected = np.zeros((2, 2, 2), dtype=complex)
        expected[0, 0, 1] = INV_SQRT2
        assert np.allclose(out.tensor, expected, atol=1e-12)
        assert not out.normalized

    def test_orthogonal_projection_kills_product(self, rng):
        vecs = [random_unit(rng, 3) for _ in range(3)]
        t = ProductTerm(1.0, tuple(sparse_vector(v) for v in vecs))
        s = SumState(ProductSpace((3, 3, 3)), (t,))
        other = random_unit(rng, 3)
        other = other - vecs[1] * np.vdot(vecs[1], other)
        other = other / np.linalg.norm(other)
        out = project_factor(s, 1, other)
        assert norm(out) == pytest.approx(0.0, abs=1e-12)

    def test_norm_squared_matches_dense_projector_oracle(self, rng):
        psi = haar_random_state(ProductSpace((3, 3, 3)), 23)
        phi = random_unit(rng, 3)
        out = project_factor(psi, 1, phi)
        p = np.kron(np.kron(np.eye(3), np.outer(phi, phi.conj())), np.eye(3))
        expected = np.vdot(psi.amplitudes, p @ psi.amplitudes).real
        assert norm(out) ** 2 == pytest.approx(expected, abs=1e-12)

    def test_idempotent(self, rng):
        psi = haar_random_state(ProductSpace((3, 3, 3)), 7)
        phi = random_unit(rng, 3)
        once = project_factor(psi, 0, phi)
        twice = project_factor(once, 0, phi)
        assert np.allclose(once.amplitudes, twice.amplitudes, atol=1e-12)

    def test_requires_unit_vector(self, rng):
        psi = singlet_state()
        with pytest.raises(InvalidStateError):
            project_factor(psi, 0, np.array([0.5, 0.0], dtype=complex))

    @pytest.mark.parametrize("as_sum", [False, True])
    def test_vector_is_a_one_dimensional_array(self, as_sum):
        psi = sparsify(singlet_state()) if as_sum else singlet_state()
        for bad in (((0, 1.0),), [1.0, 0.0], np.eye(2, dtype=complex)):
            with pytest.raises(InvalidStateError, match="1-D array"):
                project_factor(psi, 0, bad)
        with pytest.raises(DimensionMismatchError, match="index 3"):
            project_factor(psi, 0, np.array([0.0, 0.0, 0.0, 1.0]))
        shorter = project_factor(psi, 1, np.array([1.0]))
        want = project_factor(psi, 1, np.array([1.0, 0.0]))
        assert distance(shorter, want) == 0.0


class TestProjectFactorTolerance:
    LOOSE = Tolerances(norm=1e-6)
    PHI = (1.0 + 1e-8) * np.array([0.6, 0.8j])  # norm 1 + 1e-8

    @pytest.mark.parametrize("as_sum", [False, True])
    def test_norm_is_checked_against_the_callers_tolerance(self, as_sum):
        psi = haar_random_state(ProductSpace((2, 3, 2)), 3)
        s = sparsify(psi) if as_sum else psi
        out = project_factor(s, 0, self.PHI, self.LOOSE)
        assert isinstance(out, type(s))
        assert distance(out, project_factor(psi, 0, self.PHI, self.LOOSE)) \
            <= 1e-15
        if as_sum:  # its rows are unit, so the document reads back
            back = state_from_json(state_to_json(out))
            assert distance(back, out) <= 1e-15

    @pytest.mark.parametrize("as_sum", [False, True])
    def test_errors_kept(self, as_sum):
        psi = haar_random_state(ProductSpace((2, 3, 2)), 3)
        s = sparsify(psi) if as_sum else psi
        with pytest.raises(InvalidStateError, match="norm"):
            project_factor(s, 0, self.PHI)  # the default 1e-9
        with pytest.raises(DimensionMismatchError):
            project_factor(s, 3, self.PHI, self.LOOSE)
        with pytest.raises(DimensionMismatchError):
            project_factor(s, 0, np.array([0.0, 0.0, 1.0]), self.LOOSE)
        with pytest.raises(InvalidStateError):
            project_factor(s, 0, np.array([np.nan, 1.0]), self.LOOSE)


class TestTraceNorm:
    def test_density_matrix_is_one(self, rng):
        psi = haar_random_state(ProductSpace((3, 4)), 2)
        assert trace_norm(partial_trace(psi, (0,))) == pytest.approx(1.0)

    def test_pure_difference_closed_form(self, rng):
        # || |a><a| - |b><b| ||_1 = 2 sqrt(1 - |<a|b>|^2)
        for seed in range(5):
            a = haar_random_state(ProductSpace((3, 3)), seed).amplitudes
            b = haar_random_state(ProductSpace((3, 3)), seed + 50).amplitudes
            diff = np.outer(a, a.conj()) - np.outer(b, b.conj())
            expected = 2.0 * math.sqrt(1.0 - abs(np.vdot(a, b)) ** 2)
            assert trace_norm(diff) == pytest.approx(expected, abs=1e-10)

    def test_hermitian_equals_abs_eigenvalue_sum(self, rng):
        m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        h = (m + m.conj().T) / 2
        assert trace_norm(h) == pytest.approx(
            np.abs(np.linalg.eigvalsh(h)).sum(), abs=1e-10)

    def test_subadditive_and_bounds_trace(self, rng):
        a = random_psd(rng, 6)
        b = random_psd(rng, 6)
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10
        assert trace_norm(a) >= abs(np.trace(a)) - 1e-10

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidStateError):
            trace_norm(np.array([[np.inf, 0], [0, 1]], dtype=complex))


class TestProjectorContraction:
    def test_projected_difference_contracts(self, rng):
        # compressions and partial traces both contract the trace norm, and
        # the pure-state difference is controlled by the vector distance
        for seed in range(100):
            g = np.random.default_rng(seed)
            a = random_unit(g, 12)
            b = random_unit(g, 12)
            diff = np.outer(a, a.conj()) - np.outer(b, b.conj())
            cols = np.linalg.qr(g.standard_normal((12, 5))
                                + 1j * g.standard_normal((12, 5)))[0]
            proj = cols @ cols.conj().T
            lhs = trace_norm(proj @ diff @ proj)
            mid = trace_norm(diff)
            rhs = 2.0 * np.linalg.norm(a - b)
            assert lhs <= mid + 1e-10
            assert mid <= rhs + 1e-10

    def test_positive_overlap_lower_bound(self, rng):
        for seed in range(100):
            g = np.random.default_rng(seed + 1000)
            a = random_unit(g, 10)
            b = random_unit(g, 10)
            ov = np.vdot(a, b)
            b = b * np.exp(-1j * np.angle(ov))  # enforce <a|b> > 0
            diff = np.outer(a, a.conj()) - np.outer(b, b.conj())
            assert 2.0 * np.linalg.norm(a - b) <= \
                math.sqrt(2.0) * trace_norm(diff) + 1e-10


class TestHaarRandom:
    def test_deterministic(self):
        sp = ProductSpace((2, 2, 2))
        assert np.array_equal(haar_random_state(sp, 9).amplitudes,
                              haar_random_state(sp, 9).amplitudes)

    def test_normalized(self):
        assert haar_random_state(ProductSpace((3, 3)), 4).normalized

    def test_entry_mean_matches_uniform(self):
        # |first amplitude|^2 is Beta(1, d-1); compare the Monte-Carlo mean
        # at 5 sigma of the exact estimator deviation
        sp = ProductSpace((2, 2, 2))
        d = sp.dim
        draws = 10_000
        samples = np.array([abs(haar_random_state(sp, seed).amplitudes[0]) ** 2
                            for seed in range(draws)])
        sigma = math.sqrt((d - 1) / (d ** 2 * (d + 1)) / draws)
        assert abs(samples.mean() - 1.0 / d) < 5 * sigma


class TestDensifySparsify:
    def test_single_term_block(self):
        t = ProductTerm(0.5j, (((1, 1.0),), ((0, 1.0),), ((1, 1.0),)))
        dense = densify(SumState(SPACE3, (t,)))
        expected = np.zeros((2, 2, 2), dtype=complex)
        expected[1, 0, 1] = 0.5j
        assert np.allclose(dense.tensor, expected)

    def test_singlet_amplitudes(self):
        dense = densify(singlet_sum())
        amp = dense.tensor
        assert amp[0, 0, 1] == pytest.approx(INV_SQRT2)
        assert amp[0, 1, 0] == pytest.approx(-INV_SQRT2)
        assert np.count_nonzero(amp) == 2

    def test_round_trip_preserves_inner_products(self, rng):
        a = haar_random_state(ProductSpace((3, 3, 3)), 31)
        b = haar_random_state(ProductSpace((3, 3, 3)), 32)
        assert inner(sparsify(a), sparsify(b)) == pytest.approx(
            inner(a, b), abs=1e-12)

    def test_ceiling(self):
        big = ProductSpace((300, 300, 300))
        t = ProductTerm(1.0, (((0, 1.0),), ((0, 1.0),), ((0, 1.0),)))
        with pytest.raises(CapacityError):
            densify(SumState(big, (t,)))


def padded_oracle(tensor, dims):
    """``tensor`` cut to ``dims`` where it is larger and zero-padded where it
    is smaller."""
    tensor = tensor[tuple(slice(0, d) for d in dims)]
    return np.pad(tensor, [(0, d - n) for d, n in zip(dims, tensor.shape)])


class TestSumsOfProducts:
    """Every sum of products becomes a tensor through ``_khatri_rao``, one
    GEMM per block of terms; an inner product with a dense operand contracts
    the blocks without summing them into a tensor."""

    def test_khatri_rao_rows_are_kronecker_products(self, rng):
        mats = [rng.standard_normal((4, d)) + 1j * rng.standard_normal((4, d))
                for d in (2, 3, 5)]
        out = states._khatri_rao(mats)
        assert out.shape == (4, 30)
        for k in range(4):
            assert np.array_equal(
                out[k], np.kron(np.kron(mats[0][k], mats[1][k]), mats[2][k]))

    @pytest.mark.parametrize("block_bytes", [None, 1 << 10])
    def test_sparsify_round_trip_spans_term_blocks(self, monkeypatch,
                                                   block_bytes):
        # 1,728 one-entry terms; every amplitude gets exactly one product
        if block_bytes is not None:
            monkeypatch.setattr(states, "_BLOCK_BYTES", block_bytes)
        x = haar_random_state(ProductSpace((12, 12, 12)), 41)
        blocks = []
        khatri_rao = states._khatri_rao

        def record(mats):
            out = khatri_rao(mats)
            blocks.append(out.nbytes)
            return out

        monkeypatch.setattr(states, "_khatri_rao", record)
        back = densify(sparsify(x))
        assert np.max(np.abs(back.amplitudes - x.amplitudes)) <= 1e-15
        assert len(blocks) > 1
        assert max(blocks) <= max(x.amplitudes.nbytes, states._BLOCK_BYTES)

    @pytest.mark.parametrize("sum_dims", [(6, 4, 5), (2, 3, 2), (4, 6, 2)])
    def test_dense_operand_restricts_and_pads(self, rng, sum_dims):
        dense_dims = (4, 4, 3)
        k = 5
        cols = [rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
                for d in sum_dims]
        cols = [c / np.linalg.norm(c, axis=0) for c in cols]
        coeffs = random_unit(rng, k)
        s = SumState.from_columns(ProductSpace(sum_dims), coeffs, cols)
        a = haar_random_state(ProductSpace(dense_dims), 43)
        dims = tuple(max(x, y) for x, y in zip(sum_dims, dense_dims))
        want = np.vdot(padded_oracle(a.tensor, dims), padded_oracle(
            np.einsum("k,ak,bk,ck->abc", coeffs, *cols), dims))
        assert abs(inner(a, s) - want) < 1e-15
        assert abs(inner(s, a) - np.conj(want)) < 1e-15

    def test_empty_sum_state(self):
        space = ProductSpace((3, 4, 2))
        empty = SumState(space, ())
        dense = haar_random_state(space, 44)
        assert inner(dense, empty) == 0 and inner(empty, dense) == 0
        assert not densify(empty).amplitudes.any()

    def test_one_block_walk_reads_the_state_itself(self, rng, monkeypatch):
        s = random_sum_state(rng, (4, 4, 4), k=3)
        dense = haar_random_state(s.space, 45)
        want = np.vdot(dense.tensor, densify(s).tensor)

        def refuse(self, order):
            raise AssertionError("a one-block walk cut the state")
        monkeypatch.setattr(SumState, "take", refuse)
        assert abs(inner(dense, s) - want) < 1e-15

    def test_dense_operand_above_the_ceiling(self):
        # the dense operand already exists, so only densify and distance,
        # which would build a new tensor, refuse it
        g = np.random.default_rng(7)
        dims = (40, 200, 162)
        cols = [g.standard_normal((d, 3)) + 1j * g.standard_normal((d, 3))
                for d in dims]
        cols = [c / np.linalg.norm(c, axis=0) for c in cols]
        s = SumState.from_columns(ProductSpace(dims),
                                  [0.6, -0.3j, 0.2 + 0.1j], cols)
        big = haar_random_state(ProductSpace((162,) * 3), 5)
        assert big.space.dim > states.DENSIFY_CEILING
        # the value of the einsum over every term's product that this
        # contraction replaced
        want = 6.264454407279984e-05 + 0.00010167767499080626j
        assert abs(inner(big, s) - want) < 1e-15
        assert abs(inner(s, big) - np.conj(want)) < 1e-15
        with pytest.raises(CapacityError):
            distance(s, big)
        with pytest.raises(CapacityError):
            densify(s.embedded(ProductSpace((162, 200, 162))))


class TestDensityMatrixInvariants:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex),
                          (2,), (0,))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.diag([1.0, -0.1]).astype(complex), (2,), (0,))

    @pytest.mark.parametrize("dims, kept, basis, error", [
        ((2,), (0,), ((0, 1, 2),), DimensionMismatchError),
        ((2, 2), (0, 1), ((0, 1),), DimensionMismatchError),
        ((4,), (0, 1), None, DimensionMismatchError),
        ((2, 2), (0,), None, DimensionMismatchError),
        ((2, 3), (0, 1), ((0, 0), (1, 2, 3)), InvalidStateError),
        ((2, 2), (1, 1), None, InvalidStateError),
    ])
    def test_fields_must_agree(self, dims, kept, basis, error):
        d = math.prod(dims)
        with pytest.raises(error):
            DensityMatrix(np.eye(d) / d, dims, kept, basis=basis)

    def test_unit_factor_enforced_on_terms(self):
        with pytest.raises(InvalidStateError):
            ProductTerm(1.0, (((0, 0.5),), ((0, 1.0),), ((0, 1.0),)))

    def test_aligned_matrices_merge_bases(self, rng):
        # compact reductions of overlapping but different supports
        t1 = ProductTerm(1.0, (((1, 1.0),), ((0, 1.0),)))
        t2 = ProductTerm(1.0, (((2, 1.0),), ((0, 1.0),)))
        sp = ProductSpace((4, 2))
        r1 = partial_trace(SumState(sp, (t1,)), (0,))
        r2 = partial_trace(SumState(sp, (t2,)), (0,))
        a, b = aligned_density_matrices(r1, r2)
        assert a.shape == (2, 2) and b.shape == (2, 2)
        assert trace_norm(a - b) == pytest.approx(2.0, abs=1e-12)

    def test_aligned_matrices_on_a_shared_basis_are_returned_as_is(self, rng):
        vecs = [random_unit(rng, 3) for _ in range(4)]
        sp = ProductSpace((3, 3))
        r1, r2 = (partial_trace(SumState(sp, (ProductTerm(
            1.0, (sparse_vector(u), sparse_vector(v))),)), (0,))
            for u, v in (vecs[:2], vecs[2:]))
        a, b = aligned_density_matrices(r1, r2)
        assert a is r1.matrix and b is r2.matrix

    def test_aligned_matrices_sort_an_unsorted_shared_basis(self):
        dm = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex), (3,),
                           (0,), basis=((2, 0, 1),))
        a, b = aligned_density_matrices(dm, dm)
        assert np.array_equal(a, np.diag([0.3, 0.2, 0.5]))
        assert np.array_equal(b, a)

    def test_aligned_matrices_merge_two_factor_bases(self, rng):
        # both kept factors touch different indices in the two states: the
        # unions are {0, 1, 2, 3} on factor 0 and {0, 1, 3} on factor 1
        space = ProductSpace((5, 4, 2))

        def state(*supports):
            columns = []
            for dim, factor in zip(space.dims, zip(*supports)):
                mat = np.zeros((dim, len(factor)), dtype=complex)
                for k, support in enumerate(factor):
                    mat[list(support), k] = random_unit(rng, len(support))
                columns.append(mat)
            return SumState.from_columns(space, [0.8, 0.6], columns)

        sa = state(((0, 2), (1,), (0,)), ((2, 3), (1, 3), (1,)))
        sb = state(((1, 2), (0, 1), (0, 1)), ((2,), (1,), (1,)))
        a, b = aligned_density_matrices(partial_trace(sa, (0, 1)),
                                        partial_trace(sb, (0, 1)))
        flat = (np.arange(4)[:, None] * 4 + np.array([0, 1, 3])).ravel()
        for got, s in ((a, sa), (b, sb)):
            want = partial_trace(densify(s), (0, 1)).matrix
            assert np.abs(got - want[np.ix_(flat, flat)]).max() <= 1e-15
            assert np.abs(want).sum() == pytest.approx(
                np.abs(got).sum(), abs=1e-14)


def _diag(*values):
    return np.diag(np.array(values, dtype=complex))


def _one_term(space):
    return SumState.from_columns(space, [1.0], [np.eye(d)[:, :1]
                                                for d in space.dims])


_NAN_OFF_DIAGONAL = np.array([[0.5, math.nan], [math.nan, 0.5]], dtype=complex)
_GOOD_ROW = ([0, 1], [0], [1.0])

# Each call hands a complex array holding a NaN or an infinity to a public
# entry point; none may come back as a spectrum, an entropy or a verdict.
NON_FINITE_CALLS = {
    "spectrum nan diagonal": lambda: spectrum(_diag(0.5, math.nan)),
    "spectrum nan off diagonal": lambda: spectrum(_NAN_OFF_DIAGONAL),
    "spectrum inf diagonal": lambda: spectrum(_diag(0.5, math.inf)),
    "entropy nan diagonal": lambda: entropy(_diag(0.5, math.nan)),
    "entropy nan off diagonal": lambda: entropy(_NAN_OFF_DIAGONAL),
    "entropy inf diagonal": lambda: entropy(_diag(0.5, math.inf)),
    "verify_spectral_lemmas": lambda: verify_spectral_lemmas(
        _diag(0.5, math.nan), _diag(0.5, 0.5)),
    "partial_trace_matrix": lambda: partial_trace_matrix(
        _diag(0.5, math.nan, 0.0, 0.5), (2, 2), (0,)),
    "trace_norm": lambda: trace_norm(_diag(math.inf, 1.0)),
    "linear_independence inf": lambda: linear_independence(
        [np.array([math.inf, 0.0]), np.array([0.0, 1.0])], 1e-8),
    "linear_independence nan": lambda: linear_independence(
        [np.array([math.nan, 0.0]), np.array([0.0, 1.0])], 1e-8),
    "DenseState": lambda: DenseState(ProductSpace((2, 2)),
                                     [0.5, complex(0, math.nan), 0.5, 0.5]),
    "DensityMatrix": lambda: DensityMatrix(_diag(0.5, math.nan), (2,), (0,)),
    "from_rows coefficients": lambda: SumState.from_rows(
        ProductSpace((2, 2)), [math.nan], [_GOOD_ROW, _GOOD_ROW]),
    "from_rows amplitudes": lambda: SumState.from_rows(
        ProductSpace((2, 2)), [1.0], [([0, 1], [0], [math.inf]), _GOOD_ROW]),
    "on_factors coefficients": lambda: _one_term(
        ProductSpace((2, 2))).with_coeffs([math.inf]),
}


class TestComplexArrayReader:
    @pytest.mark.parametrize("call", sorted(NON_FINITE_CALLS))
    def test_non_finite_entries_are_refused(self, call):
        # spectrum(diag(0.5, nan)) was (0.0, 0.0) with entropy 0 nats, and
        # linear_independence with an inf entry was (nan, False)
        with pytest.raises(InvalidStateError, match="finite"):
            NON_FINITE_CALLS[call]()

    def test_states_do_not_share_the_callers_arrays(self):
        amps = np.full(4, 0.5, dtype=complex)
        s = DenseState(ProductSpace((2, 2)), amps)
        amps[0] = 5.0  # changed the state, which stayed flagged normalized
        assert np.array_equal(s.amplitudes, np.full(4, 0.5))
        assert norm(s) == 1.0 and s.normalized
        mat = _diag(0.5, 0.5)
        dm = DensityMatrix(mat, (2,), (0,))
        assert mat.flags.writeable  # was made read-only
        mat[0, 0] = 5.0
        assert dm.matrix[0, 0] == 0.5
        assert not dm.matrix.flags.writeable

    def test_valid_arrays_keep_their_values(self, rng):
        mat = random_psd(rng, 6, top=1.0 / 6)
        f_ordered = np.asfortranarray(mat)
        for given in (mat, f_ordered, mat.real.tolist()):
            got = DensityMatrix(given, (2, 3), (0, 1)).matrix
            assert got.flags.c_contiguous
            assert np.array_equal(got, np.asarray(given, dtype=complex))


def rows_of(terms, i):
    """Factor ``i`` of ``terms`` as (indptr, indices, data) lists."""
    facs = [t.factors[i] for t in terms]
    indptr = np.cumsum([0] + [len(f) for f in facs])
    return (indptr, [j for f in facs for j, _ in f],
            [a for f in facs for _, a in f])


def from_terms_via_rows(space, terms):
    return SumState.from_rows(space, [t.coeff for t in terms],
                              [rows_of(terms, i) for i in range(space.nfactors)])


class TestArrayBackedSumState:
    DIMS = (20, 3, 4)

    def random_terms(self, rng, supports):
        """Unnormalized random terms whose factor-0 vectors live on
        ``supports``; the other factors are dense."""
        terms = []
        for support in supports:
            v = np.zeros(self.DIMS[0], dtype=complex)
            v[list(support)] = random_unit(rng, len(support))
            terms.append(ProductTerm(
                3.0 * (rng.standard_normal() + 1j * rng.standard_normal()),
                (sparse_vector(v),) + tuple(sparse_vector(random_unit(rng, d))
                                            for d in self.DIMS[1:])))
        return tuple(terms)

    CASES = {
        "single": [(4, 7)],
        "shared": [(0, 1, 2), (0, 1, 2), (1, 2, 3), (0, 3)],
        "tilted": [(0, 1, 2, 10), (0, 1, 2, 11), (0, 1, 2, 12)],
        "disjoint": [(10,), (11, 15), (12, 16, 17), (13,)],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_from_rows_agrees_with_terms(self, rng, case):
        from tridecomp.serialize import state_to_json

        space = ProductSpace(self.DIMS)
        for _ in range(3):
            terms = self.random_terms(rng, self.CASES[case])
            a = SumState(space, terms)
            b = from_terms_via_rows(space, terms)
            assert np.array_equal(a.coeffs, b.coeffs)
            for pa, pb in zip(a._packed, b._packed):
                assert np.array_equal(pa.touched, pb.touched)
                assert np.array_equal(pa.matrix(), pb.matrix())
                assert np.array_equal(pa.owner, pb.owner)
                assert pa.has_private == pb.has_private
            other = random_sum_state(rng, self.DIMS, k=3)
            assert abs(inner(a, a) - inner(b, b)) <= 1e-15 * abs(inner(a, a))
            assert abs(inner(other, a) - inner(other, b)) <= 1e-15
            assert state_to_json(a) == state_to_json(b)

    def test_rows_out_of_order_are_sorted(self, rng):
        space = ProductSpace(self.DIMS)
        terms = self.random_terms(rng, self.CASES["shared"])
        rows = [rows_of(terms, i) for i in range(3)]
        indptr, idx, amps = rows[0]
        for lo, hi in zip(indptr, indptr[1:]):
            idx[lo:hi], amps[lo:hi] = idx[lo:hi][::-1], amps[lo:hi][::-1]
        shuffled = SumState.from_rows(space, [t.coeff for t in terms], rows)
        for got, want in zip(shuffled.rows, SumState(space, terms).rows):
            for x, y in zip(got, want):
                assert np.array_equal(x, y)

    def test_duplicates_merge_and_zeros_drop(self):
        space = ProductSpace((4, 2))
        pairs = [(2, 0.6), (0, 0.0), (2, 0.2j), (3, 0.0), (1, 0.5), (2, 0.1),
                 (3, 0.5)]
        amps = [0.6, 0.0, 0.2j, 0.0, 0.5, 0.1, 0.5]
        norm_sq = abs(0.7 + 0.2j) ** 2 + 0.5
        amps = [a / math.sqrt(norm_sq) for a in amps]
        s = SumState.from_rows(space, [1.0], [
            ([0, 7], [j for j, _ in pairs], amps), ([0, 1], [1], [1.0])])
        want = sparse_vector(zip((j for j, _ in pairs), amps))
        assert s.rows[0].indices.tolist() == [j for j, _ in want] == [1, 2, 3]
        assert s.rows[0].data.tolist() == [a for _, a in want]
        assert s.rows[0].indptr.tolist() == [0, 3]

    def test_errors_match_product_terms(self):
        space = ProductSpace((3, 3))
        good = ([0, 1], [0], [1.0])
        with pytest.raises(InvalidStateError):  # non-unit row
            SumState.from_rows(space, [1.0], [([0, 1], [0], [0.5]), good])
        with pytest.raises(InvalidStateError):  # row emptied by zeros
            SumState.from_rows(space, [1.0], [([0, 1], [0], [0.0]), good])
        with pytest.raises(InvalidStateError):
            SumState.from_rows(space, [math.nan], [good, good])
        with pytest.raises(InvalidStateError):
            SumState.from_rows(space, [1.0], [([0, 1], [0], [math.nan]), good])
        with pytest.raises(InvalidStateError):
            ProductTerm(math.nan, (((0, 1.0),), ((0, 1.0),)))
        with pytest.raises(InvalidStateError):  # a NaN norm passed before
            ProductTerm(1.0, (((0, math.nan),), ((0, 1.0),)))
        with pytest.raises(DimensionMismatchError):  # one row set per factor
            SumState.from_rows(space, [1.0], [good])
        with pytest.raises(InvalidStateError):  # indptr not for one term
            SumState.from_rows(space, [1.0], [([0, 1, 1], [0], [1.0]), good])

    @pytest.mark.parametrize("index", [3, 5, -1])
    def test_index_beyond_factor_dimension(self, index):
        # a 3^3 state with a factor-2 index 5 used to give inner(dense, sum)
        # = 0j while densify raised; it is now rejected at construction
        space = ProductSpace((3, 3, 3))
        term = ProductTerm(1.0, (((0, 1.0),), ((0, 1.0),), ((index, 1.0),)))
        with pytest.raises(DimensionMismatchError, match=f"index {index}"):
            SumState(space, (term,))
        with pytest.raises(DimensionMismatchError, match=f"index {index}"):
            from_terms_via_rows(space, (term,))

    def test_embedded_shares_built_packs(self, rng):
        s = random_sum_state(rng, (3, 4, 5), k=4)
        _ = s._packed
        big = s.embedded(ProductSpace((5, 4, 6)))
        assert big._packed is s._packed
        assert np.array_equal(big.coeffs, s.coeffs)
        for space in (ProductSpace((3, 4, 5, 2)), ProductSpace((3, 4))):
            with pytest.raises(DimensionMismatchError):
                s.embedded(space)

    @pytest.mark.parametrize("order", [[-1], [3], [0, 5], [[0, 1]]])
    def test_take_refuses_positions_outside_the_terms(self, order):
        # [-1] raised numpy's "negative dimensions" ValueError and [5] an
        # IndexError
        s = random_sum_state(np.random.default_rng(5), (2, 3, 2), k=3)
        with pytest.raises(InvalidStateError, match="3 terms"):
            s.take(order)
        assert s.take([]).nterms == 0

    def test_take_embedded_and_with_coeffs(self, rng):
        s = random_sum_state(rng, (3, 4, 5), k=4)
        order = [2, 0, 3]
        picked = s.take(order)
        assert np.array_equal(picked.coeffs, s.coeffs[order])
        for i, d in enumerate(s.space.dims):
            assert np.array_equal(states._dense_factor(picked, i, d),
                                  states._dense_factor(s, i, d)[order])
        big = s.embedded(ProductSpace((5, 4, 6)))
        assert big.space.dims == (5, 4, 6)
        assert np.allclose(densify(big).tensor[:3, :, :5], densify(s).tensor,
                           atol=1e-15)
        with pytest.raises(DimensionMismatchError):
            s.embedded(ProductSpace((2, 4, 5)))
        _ = s._packed
        scaled = s.with_coeffs(2.0 * s.coeffs)
        assert scaled._packed is s._packed
        assert norm(scaled) == pytest.approx(2.0 * norm(s), rel=1e-14)
        with pytest.raises(InvalidStateError):
            s.with_coeffs(s.coeffs[:2])

    def test_distance_matches_dense_oracle(self, rng):
        from tridecomp.states import distance

        a = random_sum_state(rng, (3, 4, 5), k=3)
        b = random_sum_state(rng, (3, 4, 5), k=2)
        want = np.linalg.norm(densify(a).amplitudes - densify(b).amplitudes)
        assert distance(a, b) == pytest.approx(want, abs=1e-12)
        assert distance(a, a) <= 1e-7

    def test_distance_of_dense_states(self, rng):
        from tridecomp.states import distance

        a, b = (DenseState(ProductSpace((3, 4, 5)),
                           random_unit(rng, 60), normalized=True)
                for _ in range(2))
        # the same arithmetic, bitwise
        assert distance(a, b) == np.linalg.norm(a.amplitudes - b.amplitudes)
        small = DenseState(ProductSpace((2, 4, 5)), random_unit(rng, 40),
                           normalized=True)
        padded = np.zeros((3, 4, 5), dtype=complex)
        padded[:2] = small.tensor
        want = np.linalg.norm(a.tensor - padded)
        assert distance(a, small) == pytest.approx(want, abs=1e-14)
        assert distance(small, a) == pytest.approx(want, abs=1e-14)
        assert distance(a, sparsify(a)) == 0.0
        assert distance(sparsify(small), a) == pytest.approx(want, abs=1e-14)
        assert distance(small, sparsify(a)) == pytest.approx(want, abs=1e-14)

    def test_from_columns_agrees_with_terms(self, rng):
        dims = (4, 3, 5)
        comps = [random_orthonormal(rng, d, 3) for d in dims]
        comps[0][2, 1] = 0.0  # dropped, as sparse_vector drops it
        comps[0][:, 1] /= np.linalg.norm(comps[0][:, 1])
        coeffs = np.array([0.8, 0.5j, -0.3])
        s = SumState.from_columns(ProductSpace(dims), coeffs, comps)
        ref = SumState(ProductSpace(dims), tuple(
            ProductTerm(coeffs[k], tuple(sparse_vector(c[:, k]) for c in comps))
            for k in range(3)))
        assert s.coeffs.tobytes() == ref.coeffs.tobytes()
        for got, want in zip(s.rows, ref.rows):
            for x, y in zip(got, want):
                assert np.array_equal(x, y)
        with pytest.raises(InvalidStateError, match="norm"):
            SumState.from_columns(ProductSpace(dims), coeffs,
                                  [2.0 * comps[0]] + comps[1:])
        with pytest.raises(DimensionMismatchError):
            SumState.from_columns(ProductSpace((3, 3, 5)), coeffs, comps)
        with pytest.raises(InvalidStateError):
            SumState.from_columns(ProductSpace(dims), coeffs,
                                  [comps[0][:, 0]] + comps[1:])

    def test_on_factors_shares_rows_and_packs(self, rng):
        s = random_sum_state(rng, (3, 4, 5), k=3)
        space = ProductSpace((5, 3))
        lazy = s.on_factors(space, (2, 0), [1.0, 2.0, 3.0])
        assert "_packed" not in lazy.__dict__
        packs = s._packed
        sub = s.on_factors(space, (2, 0), [1.0, 2.0, 3.0])
        assert sub.rows == (s.rows[2], s.rows[0])
        assert sub._packed[0] is packs[2] and sub._packed[1] is packs[0]
        assert sub.coeffs.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(DimensionMismatchError):
            s.on_factors(ProductSpace((4, 3)), (2, 0), [1.0, 2.0, 3.0])
        with pytest.raises(InvalidStateError):
            s.on_factors(space, (2, 0), [1.0, 2.0])

    @pytest.mark.parametrize("keep", [(True, 1), (-1, 1), (1.0, 1), (3, 1),
                                      (1, np.float64(0.0))])
    def test_on_factors_refuses_other_than_factor_indices(self, keep):
        s = random_sum_state(np.random.default_rng(4), (2, 3, 2), k=2)
        with pytest.raises(InvalidStateError):
            s.on_factors(ProductSpace((3, 3)), keep, [1.0, 2.0])

    def test_immutable(self, rng):
        s = random_sum_state(rng)
        with pytest.raises(AttributeError):
            s.coeffs = None
        with pytest.raises(ValueError):
            s.coeffs[0] = 1.0
        with pytest.raises(ValueError):
            s.rows[0].data[0] = 1.0

    def test_decomposition_shares_its_state(self):
        from tridecomp.constructions import instability_pair

        pair = instability_pair(haar_random_state(SPACE3, 13), 0.9)
        for d, s in ((pair.decomposition1, pair.phi1),
                     (pair.decomposition2, pair.phi2)):
            assert d.state is s
            assert d.state._packed is s._packed
            assert d.nterms == s.nterms


class TestDistance:
    """``distance`` subtracts two SumStates in their difference core and
    padded tensors otherwise, so it agrees with an independent dense build
    to rounding."""

    def test_matches_an_einsum_oracle_on_campaign_states(self, rng):
        dims = (6, 6, 6)
        for k in (2, 3, 4):
            cols = [random_orthonormal(rng, d, k) for d in dims]
            near = [c + 1e-6 * (rng.standard_normal(c.shape)
                                + 1j * rng.standard_normal(c.shape))
                    for c in cols]
            near = [c / np.linalg.norm(c, axis=0) for c in near]
            coeffs = random_unit(rng, k)
            a, b = (SumState.from_columns(ProductSpace(dims), coeffs, c)
                    for c in (cols, near))
            want = np.linalg.norm(
                np.einsum("k,ak,bk,ck->abc", coeffs, *cols)
                - np.einsum("k,ak,bk,ck->abc", coeffs, *near))
            assert abs(distance(a, b) - want) < 1e-14
            assert abs(distance(densify(a), b) - want) < 1e-14

    def test_products_far_above_the_ceiling_stay_exact(self, rng,
                                                       monkeypatch):
        # matching compares single terms; their core is 2 x 2 x 2 however
        # large the space, and no dense tensor is built
        small, big = ProductSpace((6, 6, 6)), ProductSpace((128, 128, 128))
        cols = [random_orthonormal(rng, 6, 1) for _ in range(3)]
        near = [c + 1e-7 * rng.standard_normal(c.shape) for c in cols]
        near = [c / np.linalg.norm(c) for c in near]
        want = np.linalg.norm(
            np.einsum("ak,bk,ck->abc", *cols) * 0.6
            - np.einsum("ak,bk,ck->abc", *near) * 0.6j)
        a, b = (SumState.from_columns(small, coeff, c)
                for coeff, c in (([0.6], cols), ([0.6j], near)))

        def refuse(*args):
            raise AssertionError("densified")

        monkeypatch.setattr(states, "_padded_tensor", refuse)
        assert abs(distance(a.embedded(big), b.embedded(big)) - want) < 1e-14

    @pytest.mark.parametrize("dims", [(3, 4), (2, 3, 4, 5)])
    def test_other_factor_counts_and_empty_sums(self, rng, dims):
        space = ProductSpace(dims)
        a, b = (SumState.from_columns(
            space, random_unit(rng, k),
            [random_orthonormal(rng, d, min(k, d))[:, np.arange(k) % d]
             for d in dims]) for k in (2, 5))
        want = np.linalg.norm(densify(a).amplitudes - densify(b).amplitudes)
        assert abs(distance(a, b) - want) < 1e-14
        empty = SumState(space, ())
        assert abs(distance(empty, b) - norm(b)) < 1e-14
        assert distance(empty, empty) == 0.0

    def test_operands_must_be_states(self):
        s = SumState(ProductSpace((2, 2)), (ProductTerm(1.0, (((0, 1.0),),
                                                              ((1, 1.0),))),))
        with pytest.raises(InvalidStateError, match="ndarray"):
            distance(s, np.ones(4))
        with pytest.raises(CapacityError):
            distance(s.embedded(ProductSpace((4096, 4096))), densify(s))

    def test_term_distance_reads_the_rows_of_one_term_states(self, rng):
        # a term distance read in place agrees bit for bit with the
        # distance of the two one-term states take() builds
        a = private_column_state(rng, 4)
        b = random_sum_state(rng, a.space.dims, k=3)
        for k, l in itertools.product(range(4), range(3)):
            assert states._term_distance(a, k, b, l) == distance(
                a.take([k]), b.take([l]))
            assert states._term_distance(a, k, a, k) < 1e-14

    def test_core_ceiling_is_checked_before_any_qr(self, rng, monkeypatch):
        a, b = (random_sum_state(rng, (3, 4, 5), k=4) for _ in range(2))
        want = distance(a, b)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return zgeqrf(*args, **kwargs)

        zgeqrf = states.zgeqrf
        monkeypatch.setattr(states, "zgeqrf", counted)
        monkeypatch.setattr(states, "DENSIFY_CEILING", 8 * 4 * 5 - 1)
        assert distance(a, b) == pytest.approx(want, abs=1e-7)
        assert not calls  # the inner-product form, with no QR first
        monkeypatch.setattr(states, "DENSIFY_CEILING", 8 * 4 * 5)
        assert distance(a, b) == want and len(calls) == 3

    def test_dense_round_trip_is_exact(self):
        # the Gram form read up to 2.3e-8 here, the size of tolerances.recon
        rng = np.random.default_rng(7)
        for _ in range(200):
            s = experiments._random_triortho(rng, (6, 6, 6), 3).state
            assert distance(s, sparsify(densify(s))) < 1e-13


class TestBlockedOverlaps:
    @staticmethod
    def pair(rng, k=50):
        a = private_column_state(rng, k)
        # the same private columns, owned by other rows of b
        b = private_column_state(rng, k, owners=rng.permutation(k))
        return a, b

    @staticmethod
    def walk(monkeypatch, a, b, rows_per_block):
        monkeypatch.setattr(states, "_BLOCK_BYTES",
                            16 * b.nterms * rows_per_block)
        splits = [states._column_split(p, q)
                  for p, q in zip(a._packed, b._packed)]
        return list(states._overlap_blocks(a, b, splits))

    def test_blocks_are_rows_of_the_whole_overlap(self, rng, monkeypatch):
        # 49 rows in steps of 12 would leave a one-row block, whose product
        # takes matmul's vector path; the walk splits them evenly instead
        a, b = self.pair(rng, k=49)
        whole = [_factor_overlap(p, q) for p, q in zip(a._packed, b._packed)]
        blocks = self.walk(monkeypatch, a, b, 12)
        assert [(lo, lo + ovs[0].shape[0]) for lo, ovs in blocks] == [
            (0, 12), (12, 24), (24, 36), (36, 49)]
        for i, (pack_a, pack_b) in enumerate(zip(a._packed, b._packed)):
            # both rows at the first block edge own columns private on both
            # sides, so their entries are added in different blocks
            private = (pack_a.owner >= 0) & np.isin(
                pack_a.touched, pack_b.touched[pack_b.owner >= 0])
            assert {11, 12} <= set(pack_a.owner[private].tolist())
            rows = np.concatenate([ovs[i] for _, ovs in blocks])
            assert np.array_equal(rows, whole[i])  # bitwise

    def test_blocked_sum_inner_matches_whole_gram(self, rng, monkeypatch):
        a, b = self.pair(rng)
        whole = complex(a.coeffs.conj() @ states.term_gram(a, b) @ b.coeffs)
        assert len(self.walk(monkeypatch, a, b, 12)) >= 3
        assert abs(states._sum_inner(a, b) - whole) <= 1e-13 * abs(whole)
        self_whole = complex(
            a.coeffs.conj() @ states.term_gram(a, a) @ a.coeffs)
        assert abs(states._sum_inner(a, a) - self_whole) \
            <= 1e-13 * abs(self_whole)

    def test_one_block_whole_gram_has_the_walks_bits(self, rng):
        # a Gram that fits in one block is built whole by term_gram; the
        # certificate's walk must give the same bits
        a, b = self.pair(rng)
        assert states._nblocks(a, b) == 1
        for x, y in ((a, b), (a, a)):
            walked = states._overlap_summary(x, y, [(x.coeffs, y.coeffs)])[2]
            assert states._sum_inner(x, y) == walked[0]

    def test_blocked_sum_inner_has_the_walks_bits(self, rng, monkeypatch):
        a, b = self.pair(rng)
        assert len(self.walk(monkeypatch, a, b, 12)) >= 3
        for x, y in ((a, b), (a, a)):
            walked = states._overlap_summary(x, y, [(x.coeffs, y.coeffs)])[2]
            assert states._sum_inner(x, y) == walked[0]

    @staticmethod
    def basis_state(columns):
        """A SumState on (4, 4) whose term k has factor vectors e_j for j
        in ``columns[k]``."""
        eye = np.eye(4)
        return SumState.from_columns(
            ProductSpace((4, 4)), np.ones(len(columns)),
            [eye[:, [c[i] for c in columns]] for i in range(2)])

    @pytest.mark.parametrize("rows_per_block", [None, 2])
    def test_summary_of_a_tall_overlap(self, monkeypatch, rows_per_block):
        # O_0 = [[1, 0], [0, 1], [0, 0], [1, 0]]: its one off-diagonal 1 at
        # (3, 0) is where a flat stride of 3 from (0, 0), or of 3 from the
        # second block's start, would land after the diagonal ends
        a = self.basis_state([(0, 0), (1, 1), (2, 2), (0, 3)])
        b = self.basis_state([(0, 0), (1, 1)])
        if rows_per_block:
            assert len(self.walk(monkeypatch, a, b, rows_per_block)) == 2
        x, y = np.arange(1.0, 5.0), np.array([1.0, 1j])
        off, diagonals, forms = states._overlap_summary(a, b, [(x, y)])
        assert off == (1.0, 0.0)
        assert np.array_equal(diagonals, np.ones((2, 2)))
        assert forms == [complex(x @ states.term_gram(a, b) @ y)]
        off, diagonals, _ = states._overlap_summary(b, a)
        assert off == (1.0, 0.0)
        assert np.array_equal(diagonals, np.ones((2, 2)))

    @pytest.mark.parametrize("k_a, k_b", [(49, 20), (20, 49), (30, 30)])
    def test_summary_matches_the_whole_overlaps(self, rng, monkeypatch, k_a,
                                                k_b):
        a, b = private_column_state(rng, k_a), private_column_state(rng, k_b)
        b = b.embedded(a.space) if k_b < k_a else b
        a = a.embedded(b.space)
        whole = [_factor_overlap(p, q) for p, q in zip(a._packed, b._packed)]
        assert len(self.walk(monkeypatch, a, b, 6)) >= 3
        off, diagonals, _ = states._overlap_summary(a, b)
        n = min(k_a, k_b)
        for i, ov in enumerate(whole):
            mags = np.abs(ov)
            mags[np.arange(n), np.arange(n)] = 0.0
            assert off[i] == float(mags.max())  # bitwise
            assert np.array_equal(diagonals[i], np.diagonal(ov))

    def test_summary_of_no_terms_has_no_factors(self, rng):
        s = random_sum_state(rng)
        empty = s.take([])
        pairs = [(s.coeffs, s.coeffs)]
        for a, b in ((empty, s), (s, empty), (empty, empty)):
            assert states._overlap_summary(a, b, pairs) == ((), (), [0j])


def dictionary_state(rng, words, owners, shared=3, theta=0.4, vocab=None):
    """One term per entry of ``owners``: on factor i, term j's row is
    cos(theta) times word ``words[i][j]`` of ``vocab[i]`` (by default seeded
    unit vectors on the first ``shared`` columns) plus sin(theta) on column
    shared + owners[j], so repeated words give repeated rows, and a column
    is private unless two terms name the same owner."""
    k, dim = len(owners), shared + max(owners) + 1
    columns = []
    for i, index in enumerate(words):
        vocab_i = vocab[i] if vocab else [random_unit(rng, shared)
                                          for _ in range(max(index) + 1)]
        mat = np.zeros((dim, k), dtype=complex)
        for j, (w, o) in enumerate(zip(index, owners)):
            mat[:shared, j] = math.cos(theta) * vocab_i[w]
            mat[shared + o, j] = math.sin(theta)
        columns.append(mat)
    coeffs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return SumState.from_columns(ProductSpace((dim,) * 3), coeffs, columns)


class TestCoreRoute:
    """``_overlap_summary`` through the dictionaries of distinct rows
    against the walk over the row blocks, on inputs both accept."""

    @staticmethod
    def both_routes(monkeypatch, a, b, pairs):
        # two rows per block, so the walk has more than one
        monkeypatch.setattr(states, "_BLOCK_BYTES", 16 * b.nterms * 2)
        assert states._nblocks(a, b) > 1
        taken = []
        core_summary = states._core_summary

        def counted(*args):
            taken.append(core_summary(*args))
            return taken[-1]
        with monkeypatch.context() as m:
            m.setattr(states, "_core_summary", counted)
            core = states._overlap_summary(a, b, pairs)
            inner_core = states._sum_inner(a, b)
        assert len(taken) == 2 and None not in taken
        with monkeypatch.context() as m:
            m.setattr(states, "_core_summary", lambda *args: None)
            walk = states._overlap_summary(a, b, pairs)
            inner_walk = states._sum_inner(a, b)
        return core, walk, inner_core, inner_walk

    def check(self, monkeypatch, rng, a, b):
        x = rng.standard_normal(a.nterms) + 1j * rng.standard_normal(a.nterms)
        y = rng.standard_normal(b.nterms)
        pairs = [(a.coeffs, b.coeffs),
                 (x / np.linalg.norm(x), y / np.linalg.norm(y))]
        (off, diag, forms), (w_off, w_diag, w_forms), inner_core, inner_walk \
            = self.both_routes(monkeypatch, a, b, pairs)
        assert np.max(np.abs(np.subtract(off, w_off))) <= 1e-15
        assert np.max(np.abs(diag - w_diag)) <= 1e-15
        assert np.max(np.abs(np.subtract(forms, w_forms))) <= 1e-14
        assert abs(inner_core - inner_walk) <= 1e-14
        assert abs(inner_core - forms[0]) <= 1e-14
        return off, w_off

    @pytest.mark.parametrize("epsilon", [0.9, 0.8, 0.7])
    def test_instability_pair_self_and_cross(self, monkeypatch, epsilon):
        from tridecomp.constructions import instability_pair
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            pair = instability_pair(haar_random_state(SPACE3, seed), epsilon)
            for a, b in ((pair.phi2, pair.phi2), (pair.phi1, pair.phi2),
                         (pair.phi2, pair.phi1)):
                self.check(monkeypatch, rng, a, b)

    def test_column_private_on_both_sides_owned_by_other_terms(
            self, monkeypatch, rng):
        # K_a = 16 and K_b = 13; b's private columns are a's first 13,
        # owned by a permutation of the terms.  On factor 0, a's term 0
        # holds word w and b's term l, owner of that term's column, holds -w:
        # |T| is largest at that pair, which only the corrected entry
        # (k, l) = (0, l) reaches, so the maximum must skip |T| there
        perm = rng.permutation(13)
        assert (perm != np.arange(13)).any()
        l = int(np.argmax(perm == 0))
        w = random_unit(rng, 3)
        vocab_a = [[random_unit(rng, 3) for _ in range(2)] + [w]
                   for _ in range(3)]
        vocab_b = [[random_unit(rng, 3) for _ in range(2)] + [-w]
                   for _ in range(3)]
        words_a = [[j % 2 for j in range(16)] for _ in range(3)]
        words_b = [[j % 2 for j in range(13)] for _ in range(3)]
        words_a[0][0], words_b[0][l] = 2, 2
        a = dictionary_state(rng, words_a, list(range(16)), vocab=vocab_a)
        b = dictionary_state(rng, words_b, list(perm), vocab=vocab_b)
        b = b.embedded(a.space)
        for x, y in ((b, a), (a, a)):
            self.check(monkeypatch, rng, x, y)
        off, _ = self.check(monkeypatch, rng, a, b)
        assert off[0] < math.cos(0.4) ** 2 - 1e-3

    def test_column_private_on_one_side_shared_on_the_other(
            self, monkeypatch, rng):
        # b's terms 0 and 1 both touch column 3, which only a's term 0
        # does: that column needs a dense product, and its entries give
        # both sides more distinct rows (3 and 4 per factor; 70 terms)
        words = [[j % 2 for j in range(70)]] * 3
        a = dictionary_state(rng, words, list(range(70)))
        b = dictionary_state(rng, words, [0, 0] + list(range(1, 69)))
        assert b._packed[0].owner[3] == -1 and a._packed[0].owner[3] == 0
        for x, y in ((a, b), (b, a)):
            self.check(monkeypatch, rng, x, y)

    def test_entry_repeated_on_one_factor_only(self, monkeypatch, rng):
        # factor 0 repeats one of its seven words; the other factors have
        # one word each.  A lone word's dictionary overlap with itself sits
        # on the diagonal only, the repeated word's also off it
        words = [[0, 1, 2, 3, 4, 5, 6, 6], [0] * 8, [0] * 8]
        a = dictionary_state(rng, words, list(range(8)))
        off, _ = self.check(monkeypatch, rng, a, a)
        assert off[0] == pytest.approx(math.cos(0.4) ** 2, abs=1e-15)
        words[0][-1] = 7  # no repeat: factor 0's maximum is off the words
        b = dictionary_state(rng, words, list(range(8)))
        off, _ = self.check(monkeypatch, rng, b, b)
        assert off[0] < math.cos(0.4) ** 2 - 1e-3
