import math

import numpy as np
import pytest

from tridecomp.decomp import TriDecomposition, Variant, ordered_triortho
from tridecomp.errors import InvalidStateError, PreconditionError
from tridecomp.matching import (
    _projected_pair,
    match_components,
    match_single_product,
)
from tridecomp.states import (
    ProductSpace,
    ProductTerm,
    SumState,
    _dense_factor,
    distance,
    sparse_vector,
)

from conftest import random_orthonormal, random_triortho, random_unit


def single_product(a, v1, v2):
    space = ProductSpace((v1.shape[0], v2.shape[0]))
    return SumState(space, (ProductTerm(
        a, (sparse_vector(v1), sparse_vector(v2))),))


class TestSingleProductMatch:
    def test_exact_match_is_trivial(self, rng):
        v1, v2 = random_unit(rng, 4), random_unit(rng, 4)
        psi = single_product(0.9, v1, v2)
        rep = match_single_product(psi, psi, eps=0.2, eps_prime=0.003)
        assert rep.matched_index == 0
        assert rep.coeff_sq_gap == pytest.approx(0.0, abs=1e-14)
        assert rep.term_distance == pytest.approx(0.0, abs=1e-7)
        assert rep.holds and rep.unique and rep.second_part

    def test_two_term_closed_form(self, rng):
        # phi = sqrt(1 - delta^2) psi1 psi2 + delta u1 u2 with orthogonal u's
        d = 5
        v1, v2 = random_unit(rng, d), random_unit(rng, d)
        u1 = random_unit(rng, d)
        u1 -= v1 * np.vdot(v1, u1)
        u1 /= np.linalg.norm(u1)
        u2 = random_unit(rng, d)
        u2 -= v2 * np.vdot(v2, u2)
        u2 /= np.linalg.norm(u2)
        # delta^2 < eps'/2 isolates the coefficient; delta < eps' and
        # sqrt(eps') <= eps/3 additionally activate the distance bounds
        eps, eps_prime = 0.3, 0.009
        delta = 0.5 * eps_prime
        psi = single_product(1.0, v1, v2)
        space = psi.space
        phi = SumState(space, (
            ProductTerm(math.sqrt(1 - delta ** 2),
                        (sparse_vector(v1), sparse_vector(v2))),
            ProductTerm(delta, (sparse_vector(u1), sparse_vector(u2))),
        ))
        rep = match_single_product(psi, phi, eps, eps_prime)
        assert rep.matched_index == 0
        # closed forms: coefficient gap delta^2, overlaps exactly 1
        assert rep.coeff_sq_gap == pytest.approx(delta ** 2, abs=1e-12)
        assert rep.max_other_coeff_sq == pytest.approx(delta ** 2, abs=1e-12)
        assert rep.overlaps[0] == pytest.approx(1.0, abs=1e-12)
        assert rep.overlaps[1] == pytest.approx(1.0, abs=1e-12)
        assert rep.holds

    def test_randomized_bounds_hold(self):
        # admissible random pairs; every reported inequality must hold
        for seed in range(200):
            g = np.random.default_rng(seed)
            d = 6
            a = g.uniform(0.6, 1.0)
            eps = g.uniform(0.12, 0.24)
            eps_prime = 0.9 * (a * eps / 3.0) ** 2
            budget = 0.4 * eps_prime
            v1, v2 = random_unit(g, d), random_unit(g, d)
            q1 = random_orthonormal(g, d, d)
            q1 = q1 - np.outer(v1, q1[np.argmax(np.abs(q1 @ v1.conj()))])
            # orthonormal basis whose first column is v1 / v2
            def basis_with(v):
                m = np.column_stack([v] + [random_unit(g, d)
                                           for _ in range(d - 1)])
                q, r = np.linalg.qr(m)
                return q * (np.diag(r) / np.abs(np.diag(r)))
            b1, b2 = basis_with(v1), basis_with(v2)
            coeffs = np.zeros(d, dtype=complex)
            coeffs[0] = a * (1 - 0.1 * budget)
            coeffs[1] = 0.3 * budget * np.exp(1j * g.uniform(0, 2 * np.pi))
            coeffs[2] = 0.2 * budget
            psi = single_product(a, v1, v2)
            phi = SumState(psi.space, tuple(
                ProductTerm(coeffs[j], (sparse_vector(b1[:, j]),
                                        sparse_vector(b2[:, j])))
                for j in range(d) if abs(coeffs[j]) > 0))
            rep = match_single_product(psi, phi, eps, eps_prime)
            assert rep.holds, f"seed {seed}: {rep.to_json()}"
            assert rep.second_part

    def test_precondition_names_coefficient_floor(self, rng):
        v1, v2 = random_unit(rng, 3), random_unit(rng, 3)
        psi = single_product(0.1, v1, v2)
        with pytest.raises(PreconditionError, match=r"\|a\|\^2 > 2\*eps_prime"):
            match_single_product(psi, psi, eps=0.2, eps_prime=0.4)

    def test_precondition_names_trace_norm_gap(self, rng):
        v1, v2 = random_unit(rng, 3), random_unit(rng, 3)
        w1, w2 = random_unit(rng, 3), random_unit(rng, 3)
        psi = single_product(0.9, v1, v2)
        far = single_product(0.9, w1, w2)
        with pytest.raises(PreconditionError, match="trace_norm"):
            match_single_product(psi, far, eps=0.2, eps_prime=1e-4)

    def test_requires_orthonormal_factor_sequences(self, rng):
        v1, v2 = random_unit(rng, 3), random_unit(rng, 3)
        psi = single_product(0.9, v1, v2)
        phi = SumState(psi.space, (
            ProductTerm(0.9, (sparse_vector(v1), sparse_vector(v2))),
            ProductTerm(0.01, (sparse_vector(v1), sparse_vector(v2))),
        ))
        with pytest.raises(PreconditionError, match="orthonormal"):
            match_single_product(psi, phi, eps=0.2, eps_prime=0.01)

    def test_orthonormality_failure_names_its_factor(self, rng):
        v1, w1 = random_orthonormal(rng, 3, 2).T
        v2 = random_unit(rng, 3)
        psi = single_product(0.9, v1, v2)
        phi = SumState(psi.space, (
            ProductTerm(0.9, (sparse_vector(v1), sparse_vector(v2))),
            ProductTerm(0.01, (sparse_vector(w1), sparse_vector(v2))),
        ))
        with pytest.raises(PreconditionError, match="factor 1 sequence"):
            match_single_product(psi, phi, eps=0.2, eps_prime=0.01)

    def test_second_part_skipped_when_states_far(self, rng):
        # reduced states can agree while the global states stay far apart
        d = 4
        v1, v2 = random_unit(rng, d), random_unit(rng, d)
        psi = single_product(0.9, v1, v2)
        phi = SumState(psi.space, (ProductTerm(
            -0.9, (sparse_vector(v1), sparse_vector(v2))),))
        rep = match_single_product(psi, phi, eps=0.2, eps_prime=0.02)
        assert not rep.second_part
        assert "eps_prime" in rep.second_part_skipped


def perturbed_decomposition(d_psi, bound, seed):
    """Rotate components and tweak coefficients within the given distance."""
    g = np.random.default_rng(seed)
    dims = d_psi.space.dims
    k = d_psi.nterms
    mags = np.abs(d_psi.coefficients)
    phases = d_psi.coefficients / mags
    base = [_dense_factor(d_psi.state, i, dims[i]).T for i in range(3)]
    psi_state = d_psi.state
    angle = bound / 4
    for _ in range(20):
        comps = []
        for i in range(3):
            h = g.standard_normal((dims[i], dims[i])) \
                + 1j * g.standard_normal((dims[i], dims[i]))
            h = (h + h.conj().T) / 2
            vals, vecs = np.linalg.eigh(h)
            u = vecs @ np.diag(np.exp(-1j * angle * vals
                                      / np.abs(vals).max())) @ vecs.conj().T
            comps.append(u @ base[i])
        m2 = mags * (1 + angle * g.uniform(-1, 1, k))
        m2 = m2 / np.linalg.norm(m2)
        terms = tuple(ProductTerm(m2[j] * phases[j],
                                  tuple(sparse_vector(comps[i][:, j])
                                        for i in range(3)))
                      for j in range(k))
        cand = TriDecomposition(d_psi.space, terms, Variant.ORTHONORMAL)
        dist = distance(psi_state, cand.state)
        if dist < 0.9 * bound:
            return cand, dist
        angle *= 0.4
    raise AssertionError("could not build an admissible neighbour")


class TestComponentMatch:
    def test_identity_pairing(self):
        d = random_triortho(31, dims=(5, 5, 5), k=3)
        po = ordered_triortho(d)
        rep = match_components(po, d, level=po.nblocks, eps=0.2)
        assert rep.all_bounds_hold
        assert [r.matched for r in rep.records] == [r.index for r in rep.records]
        for r in rep.records:
            assert r.coeff_sq_gap == pytest.approx(0.0, abs=1e-12)
            assert min(r.overlaps) == pytest.approx(1.0, abs=1e-12)

    def test_admissible_perturbation(self):
        d = random_triortho(32, dims=(6, 6, 6), k=3)
        po = ordered_triortho(d)
        eps = 0.2
        bound = po.blocks[-1].magnitude ** 2 * eps ** 2 / 18
        d_phi, dist = perturbed_decomposition(d, bound, 77)
        rep = match_components(po, d_phi, level=po.nblocks, eps=eps)
        assert rep.state_distance == pytest.approx(dist, abs=1e-12)
        assert rep.all_bounds_hold
        matched = [r.matched for r in rep.records]
        assert len(set(matched)) == len(matched)  # injective

    def test_partial_level(self):
        d = random_triortho(33, dims=(6, 6, 6), k=4)
        po = ordered_triortho(d)
        eps = 0.2
        bound = po.blocks[1].magnitude ** 2 * eps ** 2 / 18
        d_phi, _ = perturbed_decomposition(d, bound, 5)
        rep = match_components(po, d_phi, level=2, eps=eps)
        assert rep.all_bounds_hold
        assert len(rep.records) == sum(len(b.indices) for b in po.blocks[:2])

    def test_epsilon_range_enforced(self):
        d = random_triortho(34)
        po = ordered_triortho(d)
        with pytest.raises(PreconditionError, match="eps"):
            match_components(po, d, level=1, eps=0.3)

    def test_non_orthonormal_neighbour_is_invalid_input(self):
        # a variant the matching bound does not cover is bad input, not a
        # failed inequality
        d = random_triortho(34)
        li_all = TriDecomposition(d.space, d.state, Variant.LI_ALL)
        with pytest.raises(InvalidStateError, match="orthonormal"):
            match_components(ordered_triortho(d), li_all, level=1, eps=0.2)

    def test_distance_hypothesis_enforced(self):
        d1 = random_triortho(35, dims=(5, 5, 5))
        d2 = random_triortho(36, dims=(5, 5, 5))
        po = ordered_triortho(d1)
        with pytest.raises(PreconditionError, match=r"\|a_L\|\^2"):
            match_components(po, d2, level=po.nblocks, eps=0.2)

    def test_degenerate_block_still_unique(self):
        d = random_triortho(37, dims=(6, 6, 6), k=3, tie=True)
        po = ordered_triortho(d)
        assert len(po.blocks[0].indices) == 2
        eps = 0.2
        bound = po.blocks[-1].magnitude ** 2 * eps ** 2 / 18
        rep = match_components(po, d, level=po.nblocks, eps=eps)
        assert rep.all_bounds_hold
        matched = [r.matched for r in rep.records]
        assert len(set(matched)) == len(matched)


def projected_pair_reference(space2, keep, state, k, other, project_axis):
    """The projected pair built from dense factor columns: term ``k`` of
    ``state`` on ``keep``, and ``other`` on ``keep`` with each coefficient
    times its component's overlap with term ``k``'s on ``project_axis``."""
    dims = state.space.dims

    def columns(s):
        return [_dense_factor(s, i, dims[i]).T for i in keep]

    comp = _dense_factor(state, project_axis, dims[project_axis])[k]
    overlaps = _dense_factor(other, project_axis,
                             dims[project_axis]) @ comp.conj()
    single = SumState.from_columns(space2, state.coeffs[[k]],
                                   [c[:, [k]] for c in columns(state)])
    return single, SumState.from_columns(space2, other.coeffs * overlaps,
                                         columns(other))


class TestProjectedPair:
    @pytest.mark.parametrize("tie", [False, True])
    def test_matches_the_product_term_build(self, tie):
        d = random_triortho(38, dims=(5, 6, 7), k=3, tie=tie)
        po = ordered_triortho(d)
        assert (len(po.blocks[0].indices) == 2) == tie
        eps = 0.2
        bound = po.blocks[-1].magnitude ** 2 * eps ** 2 / 18
        d_phi, _ = perturbed_decomposition(d, bound, 11)
        psi_state = po.decomposition.state
        phi_state = d_phi.state
        parent_packs = phi_state._packed
        dims = d.space.dims
        for keep, axis in (((0, 1), 2), ((1, 2), 0)):
            space2 = ProductSpace(tuple(dims[i] for i in keep))
            for k in range(psi_state.nterms):
                got = _projected_pair(space2, keep, psi_state, k, phi_state,
                                      axis)
                want = projected_pair_reference(
                    space2, keep, psi_state, k, phi_state, axis)
                for g, w in zip(got, want):
                    assert g.space == w.space
                    assert np.allclose(g.coeffs, w.coeffs, rtol=0.0,
                                       atol=1e-15)
                    for gr, wr in zip(g.rows, w.rows):
                        for x, y in zip(gr, wr):
                            assert np.array_equal(x, y)
                projected = got[1]
                assert all(projected._packed[j] is parent_packs[i]
                           for j, i in enumerate(keep))


class TestReportJson:
    def test_match_report_keys_and_lists(self):
        d = random_triortho(34, dims=(5, 5, 5), k=3)
        po = ordered_triortho(d)
        rep = match_components(po, d, level=po.nblocks, eps=0.2)
        doc = rep.to_json()
        assert list(doc) == ["pairing", "records", "level", "eps",
                             "eps_prime", "state_distance", "distance_bound",
                             "all_bounds_hold"]
        assert doc["pairing"] == [list(p) for p in rep.pairing]
        assert list(doc["records"][0]) == [
            "block", "index", "matched", "coeff_sq_gap", "coeff_bound",
            "overlaps", "overlap_floor", "term_distance", "term_bound", "holds"]
        for rec, want in zip(doc["records"], rep.records):
            assert rec == want.to_json()
            assert rec["overlaps"] == list(want.overlaps)
        assert doc["state_distance"] == rep.state_distance

    def test_product_match_report_keys_and_lists(self, rng):
        v1, v2 = random_unit(rng, 4), random_unit(rng, 4)
        psi = single_product(0.9, v1, v2)
        doc = match_single_product(psi, psi, eps=0.2, eps_prime=0.003).to_json()
        assert list(doc) == [
            "matched_index", "eps", "eps_prime", "trace_norm_gap",
            "coeff_sq_gap", "max_other_coeff_sq", "unique", "state_distance",
            "second_part", "second_part_skipped", "term_distance", "overlaps",
            "holds"]
        assert isinstance(doc["overlaps"], list) and len(doc["overlaps"]) == 2
