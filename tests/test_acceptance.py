"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one ``ACCEPTANCE`` line (visible with ``pytest -s``); the
test outcome itself carries the same verdict, so ``pytest -v`` also reads as
a per-criterion pass/fail report.  Runtime ceilings are asserted where the
criterion states one.
"""

import math
import time

import numpy as np

from tridecomp.config import DENSIFY_CEILING
from tridecomp.constructions import (
    example31,
    example32,
    example33,
    instability_pair,
    isolation_witness_3,
    isolation_witness_4,
    non_triortho_perturb,
    structure_mover,
)
from tridecomp.decomp import (
    OrderedTriortho,
    decompositions_equivalent,
    extract_triortho,
)
from tridecomp.experiments import (
    TrialConfig,
    run_closure_test,
    run_stability_campaign,
)
from tridecomp.spectral import (
    entropy,
    entropy_decomposition_bound,
    isolation_radii,
    reduced_spectra,
    verify_spectral_lemmas,
)
from tridecomp.states import (
    DenseState,
    ProductSpace,
    ProductTerm,
    SumState,
    _dense_factor,
    densify,
    distance,
    norm,
    partial_trace,
    partial_trace_matrix,
    sparse_vector,
    trace_norm,
)

from conftest import random_orthonormal, random_triortho, random_unit

SEED = 20240817


def report(number, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {verdict} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def unit_product_state(dims=(2, 2, 2)):
    amps = np.zeros(math.prod(dims), dtype=complex)
    amps[0] = 1.0
    return DenseState(ProductSpace(dims), amps, normalized=True)


def test_criterion_01_rotation_family_certified_and_converging():
    start = time.perf_counter()
    gaps_phi, gaps_psi, certified = [], [], []
    for theta in (0.3, 0.1, 0.03, 0.01):
        fam = example31(theta)
        certified.append(fam.phi_decomposition.certificate.passed
                         and fam.psi_decomposition.certificate.passed)
        gaps_phi.append(distance(fam.phi_theta, fam.psi))
        gaps_psi.append(distance(fam.psi_theta, fam.psi))
    elapsed = time.perf_counter() - start
    monotone = all(a > b for a, b in zip(gaps_phi, gaps_phi[1:])) and \
        all(a > b for a, b in zip(gaps_psi, gaps_psi[1:]))
    ok = all(certified) and monotone and gaps_phi[-1] < 0.01 and elapsed < 1.0
    report(1, ok, f"gaps {gaps_phi[0]:.4f}->{gaps_phi[-1]:.4f}, "
                  f"certified at every theta, {elapsed:.2f}s")


def test_criterion_02_reduced_convex_decompositions():
    gaps, cross_ok = [], []
    for theta in (0.3, 0.1, 0.03, 0.01):
        res = example32(theta)
        gaps.append(res.trace_norm_gap)
        cross_ok.append(res.cross_overlaps.max()
                        <= 1.0 / math.sqrt(2.0) + 1e-10)
    monotone = all(a > b for a, b in zip(gaps, gaps[1:]))
    ok = all(cross_ok) and monotone and gaps[-1] < 0.05
    report(2, ok, f"trace-norm gap {gaps[0]:.4f}->{gaps[-1]:.4f}, "
                  f"cross overlaps under 1/sqrt(2)")


def test_criterion_03_diverging_coefficients():
    res = example33(1e-4)
    gap = distance(res.psi_theta, res.limit)
    top = max(abs(c) for c in res.raw_coefficients)
    exact = top == 1.0 / math.sqrt(1e-4) and top == 100.0
    ok = gap < 0.05 and exact and res.decomposition.certificate.passed
    report(3, ok, f"distance {gap:.4f} < 0.05 with raw coefficient {top}")


def test_criterion_04_dense_pair_at_desk_scale():
    start = time.perf_counter()
    psi = unit_product_state()
    pair = instability_pair(psi, 0.7)
    elapsed = time.perf_counter() - start
    checks = {
        "truncation": pair.truncation_size == 9,
        "terms": pair.phi2.nterms == 729,
        "sparse": pair.space.dim > DENSIFY_CEILING,
        "distance": max(pair.distances) < 0.7,
        "basis margin": pair.basis_overlap_min > (1 - 0.7) + 0.3,
        "cross": pair.cross_overlap_max < 0.7,
        "certificates": (pair.decomposition1.certificate.passed
                         and pair.decomposition2.certificate.passed),
        "runtime": elapsed < 30.0,
    }
    report(4, all(checks.values()),
           f"{ {k: v for k, v in checks.items() if not v} or 'all checks'} "
           f"(dist {max(pair.distances):.3f}, cross "
           f"{pair.cross_overlap_max:.3f}, {elapsed:.1f}s)")


def test_criterion_05_structure_mover_on_the_pair():
    psi = unit_product_state()
    pair = instability_pair(psi, 0.7)
    mover_pair = structure_mover(pair.phi1, pair.phi2)
    tn = mover_pair.mover.trace_norm_minus_identity()
    dist = distance(pair.phi1, pair.phi2)
    identity_gap = abs(tn - 2.0 * dist)

    worst = 0.0
    aux_worst = 0.0
    for i, dim in enumerate(pair.space.dims):
        psi_comp = _dense_factor(pair.decomposition1.state, i, dim)[0]
        phi_comps = _dense_factor(pair.decomposition2.state, i, dim)
        for m, phi_comp in enumerate(phi_comps):
            plain = np.vdot(psi_comp, phi_comp)
            moved = mover_pair.relabeled_overlap(i, psi_comp, phi_comp, (0, 1))
            worst = max(worst, abs(moved - plain))
            if m % 181 == 0:  # aux-independence spot checks
                again = mover_pair.relabeled_overlap(i, psi_comp, phi_comp,
                                                     (2, 3))
                aux_worst = max(aux_worst, abs(moved - again))
    ok = identity_gap <= 1e-8 and tn < 4 * 0.7 and worst <= 1e-10 \
        and aux_worst <= 1e-10
    report(5, ok, f"|tn - 2 dist| = {identity_gap:.2e}, tn = {tn:.4f} < 2.8, "
                  f"worst overlap error {worst:.2e}")


def test_criterion_06_spectral_bound_suite():
    start = time.perf_counter()
    trials = 1000
    d = 12
    failures = {"shift": 0, "compression": 0, "lower": 0, "reduction": 0}
    for seed in range(trials):
        g = np.random.default_rng([SEED, 6, seed])
        q1 = random_orthonormal(g, d, d)
        q2 = random_orthonormal(g, d, d)
        r = (q1 * g.uniform(0, 1, d)) @ q1.conj().T
        s = (q2 * g.uniform(0, 1, d)) @ q2.conj().T
        if not verify_spectral_lemmas(r, s).bound_holds:
            failures["shift"] += 1

        a, b = random_unit(g, d), random_unit(g, d)
        diff = np.outer(a, a.conj()) - np.outer(b, b.conj())
        rank = int(g.integers(1, d))
        cols = random_orthonormal(g, d, rank)
        proj = cols @ cols.conj().T
        tn = trace_norm(diff)
        if not (trace_norm(proj @ diff @ proj) <= tn + 1e-10
                and tn <= 2 * np.linalg.norm(a - b) + 1e-10):
            failures["compression"] += 1

        b_pos = b * np.exp(-1j * np.angle(np.vdot(a, b)))
        diff_pos = np.outer(a, a.conj()) - np.outer(b_pos, b_pos.conj())
        if not (2 * np.linalg.norm(a - b_pos)
                <= math.sqrt(2) * trace_norm(diff_pos) + 1e-10):
            failures["lower"] += 1

        mat = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
        reduced = partial_trace_matrix(mat, (3, 4), (int(g.integers(0, 2)),))
        if not trace_norm(reduced) <= trace_norm(mat) + 1e-10:
            failures["reduction"] += 1
    elapsed = time.perf_counter() - start
    ok = not any(failures.values()) and elapsed < 60.0
    report(6, ok, f"4 x {trials} trials at dim {d}, failures {failures}, "
                  f"{elapsed:.1f}s")


def test_criterion_07_entropy_ceilings_and_witnesses():
    worst_excess = -math.inf
    for seed in range(200):
        g = np.random.default_rng([SEED, 7, seed])
        k = int(g.integers(1, 9))
        terms = tuple(
            ProductTerm(g.standard_normal() + 1j * g.standard_normal(),
                        tuple(sparse_vector(random_unit(g, 9))
                              for _ in range(3)))
            for _ in range(k))
        raw = SumState(ProductSpace((9, 9, 9)), terms)
        state = raw.with_coeffs(raw.coeffs / norm(raw))
        rep = entropy_decomposition_bound(state, k)
        worst_excess = max(worst_excess,
                           max(rep.entropies) - math.log(k) if k > 1
                           else max(rep.entropies))
        if rep.violated:
            report(7, False, f"ceiling violated at seed {seed} (k = {k})")

    witness_gap = 0.0
    for n in range(2, 7):
        e3 = entropy(partial_trace(isolation_witness_3(n), (2,))).nats
        e4 = entropy(partial_trace(isolation_witness_4(n), (1, 2))).nats
        witness_gap = max(witness_gap, abs(e3 - math.log(n + 1)),
                          abs(e4 - math.log(n + 1)))
    ok = worst_excess <= 1e-9 and witness_gap <= 1e-10
    report(7, ok, f"200 product sums under ln K (worst excess "
                  f"{worst_excess:.1e}), witness entropies within "
                  f"{witness_gap:.1e}")


def test_criterion_08_spectra_and_extraction_round_trip():
    worst_spec = 0.0
    for seed in range(200):
        g = np.random.default_rng([SEED, 8, seed])
        k = int(g.integers(2, 7))
        dims = tuple(int(g.integers(max(k, 6), 9)) for _ in range(3))
        d = random_triortho((SEED, 8, seed, 1), dims=dims, k=k)
        psi = densify(d.state)
        target = np.zeros(max(dims))
        mags = np.sort(np.abs(d.coefficients))[::-1] ** 2
        target[:k] = mags
        for spec in reduced_spectra(psi):
            padded = np.zeros(max(dims))
            padded[:spec.size] = spec
            worst_spec = max(worst_spec,
                             float(np.max(np.abs(padded[:k] - mags))))
        out = extract_triortho(psi)
        if not isinstance(out, OrderedTriortho) or \
                not decompositions_equivalent(out.decomposition, d, 1e-7):
            report(8, False, f"round trip failed at seed {seed}")
    ok = worst_spec <= 1e-9
    report(8, ok, f"200 round trips, reduced spectra match |a_k|^2 within "
                  f"{worst_spec:.1e}")


def test_criterion_09_spectra_mismatch_perturbation():
    single = extract_triortho(unit_product_state((4, 4, 4))).decomposition
    multi = random_triortho((SEED, 9), dims=(4, 4, 4), k=3)
    checked = 0
    for label, base in (("single", single), ("multi", multi)):
        base_state = densify(base.state)
        for eps in (0.05, 0.1, 0.2):
            pert = non_triortho_perturb(base, eps)
            dist = distance(pert, base_state)
            spectra = reduced_spectra(pert)
            s1, s2, s3 = spectra
            if not (dist ** 2 <= 2 * eps + 1e-12
                    and abs(s1[0] - s2[0]) <= 1e-9
                    and abs(s1[0] - s3[0]) > 1e-6):
                report(9, False, f"{label} case broke at eps = {eps}")
            # no triorthogonal state within the proven radius, and the
            # triorthogonal base lies beyond it
            radius = isolation_radii(spectra, 1)[1]
            if not 0.0 < radius <= dist:
                report(9, False, f"radius {radius} of {label}/{eps} "
                       f"against the base at {dist}")
            checked += 1
    report(9, checked == 6,
           "both cases at eps in {0.05, 0.1, 0.2}: distance, spectra gap, "
           "and a proven ball free of triorthogonal states")


def test_criterion_10_component_matching_campaign():
    start = time.perf_counter()
    cfg = TrialConfig(seed=SEED, trials=500, dims=(6, 6, 6),
                      selector="component-match")
    rep = run_stability_campaign(cfg)
    elapsed = time.perf_counter() - start
    ties = [r for r in rep.records if r.get("tie")]
    ok = rep.pass_rate == 1.0 and elapsed < 120.0 and len(ties) >= 40
    report(10, ok, f"500 admissible pairs, pass rate {rep.pass_rate}, "
                   f"worst overlap margin "
                   f"{rep.aggregate['worst_overlap_margin']:.4f}, "
                   f"{len(ties)} degenerate trials, {elapsed:.1f}s")


def test_criterion_11_closure_of_the_triorthogonal_set():
    rep = run_closure_test(TrialConfig(seed=SEED, dims=(4, 4, 4)))
    by_n = {r["n"]: r for r in rep.records}
    member = by_n[10000]
    limit = by_n["limit"]
    ok = (rep.pass_rate == 1.0
          and member["equivalent_to_member"]
          and limit["equivalent_to_limit"]
          and limit["coefficients_vs_spectrum"] <= 1e-8)
    report(11, ok, f"sequence at n = 10^4 extracted and matched; limit "
                   f"coefficients within "
                   f"{limit['coefficients_vs_spectrum']:.1e} of sqrt(r_k)")
