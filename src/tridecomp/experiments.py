"""Seeded randomized campaigns tying the library to its quantitative claims.

Every campaign draws per-trial generators from ``default_rng([seed, trial])``,
so identical configurations reproduce byte-identical reports.  Bound
campaigns require pass rate 1.0: the checked inequalities are certainties,
not statistics, and any miss is a defect.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .config import (
    DEFAULT_TOLERANCES,
    Tolerances,
    check_integer,
    json_fields,
)
from .constructions import (
    example31,
    example32,
    example33,
    isolation_witness_3,
    isolation_witness_4,
    non_triortho_perturb,
)
from .decomp import (
    OrderedTriortho,
    TriDecomposition,
    Variant,
    _degenerate_groups,
    canonical_phase,
    decompositions_equivalent,
    extract_triortho,
    ordered_triortho,
)
from .errors import InvalidStateError, VerificationError
from .matching import match_components, match_single_product
from .spectral import (
    entropy,
    reduced_spectra,
    spectrum,
    triortho_necessary_test,
)
from .states import (
    DenseState,
    ProductSpace,
    SumState,
    _check_dense,
    _columns,
    densify,
    distance,
    partial_trace,
)


@dataclass(frozen=True)
class TrialConfig:
    seed: int = 0
    trials: int = 100
    dims: tuple = (6, 6, 6)
    selector: str = "all"
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        object.__setattr__(self, "dims", ProductSpace(self.dims).dims)
        check_integer("seed", self.seed, 0)
        check_integer("trials", self.trials, 1)
        _check_dense(self.dims)

    def as_dict(self) -> dict:
        return json_fields(self)


@dataclass(frozen=True)
class CampaignReport:
    name: str
    config: dict
    records: tuple
    aggregate: dict
    environment: dict

    @property
    def pass_rate(self) -> float:
        return float(self.aggregate.get("pass_rate", 0.0))

    def to_json(self) -> dict:
        return {
            "schema": "tridecomp-report/1",
            "campaign": self.name,
            "config": self.config,
            "records": list(self.records),
            "aggregate": self.aggregate,
            "environment": self.environment,
        }

    def to_csv(self) -> str:
        keys = ["schema"] + sorted({k for r in self.records for k in r})
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=keys)
        writer.writeheader()
        for r in self.records:
            row = {k: (json.dumps(v) if isinstance(v, (list, dict)) else v)
                   for k, v in r.items()}
            row["schema"] = "tridecomp-report/1"
            writer.writerow(row)
        return buf.getvalue()


def _environment(tolerances: Tolerances) -> dict:
    return {
        "package_version": __version__,
        "precision": "complex128 (IEEE-754 binary64)",
        "log_base": "natural log",
        "tolerances": tolerances.as_dict(),
    }


def _finish(name, config, records, tolerances, extra_aggregate=None) -> CampaignReport:
    records = tuple(sorted(records, key=lambda r: r.get("trial", -1)))
    passes = [bool(r["pass"]) for r in records if "pass" in r]
    aggregate = {
        "trials": len(passes),
        "pass_rate": (sum(passes) / len(passes)) if passes else 1.0,
    }
    if extra_aggregate:
        aggregate.update(extra_aggregate)
    return CampaignReport(name, config, records, aggregate,
                          _environment(tolerances))


def _rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial])


def _random_unit(rng, d: int) -> np.ndarray:
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def _small_unitary(rng, d: int, angle: float) -> np.ndarray:
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (h + h.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(h)
    vals = vals / max(np.abs(vals).max(), 1e-30)
    return vecs @ np.diag(np.exp(-1j * angle * vals)) @ vecs.conj().T


def _basis_including(rng, first: np.ndarray) -> np.ndarray:
    d = first.shape[0]
    m = np.column_stack([first] + [_random_unit(rng, d) for _ in range(d - 1)])
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_orthonormal(rng, d: int, k: int) -> np.ndarray:
    z = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    q, _ = np.linalg.qr(z)
    return q[:, :k]


def _random_triortho(rng, dims, k: int, tie: bool = False) -> TriDecomposition:
    """Random orthonormal decomposition with coefficient gaps far above the
    degeneracy width (or one exact leading tie when ``tie`` is set)."""
    mags = [1.0]
    for _ in range(k - 1):
        mags.append(mags[-1] / rng.uniform(1.6, 2.4))
    mags = np.array(mags)
    mags = mags / np.linalg.norm(mags)
    if tie and k >= 2:
        mags[1] = mags[0]  # bitwise tie; renormalizing keeps it exact
        mags = mags / np.linalg.norm(mags)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, k))
    comps = [_random_orthonormal(rng, d, k) for d in dims]
    return _orthonormal_decomposition(ProductSpace(dims), mags * phases, comps)


def _orthonormal_decomposition(space: ProductSpace, coeffs,
                               comps) -> TriDecomposition:
    """Term k has coefficient ``coeffs[k]`` and, on factor i, the unit
    vector ``comps[i][:, k]``."""
    return TriDecomposition(space, SumState.from_columns(space, coeffs, comps),
                            Variant.ORTHONORMAL)


# ---------------------------------------------------------------------------
# Instability sweep


INSTABILITY_THETAS = (0.3, 0.1, 0.03, 0.01)


def run_instability_sweep(tolerances: Tolerances = DEFAULT_TOLERANCES
                          ) -> CampaignReport:
    """Exercise the three named families over ``INSTABILITY_THETAS`` and
    assert the documented trends and ceilings."""
    records = []
    for trial, theta in enumerate(INSTABILITY_THETAS):
        rec = {"trial": trial, "theta": theta}
        fam = example31(theta, tolerances)
        rec["family_gap_phi"] = distance(fam.phi_theta, fam.psi)
        rec["family_gap_psi"] = distance(fam.psi_theta, fam.psi)
        rec["family_certified"] = bool(
            fam.phi_decomposition.certificate.passed
            and fam.psi_decomposition.certificate.passed)
        red = example32(theta, tolerances)
        rec["reduced_gap"] = red.trace_norm_gap
        rec["cross_overlap_max"] = float(red.cross_overlaps.max())
        rec["cross_ceiling_ok"] = bool(
            red.cross_overlaps.max() <= 1.0 / math.sqrt(2.0) + 1e-10)
        div = example33(theta, tolerances)
        rec["diverging_coefficient"] = max(map(abs, div.raw_coefficients))
        rec["diverging_gap"] = distance(div.psi_theta, div.limit)
        rec["diverging_certified"] = bool(div.decomposition.certificate.passed)
        rec["pass"] = bool(rec["family_certified"] and rec["cross_ceiling_ok"]
                           and rec["diverging_certified"])
        records.append(rec)
    trends = {trend: all(a[key] > b[key] for a, b in zip(records, records[1:]))
              for trend, key in (("family_gap_decreasing", "family_gap_phi"),
                                 ("reduced_gap_decreasing", "reduced_gap"))}
    if not all(trends.values()):
        for r in records:
            r["pass"] = False
    cfg = {"theta_grid": list(INSTABILITY_THETAS),
           "tolerances": tolerances.as_dict()}
    return _finish("instability", cfg, records, tolerances, trends)


# ---------------------------------------------------------------------------
# Stability campaigns


def _product_match_trial(rng, dims, tolerances) -> dict:
    d1, d2 = dims[0], dims[1]
    a = rng.uniform(0.6, 1.0)
    eps = rng.uniform(0.12, 0.24)
    eps_prime = 0.9 * (a * eps / 3.0) ** 2
    budget = 0.4 * eps_prime
    v1, v2 = _random_unit(rng, d1), _random_unit(rng, d2)
    space = ProductSpace((d1, d2))
    psi = SumState.from_columns(space, [a], (v1[:, None], v2[:, None]))
    q1 = _small_unitary(rng, d1, 0.1 * budget) @ _basis_including(rng, v1)
    q2 = _small_unitary(rng, d2, 0.1 * budget) @ _basis_including(rng, v2)
    extra = int(rng.integers(1, min(4, d1)))
    coeffs = np.zeros(d1, dtype=np.complex128)
    coeffs[0] = a * (1.0 - 0.1 * budget)
    for j in range(1, extra + 1):
        coeffs[j] = 0.2 * budget / math.sqrt(extra) * \
            np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    used = np.nonzero(np.abs(coeffs) > 0.0)[0]
    phi = SumState.from_columns(space, coeffs[used],
                                (q1[:, used], q2[:, used]))
    report = match_single_product(psi, phi, eps, eps_prime, tolerances)
    return {
        "kind": "product-match",
        "eps": eps,
        "eps_prime": eps_prime,
        "state_distance": report.state_distance,
        "matched_index": report.matched_index,
        "coeff_sq_gap": report.coeff_sq_gap,
        "term_distance": report.term_distance,
        "min_overlap": min(report.overlaps),
        "second_part": report.second_part,
        "pass": bool(report.holds and report.second_part),
    }


def _component_match_trial(rng, dims, trial, tolerances) -> dict:
    k = int(rng.integers(2, min(min(dims), 4) + 1))
    tie = trial % 10 == 9
    d_psi = _random_triortho(rng, dims, k, tie=tie)
    po = ordered_triortho(d_psi, tolerances)
    psi_state = d_psi.state
    eps = rng.uniform(0.12, 0.24)
    a_level = po.blocks[-1].magnitude
    bound = a_level ** 2 * eps ** 2 / 18.0

    mags = np.abs(d_psi.coefficients)
    phases = d_psi.coefficients / mags
    base = _columns(psi_state)
    # tied magnitudes keep a shared perturbation factor: a tie broken by less
    # than the degeneracy width would park the extraction on its boundary
    sizes = [j - i for i, j in _degenerate_groups(mags, 1e-12)]
    angle = bound / 4.0
    phi_dec = None
    for _ in range(20):
        comps = [(_small_unitary(rng, dims[i], angle) @ base[i])
                 for i in range(3)]
        factors = rng.uniform(-1.0, 1.0, len(sizes))
        m2 = mags * (1.0 + angle * np.repeat(factors, sizes))
        m2 = m2 / np.linalg.norm(m2)
        cand = _orthonormal_decomposition(d_psi.space, m2 * phases, comps)
        dist = distance(psi_state, cand.state)
        if dist < 0.9 * bound:
            phi_dec = cand
            break
        angle *= 0.4
    if phi_dec is None:
        raise VerificationError("could not generate an admissible pair")
    extracted = extract_triortho(densify(phi_dec.state), tolerances)
    if not isinstance(extracted, OrderedTriortho):
        return {"kind": "component-match", "eps": eps, "tie": tie,
                "pass": False, "note": f"re-extraction failed: {extracted}"}
    report = match_components(po, extracted.decomposition, po.nblocks, eps,
                              tolerances)
    worst_overlap = min(min(r.overlaps) for r in report.records)
    worst_coeff = max(r.coeff_sq_gap for r in report.records)
    worst_term = max(r.term_distance for r in report.records)
    return {
        "kind": "component-match",
        "eps": eps,
        "terms": k,
        "tie": tie,
        "state_distance": report.state_distance,
        "distance_bound": report.distance_bound,
        "worst_overlap_margin": worst_overlap - (1.0 - eps),
        "worst_coeff_gap": worst_coeff,
        "worst_term_distance": worst_term,
        "pass": bool(report.all_bounds_hold),
    }


def _three_factors(name: str, dims: tuple):
    if len(dims) != 3:  # checked before any trial runs
        raise InvalidStateError(
            f"{name} trials need 3 factor dims, got {len(dims)}")


def run_stability_campaign(cfg: TrialConfig) -> CampaignReport:
    """Randomized admissible pairs inside each matching hypothesis; every
    conclusion inequality is asserted and the worst margins recorded; only
    product-match trials, which read two dims, run on other factor counts."""
    if cfg.selector != "product-match":
        _three_factors("stability", cfg.dims)
    records = []
    for trial in range(cfg.trials):
        rng = _rng(cfg.seed, trial)
        if cfg.selector == "product-match":
            rec = _product_match_trial(rng, cfg.dims, cfg.tolerances)
        elif cfg.selector == "component-match":
            rec = _component_match_trial(rng, cfg.dims, trial, cfg.tolerances)
        elif cfg.selector == "all":
            rec = (_product_match_trial(rng, cfg.dims, cfg.tolerances)
                   if trial % 2 == 0 else
                   _component_match_trial(rng, cfg.dims, trial, cfg.tolerances))
        else:
            raise InvalidStateError(f"unknown selector {cfg.selector!r}")
        rec["trial"] = trial
        records.append(rec)
    margins = [r.get("worst_overlap_margin") for r in records
               if r.get("worst_overlap_margin") is not None]
    extra = {"worst_overlap_margin": min(margins)} if margins else {}
    return _finish("stability", cfg.as_dict(), records, cfg.tolerances, extra)


# ---------------------------------------------------------------------------
# Isolation scan


def _perturbed_within(rng, psi: DenseState, radius: float) -> DenseState:
    """A wavefunction at chord distance <= radius from ``psi``."""
    g = _random_unit(rng, psi.space.dim)
    g = g - psi.amplitudes * np.vdot(psi.amplitudes, g)
    gn = np.linalg.norm(g)
    if gn < 1e-12:
        return psi
    g = g / gn
    step = radius * rng.uniform(0.2, 1.0)
    t = math.acos(max(1.0 - step ** 2 / 2.0, -1.0))
    amps = math.cos(t) * psi.amplitudes + math.sin(t) * g
    return DenseState(psi.space, amps, normalized=True)


# witness size n1, perturbation radius and tilt epsilons of the isolation scan
ISOLATION_WITNESS_SIZE = 3
ISOLATION_RADIUS = 0.05
ISOLATION_EPSILONS = (0.05, 0.1, 0.2)


def run_isolation_scan(cfg: TrialConfig) -> CampaignReport:
    """Witness entropies, their neighbourhood floors, and the persistence of
    the reduced-spectra mismatch around the perturbed triorthogonal states."""
    _three_factors("isolation", cfg.dims)
    tolerances = cfg.tolerances
    records = []
    n1 = ISOLATION_WITNESS_SIZE
    w3 = isolation_witness_3(n1)
    ent3 = entropy(partial_trace(w3, (2,)), tolerances).nats
    rec = {"trial": 0, "kind": "witness-3", "n1": n1,
           "entropy": ent3, "target": math.log(n1 + 1.0),
           "ceiling": math.log(n1)}
    floors = []
    for j in range(cfg.trials):
        pert = _perturbed_within(_rng(cfg.seed, j), w3, ISOLATION_RADIUS)
        floors.append(entropy(partial_trace(pert, (2,)), tolerances).nats)
    rec["min_perturbed_entropy"] = min(floors)
    rec["margin"] = min(floors) - math.log(n1)
    rec["pass"] = bool(abs(ent3 - math.log(n1 + 1.0)) <= 1e-10
                       and min(floors) > math.log(n1))
    records.append(rec)

    spec4 = spectrum(partial_trace(isolation_witness_4(n1), (1, 2)),
                     tolerances)
    ent4 = entropy(spec4, tolerances).nats
    levels = np.asarray([v for v in np.round(spec4.values, 14)
                         if v > tolerances.zero_coeff])
    records.append({
        "trial": 1, "kind": "witness-4", "n": n1,
        "entropy": ent4, "target": math.log(n1 + 1.0),
        "uniform_levels": int(levels.size),
        "pass": bool(abs(ent4 - math.log(n1 + 1.0)) <= 1e-10
                     and levels.size == n1 + 1
                     and np.max(np.abs(levels - 1.0 / (n1 + 1.0))) <= 1e-10),
    })

    trial_id = 2
    for eps in ISOLATION_EPSILONS:
        for case in ("single-term", "multi-term"):
            rng = _rng(cfg.seed, 1000 + trial_id)
            if case == "single-term":
                comps = [_random_orthonormal(rng, d, 1) for d in cfg.dims]
                base = _orthonormal_decomposition(ProductSpace(cfg.dims),
                                                  [1.0], comps)
            else:
                base = _random_triortho(rng, cfg.dims,
                                        min(3, min(cfg.dims)))
            psi0 = densify(base.state)
            pert = non_triortho_perturb(base, eps, tolerances)
            dist_sq = distance(psi0, pert) ** 2
            s1, s2, s3 = reduced_spectra(pert, tolerances)
            mismatch = abs(s1[0] - s3[0])
            stayed_false = all(
                not triortho_necessary_test(
                    _perturbed_within(_rng(cfg.seed, 5000 + trial_id * 1000 + j),
                                      pert, 0.01), 1e-6, tolerances)
                for j in range(cfg.trials))
            records.append({
                "trial": trial_id, "kind": f"mismatch-{case}", "epsilon": eps,
                "distance_sq": dist_sq, "budget": 2.0 * eps,
                "r1_match_12": abs(s1[0] - s2[0]),
                "r1_gap_13": mismatch,
                "neighbourhood_stays_non_triortho": stayed_false,
                "pass": bool(dist_sq <= 2.0 * eps + 1e-12
                             and abs(s1[0] - s2[0]) <= 1e-9
                             and mismatch > 1e-6 and stayed_false),
            })
            trial_id += 1
    return _finish("isolation", cfg.as_dict(), records, tolerances)


# ---------------------------------------------------------------------------
# Closure of the triorthogonal set


def _rotation(generator_h, t: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(generator_h)
    return vecs @ np.diag(np.exp(-1j * t * vals)) @ vecs.conj().T


def run_closure_test(cfg: TrialConfig) -> CampaignReport:
    """A convergent sequence of triorthogonal states: the limit state's
    extracted decomposition must match the constructed limit, coefficients
    included, with the proof-style phase alignment exercised along the way."""
    _three_factors("closure", cfg.dims)
    tolerances = cfg.tolerances
    dims = cfg.dims
    rng = _rng(cfg.seed, 0)
    k = min(3, min(dims))
    limit_dec = _random_triortho(rng, dims, k)
    limit_dec = ordered_triortho(limit_dec, tolerances).decomposition
    limit_state = densify(limit_dec.state)
    mags_inf = np.abs(limit_dec.coefficients)
    phases_inf = limit_dec.coefficients / mags_inf
    base = _columns(limit_dec.state)
    gens = []
    for i in range(3):
        z = rng.standard_normal((dims[i], dims[i])) \
            + 1j * rng.standard_normal((dims[i], dims[i]))
        h = (z + z.conj().T) / 2.0
        gens.append(h / np.abs(np.linalg.eigvalsh(h)).max())
    drift = rng.uniform(-0.3, 0.3, k)
    phase_drift = rng.uniform(-0.3, 0.3, k)

    def member(n: int) -> TriDecomposition:
        t = 1.0 / n
        comps = [_rotation(gens[i], t) @ base[i] for i in range(3)]
        mags = mags_inf + drift * t
        mags = mags / np.linalg.norm(mags)
        coeffs = mags * phases_inf * np.exp(1j * phase_drift * t)
        return _orthonormal_decomposition(limit_dec.space, coeffs, comps)

    records = []
    prev_comp_dist = None
    steps = (10, 100, 1000, 10000)
    for trial, n in enumerate(steps):
        dn = member(n)
        psi_n = densify(dn.state)
        extracted = extract_triortho(psi_n, tolerances)
        ok_extract = isinstance(extracted, OrderedTriortho)
        equivalent = ok_extract and decompositions_equivalent(
            extracted.decomposition, dn, 1e-6, tolerances)
        dn_sorted = ordered_triortho(dn, tolerances).decomposition
        aligned = _columns(canonical_phase(
            dn_sorted, reference=limit_dec).state)
        comp_dist = max(
            float(np.linalg.norm(aligned[i][:, j] - base[i][:, j]))
            for j in range(k) for i in range(3))
        coeff_dist = float(np.max(np.abs(np.abs(dn_sorted.coefficients)
                                         - mags_inf)))
        monotone = prev_comp_dist is None or comp_dist < prev_comp_dist
        prev_comp_dist = comp_dist
        records.append({
            "trial": trial, "n": n,
            "extraction_ok": ok_extract,
            "equivalent_to_member": bool(equivalent),
            "component_distance": comp_dist,
            "coefficient_distance": coeff_dist,
            "distance_to_limit": distance(dn.state, limit_dec.state),
            "pass": bool(ok_extract and equivalent and monotone),
        })

    extracted_lim = extract_triortho(limit_state, tolerances)
    ok = isinstance(extracted_lim, OrderedTriortho)
    equivalent = ok and decompositions_equivalent(
        extracted_lim.decomposition, limit_dec, 1e-6, tolerances)
    spec1 = spectrum(partial_trace(limit_state, (0,)), tolerances).values[:k]
    coeff_gap = float(np.max(np.abs(np.sort(mags_inf)[::-1] - np.sqrt(spec1))))
    records.append({
        "trial": len(steps), "n": "limit",
        "extraction_ok": ok,
        "equivalent_to_limit": bool(equivalent),
        "coefficients_vs_spectrum": coeff_gap,
        "pass": bool(ok and equivalent and coeff_gap <= 1e-8),
    })
    return _finish("closure", cfg.as_dict(), records, tolerances,
                   {"coefficients_vs_spectrum": coeff_gap})
