"""The benchmark's workloads: seeded inputs, a fixed rotation of operations,
and the check of every output.

Each operation is a callable that does one user-level job through the public
API and returns the list of checks its output failed (empty when correct).
The library receives only the states generated here from the seed.
Import this module only after ``run.py`` has put the checkout's ``src`` on
the path and fixed the BLAS thread count.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import tridecomp as td
from tridecomp import cli, serialize
from tridecomp.decomp import Variant
from tridecomp.experiments import TrialConfig


@dataclass(frozen=True)
class Op:
    label: str                  # operation class, e.g. "eps=0.7"
    run: Callable[[], list]     # does the work, returns failed check names


class Steps:
    """One operation made of labelled steps run in turn.

    Used where single steps are short and unlike each other: on a shared
    two-core machine a step of a second or two scatters by +-25% from one run
    of it to the next, and a median taken across unlike steps falls between
    them.  The operation as a whole averages that out; each step's times are
    kept in ``times`` for the detail line.
    """

    def __init__(self, steps):
        self.steps = steps  # [(label, callable returning failed checks)]
        self.times = {label: [] for label, _ in steps}

    def __call__(self) -> list:
        failed = []
        for label, step in self.steps:
            t0 = time.perf_counter()
            failed += [f"{label}: {f}" for f in step()]
            self.times[label].append(time.perf_counter() - t0)
        return failed


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _unit(rng, n: int) -> np.ndarray:
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


class Pair:
    """``construct pair -o`` followed by ``verify``, in one process.

    One operation runs the steps at every epsilon in turn.
    """

    name = "pair"
    epsilons = (0.9, 0.8, 0.7)  # 125, 343 and 729 flat-basis terms

    def __init__(self, seed: int, workdir: str):
        self.psi = td.DenseState(td.ProductSpace((2, 2, 2)),
                                 _unit(_rng(seed, 1), 8), normalized=True)
        self.state_path = os.path.join(workdir, "phi2.json")
        self.dec_path = os.path.join(workdir, "phi2-decomposition.json")
        self.cert_path = os.path.join(workdir, "certificate.json")
        self.steps = Steps([(f"eps={eps}", lambda eps=eps: self._op(eps))
                            for eps in self.epsilons])
        self.rotation = [Op("eps=0.9,0.8,0.7", self.steps)]
        # the first instability_pair call in a process is slower than later
        # ones; the cheapest step pays for it
        self.warmup = Op("eps=0.9", lambda: self._op(0.9))

    def _op(self, eps: float) -> list:
        pair = td.instability_pair(self.psi, eps)
        mover = td.structure_mover(pair.phi1, pair.phi2).mover
        tn = mover.trace_norm_minus_identity()
        serialize.dump(serialize.state_to_json(pair.phi2), self.state_path)
        serialize.dump(serialize.decomposition_to_json(pair.decomposition2),
                       self.dec_path)
        code = cli.main(["verify", "--decomposition", self.dec_path,
                         "--state", self.state_path, "-o", self.cert_path])

        failed = []
        if not (pair.decomposition1.certificate.passed
                and pair.decomposition2.certificate.passed):
            failed.append("certificates")
        if not max(pair.distances) < eps:
            failed.append("distance < eps")
        if not pair.basis_overlap_min > 1.0 - eps:
            failed.append("basis overlap > 1 - eps")
        if not pair.cross_overlap_max < eps:
            failed.append("cross overlap < eps")
        dist = math.sqrt(max(2.0 - 2.0 * td.inner(pair.phi1, pair.phi2).real,
                             0.0))
        if not abs(tn - 2.0 * dist) <= 1e-8:
            failed.append("trace norm = 2 ||phi1 - phi2||")
        if code != 0 or serialize.load(self.cert_path).get("passed") is not True:
            failed.append(f"cli verify (exit {code})")
        return failed


def _triortho(rng, d: int, k: int, tie: bool):
    """Random orthonormal k-term decomposition on d^3 and its dense state.

    Coefficient magnitudes fall by a factor drawn from [1.3, 1.7] per term,
    far above the degeneracy width; ``tie`` makes the leading two bitwise
    equal, which sends extraction through its degenerate-block resolution.
    """
    mags = np.cumprod(np.r_[1.0, 1.0 / rng.uniform(1.3, 1.7, k - 1)])
    if tie:
        mags[1] = mags[0]
    mags /= np.linalg.norm(mags)
    coeffs = mags * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, k))
    comps = []
    for _ in range(3):
        z = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
        comps.append(np.linalg.qr(z)[0])
    space = td.ProductSpace((d, d, d))
    terms = tuple(td.ProductTerm(coeffs[j], tuple(td.sparse_vector(c[:, j])
                                                  for c in comps))
                  for j in range(k))
    dec = td.TriDecomposition(space, terms, Variant.ORTHONORMAL)
    amps = np.einsum("k,ak,bk,ck->abc", coeffs, *comps).ravel()
    return dec, td.DenseState(space, amps, normalized=True)


class Extract:
    """Dense extraction over a fixed rotation of four verdict classes."""

    name = "extract"
    sizes = (64, 96)
    terms = 8
    perturb_eps = 0.1

    def __init__(self, seed: int, workdir: str):
        self.rotation = []
        for stream, d in enumerate(self.sizes):
            rng = _rng(seed, 10 + stream)
            dec, state = _triortho(rng, d, self.terms, tie=False)
            dec_tie, state_tie = _triortho(rng, d, self.terms, tie=True)
            haar = td.DenseState(td.ProductSpace((d, d, d)), _unit(rng, d ** 3),
                                 normalized=True)
            self.rotation += [
                Op(f"{d}^3 triortho", lambda s=state, g=dec: self._op(s, g)),
                Op(f"{d}^3 tie", lambda s=state_tie, g=dec_tie: self._op(s, g)),
                Op(f"{d}^3 haar", lambda s=haar: self._op(s, None)),
                Op(f"{d}^3 perturbed", lambda g=dec: self._op(
                    td.non_triortho_perturb(g, self.perturb_eps), None)),
            ]
        self.warmup = self.rotation[0]

    @staticmethod
    def _op(state, generator) -> list:
        """Extract; ``generator`` is the expected decomposition, or None when
        the state must be certified not triorthogonal."""
        result = td.extract_triortho(state)
        if generator is None:
            return ([] if isinstance(result, td.NotTriorthogonal)
                    else [f"verdict {type(result).__name__}"])
        if not isinstance(result, td.OrderedTriortho):
            return [f"verdict {type(result).__name__}"]
        if not td.decompositions_equivalent(result.decomposition, generator,
                                            1e-6):
            return ["equivalent to generator"]
        return []


def report_digest(report) -> str:
    """SHA-256 of a campaign report's canonical JSON."""
    text = json.dumps(report.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Campaigns:
    """The seeded campaigns at CLI-default dims and trial count; one
    operation runs the four in turn."""

    name = "campaigns"
    trials = 100

    def __init__(self, seed: int, workdir: str):
        self.digests = {}  # campaign -> first digest seen at this seed
        stability = TrialConfig(seed=seed, trials=self.trials, dims=(6, 6, 6),
                                selector="all")
        small = TrialConfig(seed=seed, trials=self.trials, dims=(4, 4, 4))
        runs = (
            ("stability", lambda: td.run_stability_campaign(stability)),
            ("isolation", lambda: td.run_isolation_scan(small)),
            ("closure", lambda: td.run_closure_test(small)),
            ("instability", lambda: td.run_instability_sweep()),
        )
        steps = [(label, lambda label=label, run=run: self._op(label, run))
                 for label, run in runs]
        label = ",".join(label for label, _ in runs)
        self.steps = Steps(steps)
        self.rotation = [Op(label, self.steps)]
        self.warmup = Op(label, Steps(steps))  # keeps its times apart

    def _op(self, label: str, campaign) -> list:
        report = campaign()
        failed = []
        if report.pass_rate != 1.0:
            failed.append(f"pass_rate {report.pass_rate}")
        digest = report_digest(report)
        if self.digests.setdefault(label, digest) != digest:
            failed.append("report digest differs from the first at this seed")
        return failed


WORKLOADS = {w.name: w for w in (Pair, Extract, Campaigns)}
