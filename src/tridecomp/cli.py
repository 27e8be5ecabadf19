"""Command-line front end.

Exit codes separate invocation problems from mathematical failures so CI can
treat bound violations as defects:

* 0 - success, outputs written
* 1 - usage or input error (bad flags, malformed files, bad ranges)
* 2 - verification or bound failure; the failed condition goes to stderr
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import __version__
from .config import DEFAULT_TOLERANCES, DENSIFY_CEILING, Tolerances
from .constructions import (
    example31,
    example32,
    example33,
    instability_pair,
    isolation_witness_3,
    isolation_witness_4,
    non_triortho_perturb,
    structure_mover,
)
from .decomp import (
    NotTriorthogonal,
    OrderedTriortho,
    ordered_triortho,
    schmidt,
    extract_triortho,
    verify_tridecomposition,
)
from .errors import (
    PreconditionError,
    SchemaError,
    TridecompError,
    VerificationError,
)
from .experiments import (
    TrialConfig,
    run_closure_test,
    run_instability_sweep,
    run_isolation_scan,
    run_stability_campaign,
)
from .matching import match_components
from .serialize import (
    READS,
    SCHEMA,
    decomposition_from_json,
    decomposition_to_json,
    dump,
    dumps,
    load,
    state_from_json,
    state_to_json,
)
from .states import DenseState, ProductSpace, densify, norm


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract reserves 2 for
    mathematical failures, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _dims(text: str) -> tuple:
    try:
        dims = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dims {text!r}")
    if not 2 <= len(dims) <= 4 or any(d < 2 for d in dims):
        raise argparse.ArgumentTypeError(
            "dims must be 2-4 comma-separated integers, each >= 2")
    return dims


def _theta(text: str) -> float:
    val = float(text)
    if not 0.0 < val <= math.pi / 2.0:
        raise argparse.ArgumentTypeError("theta must lie in (0, pi/2]")
    return val


def _epsilon(text: str) -> float:
    val = float(text)
    if not 0.0 < val < 1.0:
        raise argparse.ArgumentTypeError("epsilon must lie in (0, 1)")
    return val


def _match_epsilon(text: str) -> float:
    val = float(text)
    if not 0.0 < val < 0.25:
        raise argparse.ArgumentTypeError("epsilon must lie in (0, 1/4)")
    return val


def _positive_int(text: str) -> int:
    val = int(text)
    if val < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return val


def _index_list(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad factor indices {text!r}")


def _tolerances(args) -> Tolerances:
    flags = {name: getattr(args, f"tol_{name}", None)
             for name in ("li", "orth", "deg")}
    return Tolerances(**{name: value for name, value in flags.items()
                         if value is not None})


def _add_tolerance_flags(p):
    p.add_argument("--tol-li", type=float, default=None,
                   help="linear-independence floor (default 1e-8)")
    p.add_argument("--tol-orth", type=float, default=None,
                   help="orthonormality slack (default 1e-8)")
    p.add_argument("--tol-deg", type=float, default=None,
                   help="degeneracy grouping width (default 1e-7)")


def _add_output_flag(p):
    p.add_argument("-o", "--out", default=None, help="output path (else stdout)")


def _emit(doc: dict, args) -> int:
    if getattr(args, "out", None):
        dump(doc, args.out)
    else:
        sys.stdout.write(dumps(doc))
    return 0


def _load_state(path: str):
    return state_from_json(load(path))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tridecomp",
                     description="Decomposition analysis for multipartite "
                                 "pure states")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("schmidt", help="Schmidt decomposition across a "
                                       "bipartition")
    p.add_argument("--in", dest="infile", required=True, help="state file")
    p.add_argument("--left", type=_index_list, default=(0,),
                   help="comma-separated factor indices of the left side")
    _add_tolerance_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_schmidt)

    p = sub.add_parser("extract", help="extract a triorthogonal decomposition")
    p.add_argument("--in", dest="infile", required=True, help="state file")
    _add_tolerance_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("verify", help="verify a decomposition against a state")
    p.add_argument("--decomposition", required=True)
    p.add_argument("--state", required=True)
    _add_tolerance_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", help="run a named generator")
    p.add_argument("generator",
                   choices=["example31", "example32", "example33", "pair",
                            "mover", "witness3", "witness4", "perturb"])
    p.add_argument("--theta", type=_theta, default=None)
    p.add_argument("--epsilon", type=_epsilon, default=None)
    p.add_argument("--dims", type=_dims, default=None)
    p.add_argument("--n1", type=_positive_int, default=3,
                   help="witness size parameter")
    p.add_argument("--in", dest="infile", default=None,
                   help="input state/decomposition for pair, mover, perturb")
    p.add_argument("--in2", dest="infile2", default=None,
                   help="second input state for mover")
    _add_tolerance_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("match", help="match two orthonormal decompositions")
    p.add_argument("--ordered", required=True,
                   help="decomposition file for the reference state")
    p.add_argument("--other", required=True,
                   help="decomposition file for the neighbour state")
    p.add_argument("--epsilon", type=_match_epsilon, required=True)
    p.add_argument("--level", type=_positive_int, default=None,
                   help="number of leading blocks to match (default: all)")
    _add_tolerance_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("campaign", help="run a seeded verification campaign")
    p.add_argument("name",
                   choices=["instability", "stability", "isolation",
                            "closure"])
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", type=_dims, default=None)
    p.add_argument("--selector", default="all",
                   choices=["all", "product-match", "component-match"],
                   help="stability campaign family")
    p.add_argument("--format", dest="fmt", default="json",
                   choices=["json", "csv"])
    _add_tolerance_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("info", help="print versions, tolerances, and schemas")
    _add_output_flag(p)
    p.set_defaults(func=cmd_info)
    return parser


def cmd_schmidt(args) -> int:
    state = _load_state(args.infile)
    sd = schmidt(state, args.left, tolerances=_tolerances(args))
    doc = {
        "schema": SCHEMA,
        "kind": "schmidt",
        "dims": list(sd.space.dims),
        "bipartition": [list(sd.bipartition[0]), list(sd.bipartition[1])],
        "coefficients": [float(c) for c in sd.coefficients],
        "left_vectors": [[[z.real, z.imag] for z in col]
                         for col in sd.left_vectors.T],
        "right_vectors": [[[z.real, z.imag] for z in col]
                          for col in sd.right_vectors.T],
    }
    return _emit(doc, args)


def cmd_extract(args) -> int:
    state = _load_state(args.infile)
    result = extract_triortho(state, tolerances=_tolerances(args))
    if isinstance(result, OrderedTriortho):
        doc = decomposition_to_json(result)
        doc["result"] = "triorthogonal"
    else:
        kind = ("not_triorthogonal" if isinstance(result, NotTriorthogonal)
                else "undetermined")
        doc = {"schema": SCHEMA, "kind": "extraction-verdict",
               "result": kind, "reason": result.reason}
    return _emit(doc, args)


def cmd_verify(args) -> int:
    d = decomposition_from_json(load(args.decomposition))
    state = _load_state(args.state)
    cert = verify_tridecomposition(d, state, tolerances=_tolerances(args))
    code = _emit(cert.to_json(), args)
    if not cert.passed:
        print(f"verification failed: {cert.failed_condition}", file=sys.stderr)
        return 2
    return code


def _default_product_state(dims) -> DenseState:
    space = ProductSpace(dims or (2, 2, 2))
    amps = np.zeros(space.dim, dtype=np.complex128)
    amps[0] = 1.0
    return DenseState(space, amps, normalized=True)


def cmd_construct(args) -> int:
    tol = _tolerances(args)
    gen = args.generator
    provenance = {"generator": gen}
    if gen in ("example31", "example32", "example33"):
        theta = args.theta if args.theta is not None else 0.3
        provenance["theta"] = theta
        if gen == "example31":
            res = example31(theta, tol)
            doc = {
                "schema": SCHEMA, "kind": "bundle", "provenance": provenance,
                "states": {
                    "limit": state_to_json(res.psi),
                    "phi_theta": state_to_json(res.phi_theta),
                    "psi_theta": state_to_json(res.psi_theta),
                },
                "decompositions": {
                    "phi_theta": decomposition_to_json(res.phi_decomposition),
                    "psi_theta": decomposition_to_json(res.psi_decomposition),
                },
            }
        elif gen == "example32":
            res = example32(theta, tol)
            doc = {
                "schema": SCHEMA, "kind": "bundle", "provenance": provenance,
                "weights": list(res.weights),
                "trace_norm_gap": res.trace_norm_gap,
                "cross_overlaps": res.cross_overlaps.tolist(),
                "cross_ceiling": 1.0 / math.sqrt(2.0),
            }
        else:
            res = example33(theta, tol)
            doc = {
                "schema": SCHEMA, "kind": "bundle", "provenance": provenance,
                "raw_coefficients": list(res.raw_coefficients),
                "states": {
                    "psi_theta": state_to_json(res.psi_theta),
                    "limit": state_to_json(res.limit),
                },
                "decompositions": {
                    "psi_theta": decomposition_to_json(res.decomposition),
                },
            }
        return _emit(doc, args)
    if gen == "pair":
        epsilon = args.epsilon if args.epsilon is not None else 0.7
        provenance["epsilon"] = epsilon
        psi = (_load_state(args.infile) if args.infile
               else _default_product_state(args.dims))
        pair = instability_pair(psi, epsilon, theta=args.theta,
                                tolerances=tol)
        provenance["theta"] = pair.theta
        provenance["truncation_size"] = pair.truncation_size
        doc = {
            "schema": SCHEMA, "kind": "bundle", "provenance": provenance,
            "states": {
                "phi1": state_to_json(pair.phi1),
                "phi2": state_to_json(pair.phi2),
            },
            "decompositions": {
                "phi1": decomposition_to_json(pair.decomposition1),
                "phi2": decomposition_to_json(pair.decomposition2),
            },
            "distances": list(pair.distances),
            "basis_overlap_min": pair.basis_overlap_min,
            "cross_overlap_max": pair.cross_overlap_max,
        }
        return _emit(doc, args)
    if gen == "mover":
        if not args.infile or not args.infile2:
            raise SchemaError("mover needs --in and --in2 state files")
        s1, s2 = _load_state(args.infile), _load_state(args.infile2)
        pair = structure_mover(s1, s2, tol)
        alpha = pair.mover.alpha
        doc = {
            "schema": SCHEMA, "kind": "bundle", "provenance": provenance,
            "alpha": [alpha.real, alpha.imag],
            "beta": pair.mover.beta,
            "identity": pair.mover.identity,
            "trace_norm_minus_identity": pair.mover.trace_norm_minus_identity(),
        }
        return _emit(doc, args)
    if gen in ("witness3", "witness4"):
        provenance["size"] = args.n1
        state = (isolation_witness_3(args.n1, args.dims) if gen == "witness3"
                 else isolation_witness_4(args.n1, args.dims))
        doc = state_to_json(state, provenance=provenance)
        return _emit(doc, args)
    # perturb: tilt a triorthogonal decomposition off the triorthogonal set
    if not args.infile:
        raise SchemaError("perturb needs --in with a decomposition file")
    epsilon = args.epsilon if args.epsilon is not None else 0.1
    provenance["epsilon"] = epsilon
    d = decomposition_from_json(load(args.infile))
    state = non_triortho_perturb(d, epsilon, tol)
    return _emit(state_to_json(state, provenance=provenance), args)


def cmd_match(args) -> int:
    tol = _tolerances(args)
    d_ref = decomposition_from_json(load(args.ordered))
    d_other = decomposition_from_json(load(args.other))
    ordered = ordered_triortho(d_ref, tol.deg)
    level = args.level if args.level is not None else ordered.nblocks
    report = match_components(ordered, d_other, level, args.epsilon, tol)
    code = _emit(report.to_json(), args)
    if not report.all_bounds_hold:
        print("matching bounds violated", file=sys.stderr)
        return 2
    return code


def cmd_campaign(args) -> int:
    tol = _tolerances(args)
    if args.name == "instability":
        report = run_instability_sweep(tolerances=tol)
    else:
        dims = args.dims or ((4, 4, 4) if args.name in ("isolation", "closure")
                             else (6, 6, 6))
        cfg = TrialConfig(seed=args.seed, trials=args.trials, dims=dims,
                          selector=args.selector, tolerances=tol)
        runner = {"stability": run_stability_campaign,
                  "isolation": run_isolation_scan,
                  "closure": run_closure_test}[args.name]
        report = runner(cfg)
    if args.fmt == "csv":
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(report.to_csv())
        else:
            sys.stdout.write(report.to_csv())
    else:
        _emit(report.to_json(), args)
    if report.pass_rate < 1.0:
        failed = [r for r in report.records if not r.get("pass", True)]
        print(f"campaign failed: {len(failed)} trial(s) violated a bound",
              file=sys.stderr)
        return 2
    return 0


def cmd_info(args) -> int:
    doc = {
        "version": __version__,
        "state_schema": SCHEMA,
        "reads": list(READS),
        "report_schema": "tridecomp-report/1",
        "tolerances": DEFAULT_TOLERANCES.as_dict(),
        "densify_ceiling": DENSIFY_CEILING,
        "log_base": "natural log",
        "precision": "complex128 (IEEE-754 binary64)",
    }
    return _emit(doc, args)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``main``'s parser, built on first use and shared by later calls in
    the process; ``main`` only parses with it, which leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (VerificationError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TridecompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
