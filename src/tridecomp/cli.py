"""Command-line front end.

Exit codes separate invocation problems from mathematical failures so CI can
treat bound violations as defects:

* 0 - success, outputs written
* 1 - usage or input error (bad flags, malformed files, bad ranges)
* 2 - verification or bound failure; the failed condition goes to stderr

``_FLAGS`` declares each flag once; each command, generator and campaign
reads only the flags its table entry names, and any other flag exits 1.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

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
    TriDecomposition,
    ordered_triortho,
    schmidt,
    extract_triortho,
    verify_tridecomposition,
)
from .errors import PreconditionError, TridecompError, VerificationError
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
    dumps,
    load,
    state_from_json,
    state_to_json,
)
from .states import DenseState, ProductSpace, SumState, _dense_zeros


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract reserves 2 for
    mathematical failures, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _checked(convert, ok, message):
    """An argparse type: ``convert`` the text, then require ``ok`` of it."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(message)
    return parse


def _ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split(","))


def _flag(*options, **keywords):
    return options, keywords


_POSITIVE = _checked(int, lambda v: v >= 1, "must be a positive integer")
_TOLERANCE_HELP = {"li": "linear-independence floor",
                   "orth": "orthonormality slack",
                   "deg": "degeneracy grouping width"}

# Every flag, keyed by the attribute it parses into.  A command's table
# entry maps the names it reads to their defaults; _REQUIRED marks a flag
# that must be given.
_REQUIRED = object()
_FLAGS = {
    "infile": _flag("--in", help="input state or decomposition file"),
    "infile2": _flag("--in2", help="second input state"),
    "left": _flag("--left", type=_checked(_ints, bool, "bad factor indices"),
                  help="comma-separated factor indices of the left side"),
    "decomposition": _flag("--decomposition", help="decomposition file"),
    "state": _flag("--state", help="state file"),
    "ordered": _flag("--ordered", help="reference decomposition file"),
    "other": _flag("--other", help="neighbour decomposition file"),
    "match_epsilon": _flag("--epsilon", metavar="EPSILON", type=_checked(
        float, lambda v: 0.0 < v < 0.25, "epsilon must lie in (0, 1/4)")),
    "level": _flag("--level", type=_POSITIVE,
                   help="number of leading blocks to match (default: all)"),
    "theta": _flag("--theta", type=_checked(
        float, lambda v: 0.0 < v <= math.pi / 2.0,
        "theta must lie in (0, pi/2]")),
    "epsilon": _flag("--epsilon", type=_checked(
        float, lambda v: 0.0 < v < 1.0, "epsilon must lie in (0, 1)")),
    "dims": _flag("--dims", type=_checked(
        _ints, lambda d: 2 <= len(d) <= 4 and min(d) >= 2,
        "dims must be 2-4 comma-separated integers, each >= 2")),
    "size": _flag("--n1", type=_POSITIVE, help="witness size parameter"),
    "trials": _flag("--trials", type=_POSITIVE),
    "seed": _flag("--seed", type=int),
    "selector": _flag("--selector", help="stability campaign family",
                      choices=["all", "product-match", "component-match"]),
    "fmt": _flag("--format", choices=["json", "csv"]),
    **{f"tol_{name}": _flag(
        f"--tol-{name}", type=float,
        help=f"{text} (default {getattr(DEFAULT_TOLERANCES, name)!r})")
       for name, text in _TOLERANCE_HELP.items()},
    "out": _flag("-o", "--out", help="output path (else stdout)"),
}
_TOLERANCE_FLAGS = {f"tol_{name}": None for name in _TOLERANCE_HELP}


def _tolerances(args) -> Tolerances:
    given = {name: getattr(args, f"tol_{name}") for name in _TOLERANCE_HELP}
    return Tolerances(**{k: v for k, v in given.items() if v is not None})


def _emit(doc, args) -> int:
    """Write a JSON document, or text as it is, to ``--out`` or stdout."""
    text = doc if isinstance(doc, str) else dumps(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _document(value):
    """A builder's output as JSON: states and decompositions become their
    documents, dicts are mapped entry by entry and the rest is kept."""
    if isinstance(value, (DenseState, SumState)):
        return state_to_json(value)
    if isinstance(value, TriDecomposition):
        return decomposition_to_json(value)
    if isinstance(value, dict):
        return {key: _document(v) for key, v in value.items()}
    return value


def cmd_schmidt(args) -> int:
    state = state_from_json(load(args.infile))
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
    state = state_from_json(load(args.infile))
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
    state = state_from_json(load(args.state))
    cert = verify_tridecomposition(d, state, tolerances=_tolerances(args))
    code = _emit(cert.to_json(), args)
    if not cert.passed:
        print(f"verification failed: {cert.failed_condition}", file=sys.stderr)
        return 2
    return code


def _example31(args, tol, provenance):
    res = example31(args.theta, tol)
    return {
        "states": {"limit": res.psi, "phi_theta": res.phi_theta,
                   "psi_theta": res.psi_theta},
        "decompositions": {"phi_theta": res.phi_decomposition,
                           "psi_theta": res.psi_decomposition},
    }


def _example32(args, tol, provenance):
    res = example32(args.theta, tol)
    return {
        "weights": list(res.weights),
        "trace_norm_gap": res.trace_norm_gap,
        "cross_overlaps": res.cross_overlaps.tolist(),
        "cross_ceiling": 1.0 / math.sqrt(2.0),
    }


def _example33(args, tol, provenance):
    res = example33(args.theta, tol)
    return {
        "raw_coefficients": list(res.raw_coefficients),
        "states": {"psi_theta": res.psi_theta, "limit": res.limit},
        "decompositions": {"psi_theta": res.decomposition},
    }


def _pair(args, tol, provenance):
    if args.infile:
        psi = state_from_json(load(args.infile))
    else:
        space = ProductSpace(args.dims or (2, 2, 2))
        amps = _dense_zeros(space.dims)
        amps.flat[0] = 1.0  # |0...0>
        psi = DenseState(space, amps, normalized=True)
    pair = instability_pair(psi, args.epsilon, theta=args.theta,
                            tolerances=tol)
    provenance["theta"] = pair.theta
    provenance["truncation_size"] = pair.truncation_size
    return {
        "states": {"phi1": pair.phi1, "phi2": pair.phi2},
        "decompositions": {"phi1": pair.decomposition1,
                           "phi2": pair.decomposition2},
        "distances": list(pair.distances),
        "basis_overlap_min": pair.basis_overlap_min,
        "cross_overlap_max": pair.cross_overlap_max,
    }


def _mover(args, tol, provenance):
    s1, s2 = (state_from_json(load(p)) for p in (args.infile, args.infile2))
    mover = structure_mover(s1, s2, tol).mover
    return {
        "alpha": [mover.alpha.real, mover.alpha.imag],
        "beta": mover.beta,
        "identity": mover.identity,
        "trace_norm_minus_identity": mover.trace_norm_minus_identity(),
    }


def _perturb(args, tol, provenance):
    """Tilt a triorthogonal decomposition off the triorthogonal set."""
    d = decomposition_from_json(load(args.infile))
    return non_triortho_perturb(d, args.epsilon, tol)


# generator: (flags it reads with their defaults, builder).  A builder
# returns a state or the ordered fields of a bundle; the provenance records
# each flag with a default, and a builder may add to it.
_GENERATORS = {
    "example31": ({"theta": 0.3}, _example31),
    "example32": ({"theta": 0.3}, _example32),
    "example33": ({"theta": 0.3}, _example33),
    "pair": ({"epsilon": 0.7, "theta": None, "dims": None, "infile": None},
             _pair),
    "mover": ({"infile": _REQUIRED, "infile2": _REQUIRED}, _mover),
    "witness3": ({"size": 3, "dims": None}, lambda args, tol, _:
                 isolation_witness_3(args.size, args.dims)),
    "witness4": ({"size": 3, "dims": None}, lambda args, tol, _:
                 isolation_witness_4(args.size, args.dims)),
    "perturb": ({"epsilon": 0.1, "infile": _REQUIRED}, _perturb),
}


def cmd_construct(args) -> int:
    flags, builder = _GENERATORS[args.name]
    provenance = {"generator": args.name, **{
        name: getattr(args, name) for name, default in flags.items()
        if default not in (None, _REQUIRED)}}
    built = builder(args, _tolerances(args), provenance)
    if isinstance(built, dict):
        doc = {"schema": SCHEMA, "kind": "bundle", "provenance": provenance,
               **_document(built)}
    else:
        doc = state_to_json(built, provenance=provenance)
    return _emit(doc, args)


def cmd_match(args) -> int:
    tol = _tolerances(args)
    d_ref = decomposition_from_json(load(args.ordered))
    d_other = decomposition_from_json(load(args.other))
    ordered = ordered_triortho(d_ref, tol)
    level = args.level if args.level is not None else ordered.nblocks
    report = match_components(ordered, d_other, level, args.match_epsilon,
                              tol)
    code = _emit(report.to_json(), args)
    if not report.all_bounds_hold:
        print("matching bounds violated", file=sys.stderr)
        return 2
    return code


# campaign: (flags it reads with their defaults, runner).  Every runner
# takes a TrialConfig, so a flag a campaign does not read keeps the
# TrialConfig default in its report's config.
_CAMPAIGNS = {
    "instability": ({}, lambda cfg: run_instability_sweep(cfg.tolerances)),
    "stability": ({"trials": 100, "seed": 0, "dims": (6, 6, 6),
                   "selector": "all"}, run_stability_campaign),
    "isolation": ({"trials": 100, "seed": 0, "dims": (4, 4, 4)},
                  run_isolation_scan),
    "closure": ({"seed": 0, "dims": (4, 4, 4)}, run_closure_test),
}


def cmd_campaign(args) -> int:
    flags, runner = _CAMPAIGNS[args.name]
    params = {name: getattr(args, name) for name in flags}
    report = runner(TrialConfig(tolerances=_tolerances(args), **params))
    _emit(report.to_csv() if args.fmt == "csv" else report.to_json(), args)
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


# command: (help, flags it reads with their defaults, handler)
_COMMANDS = {
    "schmidt": ("Schmidt decomposition across a bipartition",
                {"infile": _REQUIRED, "left": (0,), **_TOLERANCE_FLAGS},
                cmd_schmidt),
    "extract": ("extract a triorthogonal decomposition",
                {"infile": _REQUIRED, **_TOLERANCE_FLAGS}, cmd_extract),
    "verify": ("verify a decomposition against a state",
               {"decomposition": _REQUIRED, "state": _REQUIRED,
                **_TOLERANCE_FLAGS}, cmd_verify),
    "match": ("match two orthonormal decompositions",
              {"ordered": _REQUIRED, "other": _REQUIRED,
               "match_epsilon": _REQUIRED, "level": None,
               **_TOLERANCE_FLAGS}, cmd_match),
    "info": ("print versions, tolerances, and schemas", {}, cmd_info),
}
# command: (help, its subcommands' table, flags they all read, handler)
_GROUPS = {
    "construct": ("run a named generator", _GENERATORS, _TOLERANCE_FLAGS,
                  cmd_construct),
    "campaign": ("run a seeded verification campaign", _CAMPAIGNS,
                 {"fmt": "json", **_TOLERANCE_FLAGS}, cmd_campaign),
}


def _leaf(sub, name, flags, func, help=None):
    parser = sub.add_parser(name, help=help)
    for flag, default in {**flags, "out": None}.items():
        options, spec = _FLAGS[flag]
        parser.add_argument(*options, dest=flag, default=default,
                            required=default is _REQUIRED, **spec)
    parser.set_defaults(func=func, leaf=parser)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tridecomp",
                     description="Decomposition analysis for multipartite "
                                 "pure states")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name, (text, flags, func) in _COMMANDS.items():
        _leaf(sub, name, flags, func, help=text)
    for name, (text, table, shared, func) in _GROUPS.items():
        group = sub.add_parser(name, help=text).add_subparsers(
            dest="name", required=True, parser_class=_Parser)
        for leaf, (flags, _) in table.items():
            _leaf(group, leaf, {**flags, **shared}, func)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``main``'s parser, built on first use and shared by later calls in
    the process; ``main`` only parses with it, which leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args, extra = _parser().parse_known_args(argv)
    if extra:  # reported by the command that did not read them
        args.leaf.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except (TridecompError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (VerificationError,
                                     PreconditionError)) else 1


if __name__ == "__main__":
    sys.exit(main())
