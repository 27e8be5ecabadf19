"""Versioned JSON serialization for states and decompositions.

State schema (``"schema": "tridecomp/1"``):

* dense:        {"dims": [d1, ...], "format": "dense",
                 "amplitudes": [[re, im], ...]}   (row-major multi-index)
* product_sum:  {"dims": [d1, ...], "format": "product_sum",
                 "terms": [{"coeff": [re, im],
                            "factors": [[[idx, [re, im]], ...], ...]}]}

Decompositions mirror the state schema with variant, certificate, and
tolerance echo fields.  Documents may carry a free-form ``provenance`` block
naming the generator and its parameters.

Every document is written by one writer, ``dumps``: compact JSON with no
whitespace between tokens, then a newline.  Readers accept any whitespace,
so indented files load unchanged.  Product-sum documents are read into and
written from a state's arrays (``SumState.rows``) without building a
``ProductTerm``.

A certificate's ``li_method`` gives, per factor, how its entry of
``min_singular_values`` was obtained: ``"svd"`` is the exact smallest
singular value of the component matrix, while ``"private_support"`` is a
lower bound on it, min_k ||p_k|| over the parts of the components on basis
indices no other component touches.  Either way the entry exceeding the
``li`` tolerance certifies independence.  The field is additive under
``tridecomp/1``; documents without it are read as ``"svd"`` throughout.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .decomp import OrderedTriortho, TriCertificate, TriDecomposition, Variant
from .errors import DimensionMismatchError, SchemaError
from .states import DenseState, ProductSpace, SumState

SCHEMA = "tridecomp/1"
REPORT_SCHEMA = "tridecomp-report/1"


def _pairs(z: np.ndarray) -> list:
    """[[re, im], ...] for a complex vector."""
    z = np.ascontiguousarray(z, dtype=np.complex128)
    return z.view(np.float64).reshape(-1, 2).tolist()


def _complex_array(pairs) -> np.ndarray:
    """Complex vector from [[re, im], ...]; every item must be a pair."""
    if len(pairs) == 0:
        return np.zeros(0, dtype=np.complex128)
    arr = np.array(pairs, dtype=np.float64)
    if arr.shape != (len(pairs), 2):
        raise SchemaError(f"expected [re, im] pairs, got shape {arr.shape}")
    return arr.view(np.complex128).ravel()


def _terms_to_json(state: SumState, key: str) -> list:
    factors = []
    for indptr, indices, data in state.rows:
        entries = list(map(list, zip(indices.tolist(), _pairs(data))))
        ends = indptr.tolist()
        factors.append([entries[lo:hi] for lo, hi in zip(ends, ends[1:])])
    return [{"coeff": c, key: list(f)}
            for c, f in zip(_pairs(state.coeffs), zip(*factors))]


def _terms_from_json(space: ProductSpace, terms, key: str) -> SumState:
    """Flatten the nested term lists into CSR rows and build the state."""
    if not isinstance(terms, list):
        raise SchemaError("terms must be a list")
    per_term = [t[key] for t in terms]
    for facs in per_term:
        if not isinstance(facs, list):
            raise SchemaError(f"{key} must be a list")
        if len(facs) != space.nfactors:
            raise DimensionMismatchError(
                "term factor count does not match the space")
    rows = []
    for i in range(space.nfactors):
        facs = [f[i] for f in per_term]
        entries = list(chain.from_iterable(facs))
        if set(map(len, entries)) - {2}:
            raise SchemaError("factor entries must be [index, [re, im]] pairs")
        idx, amps = zip(*entries) if entries else ((), ())
        rows.append((np.cumsum([0] + [len(f) for f in facs]),
                     np.array(idx, dtype=np.intp), _complex_array(amps)))
    return SumState.from_rows(space, _complex_array([t["coeff"] for t in terms]),
                              rows)


def state_to_json(state, provenance: dict = None) -> dict:
    if isinstance(state, DenseState):
        doc = {
            "schema": SCHEMA,
            "dims": list(state.space.dims),
            "format": "dense",
            "amplitudes": _pairs(state.amplitudes),
            "normalized": bool(state.normalized),
        }
    elif isinstance(state, SumState):
        doc = {
            "schema": SCHEMA,
            "dims": list(state.space.dims),
            "format": "product_sum",
            "terms": _terms_to_json(state, "factors"),
        }
    else:
        raise SchemaError(f"cannot serialize {type(state).__name__}")
    if provenance:
        doc["provenance"] = provenance
    return doc


def state_from_json(doc):
    if not isinstance(doc, dict):
        raise SchemaError("state document must be an object")
    if doc.get("schema") != SCHEMA:
        raise SchemaError(f"unsupported schema {doc.get('schema')!r}; "
                          f"expected {SCHEMA!r}")
    try:
        space = ProductSpace(tuple(int(d) for d in doc["dims"]))
        fmt = doc["format"]
        if fmt == "dense":
            return DenseState(space, _complex_array(doc["amplitudes"]),
                              normalized=doc.get("normalized"))
        if fmt == "product_sum":
            return _terms_from_json(space, doc["terms"], "factors")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed state document: {exc}") from exc
    raise SchemaError(f"unknown state format {doc.get('format')!r}")


def decomposition_to_json(d, provenance: dict = None) -> dict:
    blocks = None
    if isinstance(d, OrderedTriortho):
        blocks = [{"magnitude": b.magnitude, "indices": list(b.indices)}
                  for b in d.blocks]
        d = d.decomposition
    if not isinstance(d, TriDecomposition):
        raise SchemaError(f"cannot serialize {type(d).__name__}")
    doc = {
        "schema": SCHEMA,
        "kind": "tridecomposition",
        "dims": list(d.space.dims),
        "variant": d.variant.value,
        "terms": _terms_to_json(d.to_sum_state(), "components"),
        "certificate": d.certificate.to_json() if d.certificate else None,
        "tolerances": (d.certificate.tolerances if d.certificate else None),
    }
    if blocks is not None:
        doc["blocks"] = blocks
    if provenance:
        doc["provenance"] = provenance
    return doc


def decomposition_from_json(doc) -> TriDecomposition:
    if not isinstance(doc, dict):
        raise SchemaError("decomposition document must be an object")
    if doc.get("schema") != SCHEMA or doc.get("kind") != "tridecomposition":
        raise SchemaError("not a tridecomposition document")
    try:
        space = ProductSpace(tuple(int(x) for x in doc["dims"]))
        state = _terms_from_json(space, doc["terms"], "components")
        cert = doc.get("certificate")
        certificate = TriCertificate(
            passed=cert["passed"],
            variant=cert["variant"],
            failed_condition=cert["failed_condition"],
            reconstruction_error=cert["reconstruction_error"],
            min_coefficient=cert["min_coefficient"],
            min_singular_values=tuple(cert["min_singular_values"]),
            li_method=tuple(cert.get("li_method")
                            or ("svd",) * len(cert["min_singular_values"])),
            max_offdiag_overlaps=tuple(cert["max_offdiag_overlaps"]),
            max_pairwise_overlaps=tuple(cert["max_pairwise_overlaps"]),
            li_factors=(tuple(cert["li_factors"])
                        if cert.get("li_factors") else None),
            tolerances=dict(cert["tolerances"]),
        ) if cert else None
        return TriDecomposition(space, state, Variant(doc["variant"]),
                                certificate=certificate)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed decomposition document: {exc}") from exc


def dumps(doc: dict) -> str:
    """The document writer: compact JSON and a newline.

    Documents are trees of fresh lists and dicts, so the encoder's cycle
    check, a lookup per container, is skipped.
    """
    return json.dumps(doc, separators=(",", ":"), check_circular=False) + "\n"


def dump(doc: dict, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
