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

import numpy as np

from .decomp import OrderedTriortho, TriCertificate, TriDecomposition, Variant
from .errors import SchemaError
from .states import DenseState, ProductSpace, ProductTerm, SumState

SCHEMA = "tridecomp/1"
REPORT_SCHEMA = "tridecomp-report/1"


def _c2j(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _j2c(v) -> complex:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise SchemaError(f"expected a [re, im] pair, got {v!r}")
    return complex(float(v[0]), float(v[1]))


def _factors_to_json(factors) -> list:
    return [[[int(i), _c2j(a)] for i, a in f] for f in factors]


def _factors_from_json(doc) -> tuple:
    if not isinstance(doc, list):
        raise SchemaError("factors must be a list")
    return tuple(tuple((int(i), _j2c(a)) for i, a in f) for f in doc)


def state_to_json(state, provenance: dict = None) -> dict:
    if isinstance(state, DenseState):
        doc = {
            "schema": SCHEMA,
            "dims": list(state.space.dims),
            "format": "dense",
            "amplitudes": [_c2j(z) for z in state.amplitudes],
            "normalized": bool(state.normalized),
        }
    elif isinstance(state, SumState):
        doc = {
            "schema": SCHEMA,
            "dims": list(state.space.dims),
            "format": "product_sum",
            "terms": [{"coeff": _c2j(t.coeff),
                       "factors": _factors_to_json(t.factors)}
                      for t in state.terms],
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
            amps = np.array([_j2c(v) for v in doc["amplitudes"]])
            return DenseState(space, amps,
                              normalized=doc.get("normalized"))
        if fmt == "product_sum":
            terms = tuple(ProductTerm(_j2c(t["coeff"]),
                                      _factors_from_json(t["factors"]))
                          for t in doc["terms"])
            return SumState(space, terms)
    except (KeyError, TypeError, ValueError) as exc:
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
        "terms": [{"coeff": _c2j(t.coeff),
                   "components": _factors_to_json(t.factors)}
                  for t in d.terms],
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
        terms = tuple(ProductTerm(_j2c(t["coeff"]),
                                  _factors_from_json(t["components"]))
                      for t in doc["terms"])
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
        return TriDecomposition(space, terms, Variant(doc["variant"]),
                                certificate=certificate)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed decomposition document: {exc}") from exc


def dump(doc: dict, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
