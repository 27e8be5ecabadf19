"""Versioned JSON serialization for states and decompositions.

Documents are written under ``"schema": "tridecomp/2"``, in which every
numeric array is one string: the base64 of its little-endian bytes, complex
values as ``<c16`` and integers as ``<i8``.

* dense:  {"dims": [d1, ...], "format": "dense", "amplitudes": "<c16>",
           "normalized": bool}   (row-major multi-index)
* rows:   {"dims": [d1, ...], "format": "rows", "coeffs": "<c16>",
           "rows": [{"indptr": "<i8>", "indices": "<i8>", "data": "<c16>"},
                    ...]}   (one CSR object per factor, as ``SumState.rows``)

Reading decodes each string with ``b64decode(validate=True)`` and
``np.frombuffer`` and builds the state through ``SumState.from_rows`` or
``DenseState``, so an untrusted document passes every check they make.
``tridecomp/1`` documents are still read: ``dense`` with ``[re, im]``
amplitude pairs, and ``product_sum``::

    {"dims": [d1, ...], "format": "product_sum",
     "terms": [{"coeff": [re, im], "factors": [[[idx, [re, im]], ...], ...]}]}

Decompositions carry the same fields as a state (``components`` in place of
``factors`` under ``tridecomp/1``) with variant, certificate, and tolerance
echo fields.  Documents may carry a free-form ``provenance`` block naming the
generator and its parameters.

Every document is written by one writer, ``dumps``: compact JSON with no
whitespace between tokens, then a newline.  Readers accept any whitespace,
so indented files load unchanged.

A certificate's ``li_method`` gives, per factor, how its entry of
``min_singular_values`` was obtained: ``"svd"`` is the exact smallest
singular value of the component matrix, while ``"private_support"`` is a
lower bound on it, min_k ||p_k|| over the parts of the components on basis
indices no other component touches.  Either way the entry exceeding the
``li`` tolerance certifies independence.  Documents without the field are
read as ``"svd"`` throughout.
"""

from __future__ import annotations

import base64
import json
from dataclasses import fields
from itertools import chain

import numpy as np

from .decomp import OrderedTriortho, TriCertificate, TriDecomposition, Variant
from .errors import DimensionMismatchError, SchemaError
from .states import DenseState, ProductSpace, SumState

SCHEMA = "tridecomp/2"
READS = ("tridecomp/1", SCHEMA)
REPORT_SCHEMA = "tridecomp-report/1"
COMPLEX = "<c16"
INDEX = "<i8"


def _b64(arr: np.ndarray, dtype: str) -> str:
    return base64.b64encode(np.asarray(arr, dtype=dtype).tobytes()).decode()


def _from_b64(text, dtype: str) -> np.ndarray:
    """The array a ``_b64`` string holds; any other string is a SchemaError."""
    if not isinstance(text, str):
        raise SchemaError(f"expected a base64 string of {dtype}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise SchemaError(f"bad base64 array: {exc}") from exc
    size = np.dtype(dtype).itemsize
    if len(raw) % size:
        raise SchemaError(f"{len(raw)} bytes is not a whole number of "
                          f"{size}-byte {dtype} items")
    return np.frombuffer(raw, dtype=dtype)


def _rows_to_json(state: SumState) -> dict:
    return {"coeffs": _b64(state.coeffs, COMPLEX),
            "rows": [{"indptr": _b64(indptr, INDEX),
                      "indices": _b64(indices, INDEX),
                      "data": _b64(data, COMPLEX)}
                     for indptr, indices, data in state.rows]}


def _rows_from_json(space: ProductSpace, doc: dict) -> SumState:
    return SumState.from_rows(
        space, _from_b64(doc["coeffs"], COMPLEX),
        [(_from_b64(r["indptr"], INDEX), _from_b64(r["indices"], INDEX),
          _from_b64(r["data"], COMPLEX)) for r in doc["rows"]])


def _complex_array(pairs) -> np.ndarray:
    """Complex vector from [[re, im], ...]; every item must be a pair."""
    if len(pairs) == 0:
        return np.zeros(0, dtype=np.complex128)
    arr = np.array(pairs, dtype=np.float64)
    if arr.shape != (len(pairs), 2):
        raise SchemaError(f"expected [re, im] pairs, got shape {arr.shape}")
    return arr.view(np.complex128).ravel()


def _terms_from_json(space: ProductSpace, terms, key: str) -> SumState:
    """Flatten ``tridecomp/1``'s nested term lists into CSR rows and build
    the state."""
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
        rows.append((np.cumsum([0] + [len(f) for f in facs]), idx,
                     _complex_array(amps)))
    return SumState.from_rows(space, _complex_array([t["coeff"] for t in terms]),
                              rows)


def _schema(doc: dict) -> str:
    schema = doc.get("schema")
    if schema not in READS:
        raise SchemaError(f"unsupported schema {schema!r}; "
                          f"expected one of {list(READS)}")
    return schema


def state_to_json(state, provenance: dict = None) -> dict:
    if isinstance(state, DenseState):
        doc = {
            "schema": SCHEMA,
            "dims": list(state.space.dims),
            "format": "dense",
            "amplitudes": _b64(state.amplitudes, COMPLEX),
            "normalized": bool(state.normalized),
        }
    elif isinstance(state, SumState):
        doc = {
            "schema": SCHEMA,
            "dims": list(state.space.dims),
            "format": "rows",
            **_rows_to_json(state),
        }
    else:
        raise SchemaError(f"cannot serialize {type(state).__name__}")
    if provenance:
        doc["provenance"] = provenance
    return doc


def state_from_json(doc):
    if not isinstance(doc, dict):
        raise SchemaError("state document must be an object")
    v1 = _schema(doc) == "tridecomp/1"
    try:
        space = ProductSpace(tuple(doc["dims"]))
        fmt = doc["format"]
        if fmt == "dense":
            amps = doc["amplitudes"]
            return DenseState(space, _complex_array(amps) if v1
                              else _from_b64(amps, COMPLEX),
                              normalized=doc.get("normalized"))
        if fmt == "product_sum" and v1:
            return _terms_from_json(space, doc["terms"], "factors")
        if fmt == "rows" and not v1:
            return _rows_from_json(space, doc)
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
        "format": "rows",
        **_rows_to_json(d.state),
        "certificate": d.certificate.to_json() if d.certificate else None,
        "tolerances": (d.certificate.tolerances if d.certificate else None),
    }
    if blocks is not None:
        doc["blocks"] = blocks
    if provenance:
        doc["provenance"] = provenance
    return doc


def _certificate(cert: dict) -> TriCertificate:
    """Every ``TriCertificate`` field from its JSON value, lists as tuples."""
    cert = {**cert, "li_method": cert.get("li_method")
            or ["svd"] * len(cert["min_singular_values"])}
    values = [cert[f.name] for f in fields(TriCertificate)]
    return TriCertificate(*(tuple(v) if isinstance(v, list) else v
                            for v in values))


def decomposition_from_json(doc) -> TriDecomposition:
    if not isinstance(doc, dict):
        raise SchemaError("decomposition document must be an object")
    if doc.get("kind") != "tridecomposition":
        raise SchemaError("not a tridecomposition document")
    v1 = _schema(doc) == "tridecomp/1"
    if not v1 and doc.get("format") != "rows":
        raise SchemaError(f"unknown decomposition format {doc.get('format')!r}")
    try:
        space = ProductSpace(tuple(doc["dims"]))
        state = (_terms_from_json(space, doc["terms"], "components") if v1
                 else _rows_from_json(space, doc))
        cert = doc.get("certificate")
        return TriDecomposition(space, state, Variant(doc["variant"]),
                                _certificate(cert) if cert else None)
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
