import base64
import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from tridecomp.cli import main
from tridecomp.constructions import instability_pair
from tridecomp.decomp import (
    TriCertificate,
    Variant,
    ordered_triortho,
    verify_tridecomposition,
)
from tridecomp.errors import DimensionMismatchError, InvalidStateError, SchemaError
from tridecomp.serialize import (
    decomposition_from_json,
    decomposition_to_json,
    dump,
    dumps,
    load,
    state_from_json,
    state_to_json,
)
from tridecomp.states import (
    DenseState,
    ProductSpace,
    SumState,
    densify,
    haar_random_state,
    inner,
)

from conftest import random_triortho


class TestStateRoundTrip:
    def test_dense(self):
        psi = haar_random_state(ProductSpace((2, 3, 2)), 8)
        doc = state_to_json(psi)
        assert doc["schema"] == "tridecomp/2"
        assert doc["format"] == "dense"
        back = state_from_json(doc)
        assert isinstance(back, DenseState)
        assert np.array_equal(back.amplitudes, psi.amplitudes)
        assert back.normalized == psi.normalized

    def test_dense_tridecomp1_pairs_still_read(self):
        psi = haar_random_state(ProductSpace((2, 3, 2)), 8)
        pairs = psi.amplitudes.view(np.float64).reshape(-1, 2).tolist()
        back = state_from_json({"schema": "tridecomp/1", "dims": [2, 3, 2],
                                "format": "dense", "amplitudes": pairs})
        assert np.array_equal(back.amplitudes, psi.amplitudes)

    def test_product_sum(self):
        d = random_triortho(71, dims=(4, 4, 4), k=3)
        s = d.state
        back = state_from_json(state_to_json(s))
        assert isinstance(back, SumState)
        assert inner(back, s) == pytest.approx(inner(s, s), abs=1e-12)

    def test_provenance_preserved(self):
        psi = haar_random_state(ProductSpace((2, 2)), 3)
        doc = state_to_json(psi, provenance={"generator": "witness3", "n1": 3})
        assert doc["provenance"]["generator"] == "witness3"

    def test_rejects_wrong_schema(self):
        with pytest.raises(SchemaError):
            state_from_json({"schema": "other/9", "format": "dense",
                             "dims": [2, 2], "amplitudes": []})

    def test_rejects_malformed_amplitudes(self):
        with pytest.raises(SchemaError):
            state_from_json({"schema": "tridecomp/1", "format": "dense",
                             "dims": [2, 2], "amplitudes": [[1.0]] * 4})

    def test_rejects_unknown_format(self):
        with pytest.raises(SchemaError):
            state_from_json({"schema": "tridecomp/1", "format": "mps",
                             "dims": [2, 2]})


class TestDecompositionRoundTrip:
    def test_with_certificate_and_blocks(self):
        d = random_triortho(72, dims=(4, 4, 4), k=3)
        cert = verify_tridecomposition(d, densify(d.state))
        from dataclasses import replace
        d = replace(d, certificate=cert)
        doc = decomposition_to_json(ordered_triortho(d))
        assert doc["variant"] == "ORTHONORMAL"
        assert doc["certificate"]["passed"]
        assert doc["tolerances"]["orth"] == 1e-8
        assert len(doc["blocks"]) == 3
        back = decomposition_from_json(doc)
        assert back.variant is Variant.ORTHONORMAL
        assert back.certificate.passed
        assert back.nterms == 3
        assert np.allclose(np.abs(back.coefficients),
                           sorted(np.abs(d.coefficients))[::-1], atol=1e-12)

    def test_round_trip_reconstructs(self):
        d = random_triortho(73, dims=(3, 4, 5), k=2)
        back = decomposition_from_json(decomposition_to_json(d))
        target = densify(d.state)
        assert verify_tridecomposition(back, target).passed

    def test_li_method_round_trip_and_default(self):
        d = random_triortho(74, dims=(3, 4, 5), k=2)
        cert = verify_tridecomposition(d, densify(d.state))
        from dataclasses import replace
        doc = decomposition_to_json(replace(d, certificate=cert))
        assert doc["certificate"]["li_method"] == list(cert.li_method)
        assert decomposition_from_json(doc).certificate.li_method == \
            cert.li_method
        del doc["certificate"]["li_method"]
        assert decomposition_from_json(doc).certificate.li_method == \
            ("svd",) * 3

    @pytest.mark.parametrize("name", [f.name for f in fields(TriCertificate)
                                      if f.name != "li_method"])
    def test_every_certificate_field_is_read(self, name):
        d = replace(random_triortho(75, dims=(3, 4, 5), k=2),
                    variant=Variant.LI_TWO_FACTORS)
        cert = verify_tridecomposition(d, densify(d.state))
        assert cert.li_factors == (0, 1)
        doc = decomposition_to_json(replace(d, certificate=cert))
        assert decomposition_from_json(doc).certificate == cert
        del doc["certificate"][name]
        with pytest.raises(SchemaError):
            decomposition_from_json(doc)

    def test_rejects_non_decomposition(self):
        psi = haar_random_state(ProductSpace((2, 2)), 3)
        with pytest.raises(SchemaError):
            decomposition_from_json(state_to_json(psi))


DATA = Path(__file__).parent / "data"


def product_sum_doc(dims=(3, 3), factors=None, coeff=(1.0, 0.0)):
    factors = factors or [[[0, [1.0, 0.0]]], [[1, [0.0, 1.0]]]]
    return {"schema": "tridecomp/1", "dims": list(dims),
            "format": "product_sum",
            "terms": [{"coeff": list(coeff), "factors": factors}]}


class TestProductSumDocuments:
    def test_ragged_pairs_are_schema_errors(self):
        for doc in (
            product_sum_doc(coeff=(1.0,)),
            product_sum_doc(factors=[[[0, [1.0]]], [[1, [0.0, 1.0]]]]),
            product_sum_doc(factors=[[[0, [1.0, 0.0, 0.0]]],
                                     [[1, [0.0, 1.0]]]]),
            product_sum_doc(factors=[[[0]], [[1, [0.0, 1.0]]]]),
            product_sum_doc(factors=[[[0, [1.0, 0.0], 7]], [[1, [0.0, 1.0]]]]),
            product_sum_doc(factors=[[[0, [1.0, 0.0]], [1, [0.0]]],
                                     [[1, [0.0, 1.0]]]]),
            product_sum_doc(factors="nope"),
        ):
            with pytest.raises(SchemaError):
                state_from_json(doc)

    def test_invalid_values_keep_their_error_classes(self):
        with pytest.raises(InvalidStateError):  # non-unit component
            state_from_json(product_sum_doc(
                factors=[[[0, [0.5, 0.0]]], [[1, [0.0, 1.0]]]]))
        with pytest.raises(InvalidStateError):
            state_from_json(product_sum_doc(coeff=(math.nan, 0.0)))
        with pytest.raises(InvalidStateError):
            state_from_json(product_sum_doc(
                factors=[[[0, [math.nan, 0.0]]], [[1, [0.0, 1.0]]]]))
        with pytest.raises(DimensionMismatchError):  # factor count
            state_from_json(product_sum_doc(dims=(3, 3, 3)))

    def test_index_beyond_factor_dimension(self):
        doc = product_sum_doc(factors=[[[0, [1.0, 0.0]]], [[5, [1.0, 0.0]]]])
        with pytest.raises(DimensionMismatchError, match="index 5"):
            state_from_json(doc)

    def test_duplicate_entries_merge(self):
        half = 0.5 ** 0.5
        doc = product_sum_doc(factors=[
            [[2, [half / 2, 0.0]], [0, [half, 0.0]], [2, [half / 2, 0.0]]],
            [[1, [0.0, 1.0]]]])
        s = state_from_json(doc)
        assert s.rows[0].indices.tolist() == [0, 2]
        assert s.rows[0].data.tolist() == [half + 0j, half + 0j]

    def test_indented_files_from_earlier_versions_load(self):
        state = state_from_json(load(str(DATA / "indented_product_sum.json")))
        d = decomposition_from_json(
            load(str(DATA / "indented_decomposition.json")))
        assert isinstance(state, SumState) and state.nterms == 3
        assert d.certificate.passed and d.nterms == 3
        assert verify_tridecomposition(d, state).passed
        # re-written, the old files become the committed tridecomp/2 fixtures
        assert state_to_json(state) == load(str(DATA / "rows_state.json"))
        assert decomposition_to_json(d) == load(
            str(DATA / "rows_decomposition.json"))

    def test_tridecomp1_and_tridecomp2_fixtures_hold_the_same_arrays(self):
        assert_same_arrays(
            state_from_json(load(str(DATA / "indented_product_sum.json"))),
            state_from_json(load(str(DATA / "rows_state.json"))))
        old, new = (decomposition_from_json(load(str(DATA / name)))
                    for name in ("indented_decomposition.json",
                                 "rows_decomposition.json"))
        assert_same_arrays(old.state, new.state)
        assert old.certificate == new.certificate


def assert_same_arrays(a: SumState, b: SumState):
    assert np.array_equal(a.coeffs, b.coeffs)
    for ra, rb in zip(a.rows, b.rows, strict=True):
        for x, y in zip(ra, rb, strict=True):
            assert np.array_equal(x, y)


def b64(values, dtype):
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode()


def unb64(text, dtype):
    return np.frombuffer(base64.b64decode(text), dtype=dtype).copy()


def _set_entry(field, dtype, pos, value):
    """Tamper: set one entry of an array of factor 2's rows."""
    def tamper(doc):
        rows = doc["rows"][2]
        arr = unb64(rows[field], dtype)
        arr[pos] = value
        rows[field] = b64(arr, dtype)
    return tamper


def _set_field(path, value):
    """Tamper: replace the field at ``path`` of the document."""
    def tamper(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return tamper


# (tamper of the rows fixture, error class of the reader)
READER_FAULTS = {
    "bad base64 characters": (_set_field(["coeffs"], "!!!!"), SchemaError),
    "coeffs not whole <c16 items": (
        _set_field(["coeffs"], b64(np.zeros(47, np.uint8), np.uint8)),
        SchemaError),
    "indices not whole <i8 items": (
        _set_field(["rows", 0, "indices"],
                   b64(np.zeros(12, np.uint8), np.uint8)),
        SchemaError),
    "array not a string": (_set_field(["rows", 1, "data"], [[1.0, 0.0]]),
                           SchemaError),
    "NaN amplitude": (_set_entry("data", "<c16", 5, complex(math.nan, 0.0)),
                      InvalidStateError),
    "NaN coefficient": (_set_field(["coeffs"], b64([math.nan, 1, 1], "<c16")),
                        InvalidStateError),
    "index beyond the factor dimension": (_set_entry("indices", "<i8", -1, 4),
                                          DimensionMismatchError),
    "negative index": (_set_entry("indices", "<i8", 0, -1),
                       DimensionMismatchError),
    "indptr one row short": (_set_field(["rows", 0, "indptr"],
                                        b64([0, 4, 12], "<i8")),
                             InvalidStateError),
    "indptr past the entries": (_set_entry("indptr", "<i8", -1, 13),
                                InvalidStateError),
}


class TestRowsDocuments:
    """The tridecomp/2 ``rows`` format: a fixed byte layout, a bitwise round
    trip, and every ``SumState.from_rows`` check on what it reads."""

    def test_fixtures_load_verify_and_rewrite_byte_for_byte(self, capsys):
        state_text = (DATA / "rows_state.json").read_text()
        dec_text = (DATA / "rows_decomposition.json").read_text()
        state = state_from_json(json.loads(state_text))
        d = decomposition_from_json(json.loads(dec_text))
        assert isinstance(state, SumState) and state.nterms == 3
        assert verify_tridecomposition(d, state).passed
        assert dumps(state_to_json(state)) == state_text
        assert dumps(decomposition_to_json(d)) == dec_text
        assert main(["verify", "--decomposition",
                     str(DATA / "rows_decomposition.json"),
                     "--state", str(DATA / "rows_state.json")]) == 0
        assert json.loads(capsys.readouterr().out)["passed"]

    def test_documented_layout(self):
        doc = load(str(DATA / "rows_state.json"))
        state = state_from_json(doc)
        assert doc["format"] == "rows" and len(doc["rows"]) == 3
        assert np.array_equal(unb64(doc["coeffs"], "<c16"), state.coeffs)
        for rows, arrays in zip(doc["rows"], state.rows, strict=True):
            assert np.array_equal(unb64(rows["indptr"], "<i8"), arrays.indptr)
            assert np.array_equal(unb64(rows["indices"], "<i8"),
                                  arrays.indices)
            assert np.array_equal(unb64(rows["data"], "<c16"), arrays.data)

    @pytest.mark.parametrize("eps", [0.9, 0.8, 0.7])
    def test_phi2_round_trip_is_bitwise(self, eps):
        psi = haar_random_state(ProductSpace((2, 2, 2)), 1)
        pair = instability_pair(psi, eps)
        state = state_from_json(json.loads(dumps(state_to_json(pair.phi2))))
        d = decomposition_from_json(json.loads(dumps(
            decomposition_to_json(pair.decomposition2))))
        assert_same_arrays(state, pair.phi2)
        assert_same_arrays(d.state, pair.decomposition2.state)
        assert d.certificate == pair.decomposition2.certificate
        assert verify_tridecomposition(d, state) == verify_tridecomposition(
            pair.decomposition2, pair.phi2)

    @pytest.mark.parametrize("fault", sorted(READER_FAULTS))
    def test_reader_faults_keep_their_error_classes(self, fault, tmp_path,
                                                    capsys):
        tamper, error = READER_FAULTS[fault]
        doc = load(str(DATA / "rows_state.json"))
        tamper(doc)
        with pytest.raises(error):
            state_from_json(doc)
        dec = load(str(DATA / "rows_decomposition.json"))
        tamper(dec)
        with pytest.raises(error):
            decomposition_from_json(dec)
        path = tmp_path / "state.json"
        dump(doc, str(path))
        code = main(["verify", "--decomposition",
                     str(DATA / "rows_decomposition.json"),
                     "--state", str(path)])
        assert code == 1
        capsys.readouterr()

    def test_dense_amplitudes_are_checked(self):
        doc = state_to_json(haar_random_state(ProductSpace((2, 3)), 2))
        amps = unb64(doc["amplitudes"], "<c16")
        amps[3] = complex(0.0, math.nan)
        with pytest.raises(InvalidStateError):
            state_from_json(dict(doc, amplitudes=b64(amps, "<c16")))
        with pytest.raises(DimensionMismatchError):
            state_from_json(dict(doc, amplitudes=b64(amps[:5], "<c16")))
        with pytest.raises(SchemaError):
            state_from_json(dict(doc, amplitudes="AAAA*"))

    def test_formats_do_not_cross_schemas(self):
        doc = load(str(DATA / "rows_state.json"))
        with pytest.raises(SchemaError):
            state_from_json(dict(doc, schema="tridecomp/1"))
        old = load(str(DATA / "indented_product_sum.json"))
        with pytest.raises(SchemaError):
            state_from_json(dict(old, schema="tridecomp/2"))
        dec = load(str(DATA / "rows_decomposition.json"))
        with pytest.raises(SchemaError):
            decomposition_from_json(dict(dec, format="product_sum"))


class TestWriter:
    def test_compact_with_trailing_newline(self, tmp_path):
        doc = state_to_json(random_triortho(75, dims=(3, 3, 3), k=2)
                            .state, provenance={"generator": "x"})
        text = dumps(doc)
        assert text == json.dumps(doc, separators=(",", ":")) + "\n"
        assert "\n" not in text[:-1] and ", " not in text
        path = tmp_path / "doc.json"
        dump(doc, str(path))
        assert path.read_text() == text
        assert load(str(path)) == doc

    def test_certificate_json_fields(self):
        d = random_triortho(76, dims=(3, 4, 5), k=2)
        cert = verify_tridecomposition(d, densify(d.state))
        doc = cert.to_json()
        assert list(doc) == [
            "passed", "variant", "failed_condition", "reconstruction_error",
            "min_coefficient", "min_singular_values", "li_method",
            "max_offdiag_overlaps", "max_pairwise_overlaps", "li_factors",
            "tolerances"]
        assert doc["min_singular_values"] == list(cert.min_singular_values)
        assert doc["li_method"] == list(cert.li_method)
        assert doc["li_factors"] is None
        assert doc["tolerances"] == cert.tolerances
        assert doc["tolerances"] is not cert.tolerances
