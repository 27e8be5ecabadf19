import json
import math
from pathlib import Path

import numpy as np
import pytest

from tridecomp.decomp import Variant, ordered_triortho, verify_tridecomposition
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
        assert doc["schema"] == "tridecomp/1"
        assert doc["format"] == "dense"
        back = state_from_json(doc)
        assert isinstance(back, DenseState)
        assert np.allclose(back.amplitudes, psi.amplitudes)
        assert back.normalized == psi.normalized

    def test_product_sum(self):
        d = random_triortho(71, dims=(4, 4, 4), k=3)
        s = d.to_sum_state()
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
        cert = verify_tridecomposition(d, densify(d.to_sum_state()))
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
        target = densify(d.to_sum_state())
        assert verify_tridecomposition(back, target).passed

    def test_li_method_round_trip_and_default(self):
        d = random_triortho(74, dims=(3, 4, 5), k=2)
        cert = verify_tridecomposition(d, densify(d.to_sum_state()))
        from dataclasses import replace
        doc = decomposition_to_json(replace(d, certificate=cert))
        assert doc["certificate"]["li_method"] == list(cert.li_method)
        assert decomposition_from_json(doc).certificate.li_method == \
            cert.li_method
        del doc["certificate"]["li_method"]
        assert decomposition_from_json(doc).certificate.li_method == \
            ("svd",) * 3

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
        assert s.terms[0].factors[0] == ((0, half + 0j), (2, half + 0j))

    def test_indented_files_from_earlier_versions_load(self):
        state = state_from_json(load(str(DATA / "indented_product_sum.json")))
        d = decomposition_from_json(
            load(str(DATA / "indented_decomposition.json")))
        assert isinstance(state, SumState) and state.nterms == 3
        assert d.certificate.passed and d.nterms == 3
        assert verify_tridecomposition(d, state).passed
        assert state_to_json(state) == load(
            str(DATA / "indented_product_sum.json"))


class TestWriter:
    def test_compact_with_trailing_newline(self, tmp_path):
        doc = state_to_json(random_triortho(75, dims=(3, 3, 3), k=2)
                            .to_sum_state(), provenance={"generator": "x"})
        text = dumps(doc)
        assert text == json.dumps(doc, separators=(",", ":")) + "\n"
        assert "\n" not in text[:-1] and ", " not in text
        path = tmp_path / "doc.json"
        dump(doc, str(path))
        assert path.read_text() == text
        assert load(str(path)) == doc

    def test_certificate_json_fields(self):
        d = random_triortho(76, dims=(3, 4, 5), k=2)
        cert = verify_tridecomposition(d, densify(d.to_sum_state()))
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
