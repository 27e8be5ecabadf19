import numpy as np
import pytest

from tridecomp.decomp import Variant, ordered_triortho, verify_tridecomposition
from tridecomp.errors import SchemaError
from tridecomp.serialize import (
    decomposition_from_json,
    decomposition_to_json,
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
