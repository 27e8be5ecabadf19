import base64
import json
import math
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from tridecomp import cli, decomp, states
from tridecomp.cli import build_parser, main
from tridecomp.config import Tolerances
from tridecomp.constructions import instability_pair
from tridecomp.errors import InvalidStateError
from tridecomp.serialize import (
    decomposition_from_json,
    decomposition_to_json,
    dump,
    load,
    state_from_json,
    state_to_json,
)
from tridecomp.states import DenseState, ProductSpace

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def b64(values) -> str:
    return base64.b64encode(np.asarray(values, "<c16").tobytes()).decode()


def unb64(text) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), "<c16").copy()


# |000> on 2x2x2 as a tridecomp/1 and as a tridecomp/2 dense document
PRODUCT_AMPLITUDES = {
    "tridecomp/1": [[1.0, 0.0]] + [[0.0, 0.0]] * 7,
    "tridecomp/2": b64(np.eye(8)[0]),
}


class TestConstructAndRoundTrip:
    def test_example31_bundle(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        code, _, _ = run(capsys, "construct", "example31", "--theta", "0.3",
                         "-o", str(out))
        assert code == 0
        doc = load(str(out))
        assert doc["provenance"] == {"generator": "example31", "theta": 0.3}
        assert set(doc["states"]) == {"limit", "phi_theta", "psi_theta"}
        assert all(doc["decompositions"][k]["certificate"]["passed"]
                   for k in doc["decompositions"])

    def test_constructed_states_feed_every_consumer(self, tmp_path, capsys):
        bundle = tmp_path / "bundle.json"
        run(capsys, "construct", "example31", "--theta", "0.4", "-o",
            str(bundle))
        doc = load(str(bundle))
        state = tmp_path / "state.json"
        dec = tmp_path / "dec.json"
        dump(doc["states"]["phi_theta"], str(state))
        dump(doc["decompositions"]["phi_theta"], str(dec))

        code, out, _ = run(capsys, "schmidt", "--in", str(state), "--left", "0")
        assert code == 0
        assert len(json.loads(out)["coefficients"]) == 2

        code, out, _ = run(capsys, "verify", "--decomposition", str(dec),
                           "--state", str(state))
        assert code == 0
        assert json.loads(out)["passed"]

        code, out, _ = run(capsys, "extract", "--in", str(state))
        assert code == 0
        assert json.loads(out)["result"] == "not_triorthogonal"

    @staticmethod
    def extract_product_state(tmp_path, capsys, schema) -> dict:
        state = tmp_path / "product.json"
        dump({"schema": schema, "dims": [2, 2, 2], "format": "dense",
              "amplitudes": PRODUCT_AMPLITUDES[schema]}, str(state))
        code, out, _ = run(capsys, "extract", "--in", str(state))
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] == "triorthogonal"
        assert doc["schema"] == "tridecomp/2" and doc["format"] == "rows"
        return doc

    def test_extract_product_state_single_term(self, tmp_path, capsys):
        doc = self.extract_product_state(tmp_path, capsys, "tridecomp/1")
        assert unb64(doc["coeffs"]).size == 1

    def test_extract_tridecomp2_product_state_single_term(self, tmp_path,
                                                          capsys):
        doc = self.extract_product_state(tmp_path, capsys, "tridecomp/2")
        assert unb64(doc["coeffs"]).size == 1

    def test_witness_construction(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        code, _, _ = run(capsys, "construct", "witness3", "--n1", "4",
                         "-o", str(out))
        assert code == 0
        state = state_from_json(load(str(out)))
        assert state.space.dims == (4, 2, 5)

    def test_perturb_round_trip(self, tmp_path, capsys):
        state = tmp_path / "p.json"
        dump({"schema": "tridecomp/1", "dims": [2, 2, 2], "format": "dense",
              "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 7}, str(state))
        code, out, _ = run(capsys, "extract", "--in", str(state))
        dec = tmp_path / "dec.json"
        dump(json.loads(out), str(dec))
        code, out, _ = run(capsys, "construct", "perturb", "--in", str(dec),
                           "--epsilon", "0.1")
        assert code == 0
        perturbed = state_from_json(json.loads(out))
        assert perturbed.normalized

    def test_perturb_refuses_a_decomposition_that_is_not_normalized(
            self, tmp_path, capsys):
        # exited 2 with "perturbed state failed to stay normalized"
        doc = load(str(DATA / "indented_decomposition.json"))
        doc["terms"] = [dict(t, coeff=[2.0 * t["coeff"][0], 2.0 * t["coeff"][1]])
                        for t in doc["terms"]]
        dec = tmp_path / "scaled.json"
        dump(doc, str(dec))
        code, out, err = run(capsys, "construct", "perturb", "--in", str(dec))
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "norm" in err


class TestMatchCommand:
    @staticmethod
    def product_decomposition(tmp_path, capsys) -> str:
        state = tmp_path / "s.json"
        dump({"schema": "tridecomp/1", "dims": [2, 2, 2], "format": "dense",
              "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 7}, str(state))
        _, out, _ = run(capsys, "extract", "--in", str(state))
        dec = tmp_path / "d.json"
        dump(json.loads(out), str(dec))
        return str(dec)

    def test_identity_match(self, tmp_path, capsys):
        dec = self.product_decomposition(tmp_path, capsys)
        code, out, _ = run(capsys, "match", "--ordered", dec,
                           "--other", dec, "--epsilon", "0.2")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_bounds_hold"]

    @pytest.mark.parametrize("value", ["0.3", "0.25", "0", "nan"])
    def test_epsilon_outside_a_quarter_exits_one(self, tmp_path, capsys,
                                                 value):
        dec = self.product_decomposition(tmp_path, capsys)
        with pytest.raises(SystemExit) as exc:
            main(["match", "--ordered", dec, "--other", dec,
                  "--epsilon", value])
        assert exc.value.code == 1
        assert "epsilon must lie in (0, 1/4)" in capsys.readouterr().err

    def test_level_above_the_block_count_exits_one(self, tmp_path, capsys):
        dec = self.product_decomposition(tmp_path, capsys)
        code, out, err = run(capsys, "match", "--ordered", dec, "--other",
                             dec, "--epsilon", "0.2", "--level", "99")
        assert code == 1
        assert out == ""
        assert "level 99" in err and "precondition" not in err

    @pytest.mark.parametrize("side", ["--ordered", "--other"])
    def test_non_orthonormal_decomposition_exits_one(self, tmp_path, capsys,
                                                     side):
        dec = self.product_decomposition(tmp_path, capsys)
        bundle, li_all = tmp_path / "e31.json", tmp_path / "li_all.json"
        run(capsys, "construct", "example31", "-o", str(bundle))
        dump(load(str(bundle))["decompositions"]["phi_theta"], str(li_all))
        files = ["--ordered", dec, "--other", dec]
        files[files.index(side) + 1] = str(li_all)
        code, out, err = run(capsys, "match", *files, "--epsilon", "0.2")
        assert code == 1
        assert out == ""
        assert "orthonormal" in err and "precondition" not in err

    def test_inadmissible_pair_exits_two(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        dump({"schema": "tridecomp/1", "dims": [2, 2, 2], "format": "dense",
              "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 7}, str(a))
        amps = [[0.0, 0.0]] * 8
        amps[7] = [1.0, 0.0]
        dump({"schema": "tridecomp/1", "dims": [2, 2, 2], "format": "dense",
              "amplitudes": amps}, str(b))
        _, out, _ = run(capsys, "extract", "--in", str(a))
        da = tmp_path / "da.json"
        dump(json.loads(out), str(da))
        _, out, _ = run(capsys, "extract", "--in", str(b))
        db = tmp_path / "db.json"
        dump(json.loads(out), str(db))
        code, _, err = run(capsys, "match", "--ordered", str(da),
                           "--other", str(db), "--epsilon", "0.2")
        assert code == 2
        assert "precondition failed" in err


class TestExitCodes:
    def test_verify_failure_exits_two(self, tmp_path, capsys):
        bundle = tmp_path / "b.json"
        run(capsys, "construct", "example31", "--theta", "0.5", "-o",
            str(bundle))
        doc = load(str(bundle))
        dec = doc["decompositions"]["phi_theta"]
        coeffs = unb64(dec["coeffs"])
        coeffs[0] = 0.9  # tamper with a coefficient
        dec["coeffs"] = b64(coeffs)
        decfile = tmp_path / "dec.json"
        statefile = tmp_path / "state.json"
        dump(dec, str(decfile))
        dump(doc["states"]["phi_theta"], str(statefile))
        code, out, err = run(capsys, "verify", "--decomposition", str(decfile),
                             "--state", str(statefile))
        assert code == 2
        assert "reconstruction" in err

    def test_tridecomp1_verify_failure_exits_two(self, tmp_path, capsys):
        dec = load(str(DATA / "indented_decomposition.json"))
        dec["terms"][0]["coeff"] = [0.9, 0.0]  # tamper with a coefficient
        decfile = tmp_path / "dec.json"
        dump(dec, str(decfile))
        code, out, err = run(
            capsys, "verify", "--decomposition", str(decfile),
            "--state", str(DATA / "indented_product_sum.json"))
        assert code == 2
        assert "reconstruction" in err

    def test_malformed_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"nope\": true}")
        code, _, err = run(capsys, "extract", "--in", str(bad))
        assert code == 1
        assert "schema" in err

    def test_float_dims_exit_one(self, tmp_path, capsys):
        # dims [2.5, 2, 2] used to load as (2, 2, 2) and extract with exit 0
        state = tmp_path / "float_dims.json"
        dump({"schema": "tridecomp/2", "dims": [2.5, 2, 2], "format": "dense",
              "amplitudes": PRODUCT_AMPLITUDES["tridecomp/2"]}, str(state))
        code, out, err = run(capsys, "extract", "--in", str(state))
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: factor dimension must be an integer >= 2, got 2.5"]

    def test_missing_file_exits_one(self, capsys):
        code, _, _ = run(capsys, "extract", "--in", "/does/not/exist.json")
        assert code == 1

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "example31", "--bogus", "1"])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_range_checked_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "example33", "--theta", str(math.pi)])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_bad_factor_indices_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["schmidt", "--in", "x.json", "--left", "a,b"])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_unwritable_output_exits_one(self, capsys):
        code, _, err = run(capsys, "info", "-o", "/nonexistent-dir/o.json")
        assert code == 1
        assert err

    def test_pair_from_an_input_state(self, tmp_path, capsys):
        # the state the installed-script check writes: a pair built from
        # it certifies both expansions, as the library's own call does
        psi = states.haar_random_state(ProductSpace((2, 3, 2)), 1)
        path, out = tmp_path / "haar.json", tmp_path / "pair.json"
        dump(state_to_json(psi), str(path))
        code, _, err = run(capsys, "construct", "pair", "--in", str(path),
                           "--epsilon", "0.9", "-o", str(out))
        assert code == 0, err
        doc = load(str(out))
        assert [doc["decompositions"][k]["certificate"]["passed"]
                for k in ("phi1", "phi2")] == [True, True]
        pair = instability_pair(psi, 0.9)
        assert doc["provenance"]["theta"] == pair.theta
        assert doc["cross_overlap_max"] == pair.cross_overlap_max

    def test_pair_refuses_an_input_state_with_dims(self, tmp_path, capsys):
        # --dims sizes the default |0...0>; next to --in it was ignored
        path = tmp_path / "haar.json"
        dump(state_to_json(states.haar_random_state(ProductSpace((2, 3, 2)),
                                                    1)), str(path))
        code, out, err = run(capsys, "construct", "pair", "--in", str(path),
                             "--dims", "3,3,3")
        assert code == 1 and not out
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_mover_of_one_state_given_twice_is_the_identity(self, tmp_path,
                                                             capsys):
        # <s|s> of this state rounds to 0.9999999999999998
        path = tmp_path / "haar.json"
        dump(state_to_json(states.haar_random_state(ProductSpace((2, 3, 2)),
                                                    1)), str(path))
        code, out, err = run(capsys, "construct", "mover", "--in", str(path),
                             "--in2", str(path))
        assert code == 0, err
        doc = json.loads(out)
        assert doc["identity"] is True
        assert doc["trace_norm_minus_identity"] == 0.0

    def test_theta_too_large_is_bound_failure(self, tmp_path, capsys):
        code, _, err = run(capsys, "construct", "pair", "--epsilon", "0.9",
                           "--theta", "1.5")
        assert code == 2
        assert "theta too large" in err


class TestToleranceFlags:
    @pytest.mark.parametrize("value", ["0", "nan", "-0.5", "inf"])
    def test_invalid_li_exits_one(self, tmp_path, capsys, value):
        state = tmp_path / "product.json"
        dump({"schema": "tridecomp/1", "dims": [2, 2, 2], "format": "dense",
              "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 7}, str(state))
        code, _, err = run(capsys, "extract", "--in", str(state),
                           "--tol-li", value)
        assert code == 1
        assert "tolerance li" in err

    def test_negative_degeneracy_width_is_usage_error(self, capsys):
        code, _, err = run(capsys, "campaign", "closure", "--tol-deg", "-1")
        assert code == 1
        assert "tolerance deg" in err

    @pytest.mark.parametrize("name", [f.name for f in fields(Tolerances)])
    def test_every_field_validated(self, name):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidStateError, match=name):
                Tolerances(**{name: bad})


class TestCampaignCommand:
    def test_stability_campaign_json(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code, _, _ = run(capsys, "campaign", "stability", "--trials", "6",
                         "--seed", "7", "--selector", "product-match",
                         "-o", str(out))
        assert code == 0
        doc = load(str(out))
        assert doc["aggregate"]["pass_rate"] == 1.0
        assert len(doc["records"]) == 6

    @pytest.mark.parametrize("campaign", ["closure", "stability", "isolation"])
    def test_negative_seed_is_usage_error(self, capsys, campaign):
        code, _, err = run(capsys, "campaign", campaign, "--seed", "-1")
        assert code == 1
        assert "seed" in err
        assert "Traceback" not in err

    def test_seed_determines_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "campaign", "closure", "--seed", "3", "--dims", "4,4,4",
            "-o", str(a))
        run(capsys, "campaign", "closure", "--seed", "3", "--dims", "4,4,4",
            "-o", str(b))
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize("argv", [
        ["stability", "--trials", "1", "--dims", "2,2"],
        ["stability", "--trials", "2", "--dims", "2,2"],
        ["isolation", "--dims", "3,3,3,3"],
        ["closure", "--dims", "2,2"],
    ])
    def test_dims_without_three_factors_exit_one(self, capsys, argv):
        code, out, err = run(capsys, "campaign", *argv)
        assert code == 1 and not out
        assert "trials need 3 factor dims" in err

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "campaign", "instability", "--format",
                           "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert "theta" in lines[0]


class TestDenseCeiling:
    # each of these tensors would take over 1e11 bytes
    @pytest.mark.parametrize("argv", [
        ("witness3", "--n1", "100000"),
        ("witness4", "--n1", "1000"),
        ("witness3", "--dims", "3000,2000,3000"),
        ("pair", "--dims", "100000,100000,100000"),
    ])
    def test_generator_refuses_before_allocating(self, capsys, argv):
        code, out, err = run(capsys, "construct", *argv)
        assert code == 1 and not out
        assert err.startswith("error: dense dimension ")
        assert err.count("\n") == 1


class TestInfo:
    def test_reports_tolerances(self, capsys):
        code, out, _ = run(capsys, "info")
        assert code == 0
        doc = json.loads(out)
        assert doc["state_schema"] == "tridecomp/2"
        assert doc["reads"] == ["tridecomp/1", "tridecomp/2"]
        assert doc["tolerances"]["deg"] == 1e-7


class TestDocuments:
    DATA = DATA

    def test_verify_indented_files_from_earlier_versions(self, capsys):
        code, out, _ = run(
            capsys, "verify",
            "--decomposition", str(self.DATA / "indented_decomposition.json"),
            "--state", str(self.DATA / "indented_product_sum.json"))
        assert code == 0
        assert json.loads(out)["passed"]

    def test_verify_rejects_index_beyond_factor_dimension(self, tmp_path,
                                                          capsys):
        doc = load(str(self.DATA / "indented_product_sum.json"))
        doc["terms"][0]["factors"][2][-1][0] = 5  # factor 2 has dimension 4
        state = tmp_path / "state.json"
        dump(doc, str(state))
        code, _, err = run(
            capsys, "verify",
            "--decomposition", str(self.DATA / "indented_decomposition.json"),
            "--state", str(state))
        assert code == 1
        assert "index 5" in err

    def test_output_is_compact_json(self, capsys):
        code, out, _ = run(capsys, "info")
        assert code == 0
        assert out.endswith("}\n") and out.count("\n") == 1
        assert json.loads(out)["state_schema"] == "tridecomp/2"


class TestVerifyBuildsOneGram:
    def test_pair_documents_take_one_overlap_per_factor(self, tmp_path,
                                                        capsys, monkeypatch):
        # phi2 and its decomposition carry the same 729 rows, 9 distinct per
        # factor on the shared columns: the certificate reads every number
        # from one 9 x 9 dictionary overlap per factor, walks no overlap
        # row, builds no term Gram and no terms-by-touched matrix, and holds
        # no 729 x 729 (or 729 x 738) array at any time
        psi = DenseState(ProductSpace((2, 2, 2)), np.eye(8)[0],
                         normalized=True)
        pair = instability_pair(psi, 0.7)
        state, dec = tmp_path / "phi2.json", tmp_path / "dec.json"
        dump(state_to_json(pair.phi2), str(state))
        dump(decomposition_to_json(pair.decomposition2), str(dec))
        walked, grams, matrices, cores = [], [], [], []
        overlap_rows, core_summary = states._overlap_rows, states._core_summary

        def counted_plan(split):
            rows = overlap_rows(split)

            def counted_rows(lo, hi):
                walked.append(hi - lo)
                return rows(lo, hi)
            return counted_rows

        def counted_core(*args):
            cores.append(core_summary(*args))
            return cores[-1]

        monkeypatch.setattr(states, "_overlap_rows", counted_plan)
        monkeypatch.setattr(states, "_core_summary", counted_core)
        monkeypatch.setattr(states.FactorPack, "matrix",
                            lambda pack: matrices.append(pack))
        for module in (states, decomp):
            monkeypatch.setattr(module, "term_gram",
                                lambda *args: grams.append(args))
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "verify", "--decomposition", str(dec),
                               "--state", str(state))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(out)["passed"] is True
        assert len(cores) == 1 and cores[0] is not None
        assert not walked and not grams and not matrices
        assert peak < 729 * 729 * 16


class TestParserBuiltOnce:
    def test_successive_calls_match_fresh_calls(self, tmp_path, capsys):
        bundle, state = tmp_path / "bundle.json", tmp_path / "state.json"
        run(capsys, "construct", "example31", "--theta", "0.4", "-o",
            str(bundle))
        dump(load(str(bundle))["states"]["phi_theta"], str(state))
        calls = [("info",), ("construct", "pair", "--epsilon", "2"),
                 ("schmidt", "--in", str(state), "--left", "0"),
                 ("verify", "--decomposition", "missing.json", "--state",
                  str(state)),
                 ("extract", "--in", str(state))]

        def call(argv):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # a usage error
                code = exc.code
            out = capsys.readouterr()
            return code, out.out, out.err

        def fresh(argv):
            cli._parser.cache_clear()
            return call(argv)

        expected = [fresh(argv) for argv in calls]
        assert [code for code, _, _ in expected] == [0, 1, 0, 1, 0]
        cli._parser.cache_clear()
        assert [call(argv) for argv in calls] == expected
        assert cli._parser.cache_info().misses == 1

    def test_build_parser_returns_a_fresh_parser(self):
        # the shared parser stays private: a caller's edits to a parser
        # from build_parser do not reach main
        assert build_parser() is not build_parser()
        assert build_parser() is not cli._parser()


# the flags each generator and campaign reads; any other exits 1
READS = {
    ("construct", "example31"): {"--theta"},
    ("construct", "example32"): {"--theta"},
    ("construct", "example33"): {"--theta"},
    ("construct", "pair"): {"--epsilon", "--theta", "--dims", "--in"},
    ("construct", "mover"): {"--in", "--in2"},
    ("construct", "perturb"): {"--epsilon", "--in"},
    ("construct", "witness3"): {"--n1", "--dims"},
    ("construct", "witness4"): {"--n1", "--dims"},
    ("campaign", "instability"): set(),
    ("campaign", "stability"): {"--trials", "--seed", "--dims", "--selector"},
    ("campaign", "isolation"): {"--seed", "--dims"},
    ("campaign", "closure"): {"--seed", "--dims"},
}
VALUES = {"--theta": "0.3", "--epsilon": "0.5", "--dims": "3,3,3",
          "--in": "a.json", "--in2": "b.json", "--n1": "3", "--trials": "2",
          "--seed": "1", "--selector": "product-match"}
REQUIRED = {"mover": ["--in", "a.json", "--in2", "b.json"],
            "perturb": ["--in", "a.json"]}


class TestFlagsPerCommand:
    @pytest.mark.parametrize("command", list(READS), ids="-".join)
    def test_unread_flags_exit_one(self, capsys, command):
        for flag in sorted(set(VALUES) - READS[command]):
            argv = [*command, *REQUIRED.get(command[1], []), flag,
                    VALUES[flag]]
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1, argv
            assert f"unrecognized arguments: {flag}" in \
                capsys.readouterr().err

    @pytest.mark.parametrize("command", list(READS), ids="-".join)
    def test_read_flags_parse(self, command):
        argv = [x for flag in sorted(READS[command])
                for x in (flag, VALUES[flag])]
        args = build_parser().parse_args([*command, *argv, "--tol-li",
                                          "1e-9", "-o", "out.json"])
        assert args.tol_li == 1e-9 and args.out == "out.json"
        if "--dims" in READS[command]:
            assert args.dims == (3, 3, 3)

    def test_witness_rejects_rotation_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "witness3", "--theta", "0.3",
                  "--epsilon", "0.5"])
        assert exc.value.code == 1
        assert "--theta 0.3 --epsilon 0.5" in capsys.readouterr().err

    def test_unread_flag_error_names_its_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "witness3", "--theta", "0.3"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: tridecomp construct witness3 ")
        assert "tridecomp construct witness3: error: unrecognized " \
            "arguments: --theta 0.3" in err

    def test_closure_rejects_trials_and_selector(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "closure", "--trials", "7",
                  "--selector", "product-match"])
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_closure_config_names_only_what_it_reads(self, capsys):
        # the closure test reads no trial count or selector, so its report
        # echoes neither default
        code, out, _ = run(capsys, "campaign", "closure", "--seed", "1")
        assert code == 0
        config = json.loads(out)["config"]
        assert list(config) == ["seed", "dims", "tolerances"]
        assert config["seed"] == 1 and config["dims"] == [4, 4, 4]


@pytest.fixture
def generator_inputs(tmp_path, capsys):
    """The two example31 states (for mover) and a product decomposition
    (for perturb) as files."""
    bundle = tmp_path / "e31.json"
    run(capsys, "construct", "example31", "-o", str(bundle))
    paths = {}
    for name in ("phi_theta", "psi_theta"):
        paths[name] = str(tmp_path / f"{name}.json")
        dump(load(str(bundle))["states"][name], paths[name])
    state = tmp_path / "product.json"
    dump({"schema": "tridecomp/2", "dims": [2, 2, 2], "format": "dense",
          "amplitudes": PRODUCT_AMPLITUDES["tridecomp/2"]}, str(state))
    _, out, _ = run(capsys, "extract", "--in", str(state))
    paths["product_dec"] = str(tmp_path / "product_dec.json")
    dump(json.loads(out), paths["product_dec"])
    return paths


BUNDLE = ["schema", "kind", "provenance"]
GENERATED = [
    (["example31", "--theta", "0.4"], {"theta": 0.4},
     BUNDLE + ["states", "decompositions"]),
    (["example32"], {"theta": 0.3},
     BUNDLE + ["weights", "trace_norm_gap", "cross_overlaps",
               "cross_ceiling"]),
    (["example33", "--theta", "0.2"], {"theta": 0.2},
     BUNDLE + ["raw_coefficients", "states", "decompositions"]),
    (["pair", "--epsilon", "0.9"], {"epsilon": 0.9},
     BUNDLE + ["states", "decompositions", "distances", "basis_overlap_min",
               "cross_overlap_max"]),
    (["mover", "--in", "{phi_theta}", "--in2", "{psi_theta}"], {},
     BUNDLE + ["alpha", "beta", "identity", "trace_norm_minus_identity"]),
    (["witness3", "--n1", "2"], {"size": 2}, None),
    (["witness4"], {"size": 3}, None),
    (["perturb", "--in", "{product_dec}"], {"epsilon": 0.1}, None),
]


class TestGeneratorDocuments:
    @pytest.mark.parametrize("argv,provenance,keys", GENERATED,
                             ids=[g[0][0] for g in GENERATED])
    def test_document_layout(self, capsys, generator_inputs, argv,
                             provenance, keys):
        argv = [a.format(**generator_inputs) for a in argv]
        code, out, _ = run(capsys, "construct", *argv)
        assert code == 0
        doc = json.loads(out)
        expected = {"generator": argv[0], **provenance}
        if argv[0] == "pair":  # the chosen theta and size come last
            assert list(doc["provenance"]) == [*expected, "theta",
                                               "truncation_size"]
            doc["provenance"] = {k: doc["provenance"][k] for k in expected}
        assert doc["provenance"] == expected
        assert list(doc["provenance"]) == list(expected)
        if keys is None:  # a state document
            assert list(doc)[-1] == "provenance"
            state_from_json(doc)
            return
        assert list(doc) == keys
        assert doc["schema"] == "tridecomp/2" and doc["kind"] == "bundle"
        for state in doc.get("states", {}).values():
            state_from_json(state)
        for dec in doc.get("decompositions", {}).values():
            assert decomposition_from_json(dec).certificate.passed
