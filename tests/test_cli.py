"""Tests for the command-line interface: exit codes and report shapes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tqdstab import cli, extraction, lattice
from tqdstab.cli import run
from tqdstab.pauli import multiply, scalar
from tqdstab.stabilizer import NonCommutingError


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestModelBuild:
    def test_ds(self, capsys):
        code, report = invoke(capsys, "model", "build", "--type", "ds",
                              "--L", "3")
        assert code == 0
        assert report["kind"] == "ds"
        assert report["edge_dims"] == [4]
        assert report["n_sites"] == 18
        assert report["n_generators"] == 36
        assert "s" in report["labels"]

    def test_defaults_to_tqd_when_n_given(self, capsys):
        code, report = invoke(capsys, "model", "build", "--N", "3",
                              "--n", "1", "--L", "3")
        assert code == 0
        assert report["kind"] == "tqd"
        assert report["edge_dims"] == [9]

    def test_bad_factor_is_spec_error(self, capsys):
        code, _ = invoke(capsys, "model", "build", "--N", "6", "--n", "0",
                         "--L", "3")
        assert code == 2


class TestVerify:
    def test_commuting(self, capsys):
        code, report = invoke(capsys, "verify", "commuting", "--type", "ds",
                              "--L", "3")
        assert code == 0
        assert report == {"check": "commuting", "commuting": True}

    def test_scalar(self, capsys):
        code, report = invoke(capsys, "verify", "scalar", "--type", "ds",
                              "--L", "3")
        assert code == 0 and report["consistent"] is True

    def test_degeneracy_ds(self, capsys):
        code, report = invoke(capsys, "verify", "degeneracy", "--type", "ds",
                              "--L", "3")
        assert code == 0
        assert report["logical_dimension"] == report["expected"] == 4

    def test_degeneracy_tc(self, capsys):
        code, report = invoke(capsys, "verify", "degeneracy", "--type", "tc",
                              "--N", "3", "--L", "3")
        assert code == 0 and report["logical_dimension"] == 9

    def test_condensation_equality(self, capsys):
        code, report = invoke(capsys, "verify", "condensation-equality",
                              "--N", "2", "--n", "1", "--L", "3")
        assert code == 0 and report["equal"] is True

    def test_unknown_check_is_usage_error(self, capsys):
        code = run(["verify", "wibble", "--type", "ds"])
        capsys.readouterr()
        assert code == 2


class TestAnyons:
    def test_extract_ds(self, capsys):
        code, report = invoke(capsys, "anyons", "extract", "--type", "ds")
        assert code == 0
        assert report["iso_match"] is True
        assert report["theta"]["1,0"] == "1/4"
        assert report["theta"]["0,1"] == "3/4"

    def test_extract_tc(self, capsys):
        code, report = invoke(capsys, "anyons", "extract", "--type", "tc",
                              "--N", "2")
        assert code == 0
        assert report["iso_match"] is True
        assert report["fusion_orders"] == {"e": 2, "m": 2}


class TestTheory:
    def test_tqd(self, capsys):
        code, report = invoke(capsys, "theory", "tqd", "--N", "2", "--n", "1")
        assert code == 0
        assert report["census"] == {"0/1": 2, "1/4": 1, "3/4": 1}

    def test_condense(self, capsys):
        code, report = invoke(capsys, "theory", "condense", "--N", "2",
                              "--n", "1")
        assert code == 0 and report["matches_tqd"] is True

    def test_iso(self, capsys):
        code, report = invoke(capsys, "theory", "iso", "--N", "3", "--n", "1")
        assert code == 0
        assert report["kmatrix_match"] and report["condensation_match"]

    def test_fusion_group(self, capsys):
        code, report = invoke(capsys, "theory", "fusion-group", "--N", "2,2",
                              "--n", "0,0", "--nij", "0,1,1")
        assert code == 0
        assert report["fusion_group"] == [4, 4]
        assert report["match"] is True

    def test_fusion_group_of_a_large_extension(self, capsys):
        # |G|^2 = 1024^2: the cocycle route reads a presentation, so no
        # size limit applies
        start = time.perf_counter()
        code, report = invoke(capsys, "theory", "fusion-group", "--N",
                              "32,32")
        assert time.perf_counter() - start < 5
        assert code == 0 and report["match"] is True
        assert report["via_cocycle"] == [32, 32, 32, 32]

    def test_lagrangian(self, capsys):
        code, report = invoke(capsys, "theory", "lagrangian", "--N", "2",
                              "--n", "0")
        assert code == 0 and report["count"] == 2  # e and m boundaries

    def test_stack(self, capsys):
        code, report = invoke(capsys, "theory", "stack", "--N", "2",
                              "--n", "0")
        assert code == 0 and report["census"]["0/1"] >= 4

    def test_cocycle(self, capsys):
        code, report = invoke(capsys, "theory", "cocycle", "--N", "2",
                              "--n", "1")
        assert code == 0
        assert report["samples"]["(1,)|(1,)|(1,)"] == "1/2"

    def test_missing_n_is_spec_error(self, capsys):
        code = run(["theory", "tqd"])
        capsys.readouterr()
        assert code == 2


class TestKmatrix:
    def test_build(self, capsys):
        code, report = invoke(capsys, "kmatrix", "build", "--N", "2",
                              "--n", "1")
        assert code == 0 and report["K"] == [[0, 2], [2, -2]]

    def test_build_with_a_zero_pivot_pair(self, capsys):
        # K has a zero diagonal entry whose partner row would cancel a
        # row-and-column addition back to a zero pivot
        code, report = invoke(capsys, "kmatrix", "build", "--N", "3,3",
                              "--n", "2,2", "--nij", "0,1,2")
        assert code == 0 and report["signature"] == 0

    def test_census(self, capsys):
        code, report = invoke(capsys, "kmatrix", "census", "--N", "2,2",
                              "--n", "1,1", "--nij", "0,1,1")
        assert code == 0
        assert report["census"] == {"0/1": 4, "1/4": 6, "3/4": 6}

    def test_condense_check(self, capsys):
        code, report = invoke(capsys, "kmatrix", "condense-check", "--N", "3",
                              "--n", "1")
        assert code == 0 and report["all_identities_hold"] is True

    def test_transform(self, capsys, tmp_path):
        spec = tmp_path / "kw.json"
        spec.write_text(json.dumps(
            {"K": [[0, 2], [2, 0]], "W": [[0, 1], [1, 0]]}))
        code, report = invoke(capsys, "kmatrix", "transform", "--spec",
                              str(spec))
        assert code == 0 and report["K"] == [[0, 2], [2, 0]]

    @pytest.mark.parametrize("spec,key", [
        ({"K": 5, "W": [[1]]}, "K"),
        ({"K": [[2]], "W": None}, "W"),
        ({"K": [[1.5]], "W": [[1]]}, "K"),
        ({"K": [[0, 2], [2, 0]], "W": [["1", 0], [0, 1]]}, "W"),
        ({"K": [[2, True], [1, 2]], "W": [[1, 0], [0, 1]]}, "K"),
        ({"W": [[1]]}, "K"),
    ], ids=["scalar-K", "null-W", "float-K", "string-W", "bool-K",
            "missing-K"])
    def test_transform_rejects_malformed_matrices(self, capsys, tmp_path,
                                                  spec, key):
        path = tmp_path / "kw.json"
        path.write_text(json.dumps(spec))
        code = run(["kmatrix", "transform", "--spec", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert f"spec key {key!r}" in captured.err
        assert "Traceback" not in captured.err

    def test_transform_needs_spec(self, capsys):
        code = run(["kmatrix", "transform"])
        capsys.readouterr()
        assert code == 2

    def test_unreadable_spec(self, capsys, tmp_path):
        code = run(["kmatrix", "build", "--spec", str(tmp_path / "nope.json")])
        capsys.readouterr()
        assert code == 2


class TestSptAndAmplitude:
    def test_spt_cocycle(self, capsys):
        code, report = invoke(capsys, "spt", "cocycle", "--ell", "4",
                              "--Ly", "5")
        assert code == 0
        assert report["omega"]["111"] == "1/2"
        assert report["cocycle_valid"] is True

    def test_appendixa_check(self, capsys):
        code, report = invoke(capsys, "appendixa", "check", "--samples", "5")
        assert code == 0
        assert report["psi_identity"] == {"checked": 5, "ok": True}
        assert report["table1"]["agree"] is True

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_appendixa_check_needs_a_sample(self, capsys, samples):
        # checking nothing is not a pass
        code = run(["appendixa", "check", "--samples", samples])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "--samples must be at least 1" in captured.err


class TestPlumbing:
    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = run(["--out", str(path), "verify", "scalar", "--type", "ds",
                    "--L", "3"])
        capsys.readouterr()
        assert code == 0
        assert json.loads(path.read_text())["consistent"] is True

    def test_missing_subcommand(self, capsys):
        code = run([])
        capsys.readouterr()
        assert code == 2


class TestExitCodes:
    def _raise_noncommuting(self, *args, **kwargs):
        raise NonCommutingError("non-commuting generator pairs: [(0, 1)]")

    def test_failed_verification_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "logical_dimension",
                            self._raise_noncommuting)
        code = run(["verify", "degeneracy", "--type", "ds", "--L", "3"])
        err = capsys.readouterr().err
        assert code == 1
        assert "non-commuting generator pairs" in err

    def test_failed_builder_validation_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(lattice, "build_from_spec",
                            self._raise_noncommuting)
        code = run(["model", "build", "--type", "ds", "--L", "3"])
        capsys.readouterr()
        assert code == 1

    def test_inconsistent_build_exits_1(self, capsys, monkeypatch):
        # one placed vertex term times -1: the builder's check on the group
        # it makes finds a nontrivial scalar
        original = lattice._tile

        def spoiled(model, blocks):
            gens = original(model, blocks)
            gens[0] = multiply(scalar(model.system, model.system.D), gens[0])
            return gens

        monkeypatch.setattr(lattice, "_tile", spoiled)
        code = run(["verify", "scalar", "--type", "ds", "--L", "3"])
        err = capsys.readouterr().err
        assert code == 1
        assert "nontrivial scalar" in err

    def test_spt_has_no_anyons_to_extract(self, capsys):
        code = run(["anyons", "extract", "--type", "spt", "--L", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "no generating labels for model kind 'spt'" in captured.err


class TestOneSpecReader:
    """Every command reads a model spec through the same lattice functions,
    so a spec file and the matching flags give the same model, and a tqd
    spec without N is a spec error everywhere."""

    def _run(self, capsys, *argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("nij", [{"0,1": 1}, {"(0, 1)": 1},
                                     [[0, 1], [1, 0]]])
    def test_spec_file_matches_flags(self, capsys, tmp_path, nij):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"type": "tqd", "N": [2, 2],
                                    "n": [1, 1], "nij": nij, "L": 3}))
        from_file = self._run(capsys, "model", "build", "--spec", str(path))
        from_flags = self._run(capsys, "model", "build", "--type", "tqd",
                               "--N", "2,2", "--n", "1,1", "--nij", "0,1,1",
                               "--L", "3")
        assert from_file == from_flags
        assert from_file[0] == 0

    def test_n_defaults_to_zeros(self, capsys):
        code, report = invoke(capsys, "model", "build", "--type", "tqd",
                              "--N", "2,4", "--L", "3")
        assert code == 0
        assert report["edge_dims"] == [4, 16]
        untwisted = invoke(capsys, "model", "build", "--type", "tqd",
                           "--N", "2,4", "--n", "0,0", "--L", "3")
        assert (code, report) == untwisted

    @pytest.mark.parametrize("argv", [
        ["model", "build"], ["verify", "degeneracy"], ["verify", "scalar"],
        ["verify", "commuting"], ["verify", "condensation-equality"],
        ["anyons", "extract"], ["theory", "tqd"], ["theory", "iso"],
        ["kmatrix", "build"], ["kmatrix", "census"]],
        ids=lambda argv: "-".join(argv))
    def test_missing_N_is_spec_error(self, capsys, argv):
        code, out, err = self._run(capsys, *argv, "--type", "tqd",
                                   "--L", "3")
        assert code == 2
        assert out == ""
        assert "missing --N" in err

    @pytest.mark.parametrize("nij", ["0,5,1", "0,0,1"])
    def test_bad_nij_index_is_spec_error(self, capsys, nij):
        code, out, err = self._run(capsys, "theory", "tqd", "--N", "2,2",
                                   "--n", "1,1", "--nij", nij)
        assert code == 2
        assert out == ""
        assert "nij key" in err

    @pytest.mark.parametrize("nij", ["0,1", "0,1,1,2", "0,1,x",
                                     "0,1,1;1,2"],
                             ids=["too-few", "too-many", "non-integer",
                                  "second-entry"])
    def test_malformed_nij_names_the_entry(self, capsys, nij):
        code, out, err = self._run(capsys, "verify", "condensation-equality",
                                   "--N", "2,2", "--n", "1,1", "--nij", nij)
        assert code == 2
        assert out == ""
        bad = nij.split(";")[-1]
        assert f"--nij entry {bad!r}" in err and "i,j,v;..." in err
        assert "unpack" not in err and "literal" not in err

    @pytest.mark.parametrize("command,spec,message", [
        (["model", "build"], {"type": "tqd", "N": 2, "L": 3},
         "'N' must be a list of integers"),
        (["theory", "tqd"], {"type": "tqd", "N": [2], "n": None},
         "'n' must be a list of integers"),
        (["model", "build"],
         {"type": "tqd", "N": [2, 2], "nij": [[0, 1], [1, "0"]], "L": 3},
         "'nij' must be a list of integers"),
        (["theory", "tqd"], {"type": "tqd", "N": [2, 2], "nij": {"0,1": 1.0}},
         "'nij' must map pairs to integers"),
        (["model", "build"], {"type": "ds", "L": 3.9},
         "'L' must be an integer"),
        (["model", "build"], {"L": True, "Lx": 3},
         "'L' must be an integer"),
        (["verify", "degeneracy"], {"type": "ds", "L": "4"},
         "'L' must be an integer"),
        (["model", "build"], [1, 2], "spec.json must hold a JSON object"),
        (["theory", "tqd"], [1, 2], "spec.json must hold a JSON object"),
        (["model", "build"], None, "spec.json must hold a JSON object"),
        (["theory", "tqd"], None, "spec.json must hold a JSON object"),
    ], ids=["N-int", "n-null", "nij-row-str", "nij-dict-float", "L-float",
            "L-bool", "L-str", "list-model-build", "list-theory-tqd",
            "null-model-build", "null-theory-tqd"])
    def test_malformed_spec_value_is_spec_error(self, capsys, tmp_path,
                                                command, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = self._run(capsys, *command, "--spec", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err
        assert message in err

    def test_tc_takes_one_factor(self, capsys, tmp_path):
        code, out, err = self._run(capsys, "model", "build", "--type", "tc",
                                   "--N", "2,3", "--L", "3")
        assert (code, out) == (2, "")
        assert "one factor" in err
        reports = [invoke(capsys, "model", "build", "--type", "tc", "--N",
                          "6", "--L", "3")]
        for N in (6, [6]):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps({"type": "tc", "N": N, "L": 3}))
            reports.append(invoke(capsys, "model", "build", "--spec",
                                  str(path)))
        assert reports[0][0] == 0 and reports[0][1]["edge_dims"] == [6]
        assert reports == [reports[0]] * 3

    def test_torus_defaults_per_command(self, capsys, monkeypatch):
        # anyons extract falls back to 3 x 3, spt cocycle to (ell + 3) x 6.
        sizes = []

        def report(model, *args):
            sizes.append((model.lattice.Lx, model.lattice.Ly))
            return {"iso_match": True, "cocycle_valid": True}

        monkeypatch.setattr(extraction, "extraction_report", report)
        monkeypatch.setattr(extraction, "spt_report", report)
        for argv in (["anyons", "extract", "--type", "ds", "--Lx", "4"],
                     ["spt", "cocycle", "--ell", "2"],
                     ["spt", "cocycle", "--ell", "2", "--L", "4"]):
            assert self._run(capsys, *argv)[0] == 0
        assert sizes == [(4, 3), (5, 6), (4, 4)]

def test_cli_imports_without_numpy():
    """The library is numpy-free: with numpy blocked by a sys.modules stub,
    tqdstab.cli imports and a counting command runs."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = ("import sys\n"
              "sys.modules['numpy'] = None  # any import of numpy raises\n"
              "import tqdstab.cli\n"
              "sys.exit(tqdstab.cli.run(['verify', 'degeneracy', '--type', "
              "'ds', '--L', '3']))\n")
    out = subprocess.run([sys.executable, "-c", script],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, timeout=120)
    assert out.returncode == 0, out.stderr.decode()
    assert json.loads(out.stdout)["logical_dimension"] == 4


PRESENTATION_ROUTES = Path(__file__).resolve().parent / "data" / \
    "presentation_routes"
ROUTE_PARAMS = {"N2-4": "--N 2,4 --n 1,1 --nij 0,1,1",
                "N3-9": "--N 3,9 --n 1,2 --nij 0,1,2"}


@pytest.mark.parametrize("command", ["theory tqd", "theory condense",
                                     "theory iso", "kmatrix build"])
@pytest.mark.parametrize("tag", sorted(ROUTE_PARAMS))
def test_presentation_routes_are_pinned(capsys, command, tag):
    # Every route to a presented theory (generator data, condensation,
    # K matrix) prints the recorded report byte for byte.
    code = run(f"{command} {ROUTE_PARAMS[tag]}".split())
    out = capsys.readouterr().out
    assert code == 0
    name = f"{command.replace(' ', '_')}_{tag}.json"
    assert out.encode() == (PRESENTATION_ROUTES / name).read_bytes()
