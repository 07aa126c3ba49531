"""End-to-end CLI behaviour: subcommands, exit codes, output formats."""

import itertools
import json
import os
import stat
import subprocess
import sys
import threading
import time
from fractions import Fraction

import pytest

from blichfeldt import cli, counting as ct, polytope as pt, witnesses as wt
from blichfeldt.counting import Body
from blichfeldt.lattice import Lattice


@pytest.fixture()
def cube_body(tmp_path):
    poly = pt.hull([(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)])
    path = str(tmp_path / "cube.json")
    wt.save_body(Body.from_polytope(poly), path)
    return path


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_cube(self, capsys, cube_body):
        code, out, _ = _run(capsys, ["count", "--body", cube_body])
        assert code == 0
        assert out.strip() == "count: 27"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["count", "--body", str(tmp_path / "nope.json")])
        assert code == cli.EXIT_USAGE
        assert "error:" in err

    def test_malformed_body(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 1}')
        code, _, err = _run(capsys, ["count", "--body", str(path)])
        assert code == cli.EXIT_USAGE
        assert "lattice.basis" in err

    @pytest.mark.parametrize("lattice, body, field", [
        ([[1, 0], [0, 1]],
         {"kind": "translated_polytope", "vertices": [[0, 0], [1, 0], [0, 1]],
          "translate": ["1/2"]},
         "body.translate"),
        ([[1, 0], [0, 1]], {"kind": "polytope", "vertices": [5, 6, 7]}, "body.vertices"),
        (3, {"kind": "polytope", "vertices": [[0, 0], [1, 0], [0, 1]]}, "lattice.basis"),
        # a rational is a JSON integer, not a bool, or "-?digits(/digits)?"
        ([[True, 0], [0, 1]], {"kind": "polytope", "vertices": [[0, 0], [1, 0], [0, 1]]},
         "lattice.basis[0][0]: not a rational"),
        ([[1, 0], [0, 1]], {"kind": "polytope", "vertices": [[0, 0], [1, 0], [0, "1_0"]]},
         "body.vertices[2][1]: not a rational"),
        ([[" 3", 0], [0, 1]], {"kind": "polytope", "vertices": [[0, 0], [1, 0], [0, 1]]},
         "lattice.basis[0][0]: not a rational"),
        ([[1, 0], [0, 1]],
         {"kind": "translated_polytope", "vertices": [[0, 0], [1, 0], [0, 1]],
          "translate": ["1/2", "1/-2"]},
         "body.translate[1]: not a rational"),
    ], ids=["translate-short", "vertices-scalars", "basis-scalar", "bool", "underscore",
            "space", "negative-denominator"])
    def test_malformed_field_named(self, capsys, tmp_path, lattice, body, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 1, "lattice": {"basis": lattice}, "body": body}))
        code, out, err = _run(capsys, ["count", "--body", str(path)])
        assert code == cli.EXIT_USAGE and out == ""
        assert field in err

    def test_out_file(self, capsys, cube_body, tmp_path):
        target = str(tmp_path / "result.txt")
        code, out, _ = _run(capsys, ["count", "--body", cube_body, "--out", target])
        assert code == 0 and out == ""
        assert open(target).read().strip() == "count: 27"

    def test_out_fifo_written_in_place(self, capsys, cube_body, tmp_path):
        fifo = str(tmp_path / "pipe")
        os.mkfifo(fifo)
        got = []

        def read():
            with open(fifo, encoding="utf-8") as fh:
                got.append(fh.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        code, out, _ = _run(capsys, ["count", "--body", cube_body, "--out", fifo])
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert code == 0 and out == ""
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert got == ["count: 27\n"]


class TestMeasure:
    def test_cube(self, capsys, cube_body):
        code, out, _ = _run(capsys, ["measure", "--body", cube_body])
        assert code == 0
        fields = dict(
            line.split(": ", 1) for line in out.strip().splitlines()
        )
        assert fields["dimension"] == "3"
        assert fields["volume"] == "8/1"
        assert fields["surface_area"] == "24/1"
        assert fields["V1"] == "6/1"
        assert fields["V2"] == "12/1"
        assert fields["V3"] == "8/1"

    @pytest.mark.parametrize("e", (80, 200))
    def test_nearly_flat_dihedral_angle(self, capsys, tmp_path, e):
        # the base meets each side at cos^2 = N^2 / (N^2 + 1), N = 2^e: for a
        # 128-bit V1, 1 - cos^2 rounds to 0 on its 2^-160 grid (e = 80), and
        # cos's enclosure reaches -1 (e = 200)
        n = 2**e
        poly = pt.hull([(0, 0, 0), (2 * n, 0, 0), (0, 2 * n, 0), (2 * n, 2 * n, 0), (n, n, 1)])
        path = str(tmp_path / "pyramid.json")
        wt.save_body(Body.from_polytope(poly), path)
        code, out, err = _run(capsys, ["measure", "--body", path])
        assert (code, err) == (0, "")
        v1 = wt.load_body(path).polytope.intrinsic_volumes.v1
        coarse, fine = v1(128), v1(512)
        assert coarse.lo <= fine.lo <= fine.hi <= coarse.hi
        assert f"V1: [{coarse.lo}, {coarse.hi}]@128" in out.splitlines()


class TestCheck:
    def test_holds(self, capsys, cube_body):
        code, out, _ = _run(
            capsys, ["check", "--id", "MAIN_THM_1_1", "--body", cube_body]
        )
        assert code == 0
        assert "verdict: Holds" in out

    def test_equality_exit_zero(self, capsys, tmp_path):
        body = wt.half_translate(wt.reeve_Tm(3, 5), (Fraction(1, 2),) * 3)
        path = str(tmp_path / "t.json")
        wt.save_body(body, path)
        code, out, _ = _run(
            capsys, ["check", "--id", "TRANSLATE_LEMMA_1_3", "--body", path]
        )
        assert code == 0
        assert "verdict: HoldsWithEquality" in out
        assert "lhs: 5/1" in out and "rhs: 5/1" in out

    def test_unknown_id_rejected(self, capsys, cube_body):
        code, _, err = _run(capsys, ["check", "--id", "NOPE", "--body", cube_body])
        assert code == cli.EXIT_USAGE
        assert "MAIN_THM_1_1" in err and "GENERAL_THM_4_1" in err

    def test_shortest_vector_dimension_cap(self, tmp_path):
        # lambda_1 of the polar lattice is computed for n <= SVP_MAX_DIM only;
        # above it the answer is OutOfScope and exit 0, not a traceback
        path = str(tmp_path / "s7.json")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        for argv in (["witness", "--family", "simplex_Sk", "--n", "7", "--k", "1",
                      "--out", path],
                     ["check", "--id", "CONJECTURE_1_4", "--body", path]):
            proc = subprocess.run([sys.executable, "-m", "blichfeldt.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=60, check=False)
            assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[1] == "verdict: OutOfScope"
        assert lines[-1] == "note: shortest-vector computation limited to n <= 6"


class TestAudit:
    def test_cube(self, capsys, cube_body):
        code, out, _ = _run(capsys, ["audit", "--body", cube_body])
        assert code == 0
        assert "points: 27" in out
        assert "interior_layer: 1" in out
        assert "all_ok: True" in out

    def test_budget_exhausted(self, capsys, cube_body):
        code, out, err = _run(capsys, ["audit", "--body", cube_body, "--budget", "2"])
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "budget" in err

    def test_requires_dimension_two(self, tmp_path):
        # a 1D prism is an endpoint and its strict bound #Q_i < 1 cannot
        # hold: the audit refuses the segment as a usage error, not exit 1
        path = str(tmp_path / "segment.json")
        wt.save_body(Body.from_polytope(pt.hull([(0,), (5,)])), path)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        proc = subprocess.run([sys.executable, "-m", "blichfeldt.cli", "audit", "--body", path],
                              env=env, capture_output=True, text=True, timeout=30, check=False)
        assert proc.returncode == cli.EXIT_USAGE
        assert proc.stdout == ""
        assert "audit requires dimension >= 2" in proc.stderr

    def test_requires_untranslated(self, capsys, tmp_path):
        body = wt.half_translate(wt.simplex_Sk(3, 1), (Fraction(1, 2), 0, 0))
        path = str(tmp_path / "t.json")
        wt.save_body(body, path)
        code, *_ = _run(capsys, ["audit", "--body", path])
        assert code == cli.EXIT_USAGE


class TestWitness:
    def test_simplex_roundtrip(self, capsys, tmp_path):
        path = str(tmp_path / "w.json")
        code, *_ = _run(
            capsys,
            ["witness", "--family", "simplex_Sk", "--n", "3", "--k", "4",
             "--out", path],
        )
        assert code == 0
        body = wt.load_body(path)
        assert body.kind == "polytope"
        assert ct.count(body).count == 7

    def test_translated_reeve(self, capsys, tmp_path):
        path = str(tmp_path / "w.json")
        code, *_ = _run(
            capsys,
            ["witness", "--family", "reeve_Tm", "--n", "3", "--m", "4",
             "--translate", "--out", path],
        )
        assert code == 0
        body = wt.load_body(path)
        assert body.kind == "translated_polytope"
        assert ct.count(body).count == 4

    def test_missing_parameter(self, capsys):
        code, *_ = _run(capsys, ["witness", "--family", "simplex_Sk", "--n", "3"])
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("family, n, flag, value", [
        ("simplex_Sk", "0", "--k", "1"), ("simplex_Sk", "3", "--k", "0"),
        ("reeve_Tm", "0", "--m", "1"), ("reeve_Tm", "3", "--m", "0"),
    ])
    def test_out_of_range_parameter(self, capsys, family, n, flag, value):
        # a usage error (exit 2), never exit 1, the code of a violated inequality
        code, out, err = _run(capsys, ["witness", "--family", family, "--n", n, flag, value])
        assert code == cli.EXIT_USAGE
        assert out == "" and "error:" in err and "Traceback" not in err


class TestFileErrors:
    """A file the CLI cannot read or write is an input error: exit 2 with
    the path named, not a traceback and exit 1, the code of a violated
    inequality."""

    @pytest.mark.parametrize("case", [
        "witness-out-in-missing-folder", "count-out-is-folder", "count-body-is-folder",
        "corpus-spec-is-folder", "corpus-spec-not-utf8", "count-body-not-utf8",
    ])
    def test_exit_usage_naming_the_path(self, capsys, cube_body, tmp_path, case):
        folder = tmp_path / "folder"
        folder.mkdir()
        missing = str(tmp_path / "missing" / "x.json")
        binary = tmp_path / "binary.json"
        binary.write_bytes(b'{"seed": 1\xff}')
        argv, path = {
            "witness-out-in-missing-folder": (
                ["witness", "--family", "simplex_Sk", "--n", "2", "--k", "1", "--out", missing],
                missing),
            "count-out-is-folder": (["count", "--body", cube_body, "--out", str(folder)], folder),
            "count-body-is-folder": (["count", "--body", str(folder)], folder),
            "corpus-spec-is-folder": (["corpus", "--spec", str(folder)], folder),
            "corpus-spec-not-utf8": (["corpus", "--spec", str(binary)], binary),
            "count-body-not-utf8": (["count", "--body", str(binary)], binary),
        }[case]
        code, out, err = _run(capsys, argv)
        assert code == cli.EXIT_USAGE
        assert out == "" and err.startswith("error:") and str(path) in err
        assert not os.path.exists(os.path.dirname(missing))


    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["witness", "corpus-csv"])
    def test_full_stdout(self, tmp_path, command):
        # a report that cannot be written is an input error, not exit 1
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 5, "dimensions": [2], "num_random_hulls": 2,
                                    "points_per_hull": 8, "coord_bound": 4,
                                    "k_values": [1], "m_values": [1]}))
        argv = {"witness": ["witness", "--family", "reeve_Tm", "--n", "3", "--m", "5"],
                "corpus-csv": ["corpus", "--spec", str(spec), "--format", "csv"]}[command]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        # block-buffered, as by default: a short report fails only on flush
        env.pop("PYTHONUNBUFFERED", None)
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "blichfeldt.cli", *argv], env=env,
                                  stdout=full, stderr=subprocess.PIPE, text=True,
                                  timeout=60, check=False)
        assert proc.returncode == cli.EXIT_USAGE
        assert proc.stderr.startswith("error: standard output: ")
        assert len(proc.stderr.splitlines()) == 1


class TestCorpus:
    def _spec_file(self, tmp_path, **overrides):
        doc = {
            "seed": 5,
            "dimensions": [2],
            "num_random_hulls": 2,
            "points_per_hull": 8,
            "coord_bound": 4,
            "k_values": [1, 2],
            "m_values": [1],
            "num_random_lattices": 0,
        }
        doc.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_human_format(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        code, out, _ = _run(
            capsys, ["corpus", "--spec", spec, "--ids", "BLICHFELDT_1_1"]
        )
        assert code == 0
        assert "violations: 0" in out

    def test_json_format_deterministic(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        argv = ["corpus", "--spec", spec, "--ids", "BLICHFELDT_1_1",
                "--format", "json"]
        code_a, out_a, _ = _run(capsys, argv)
        code_b, out_b, _ = _run(capsys, argv)
        assert code_a == code_b == 0
        assert out_a == out_b
        doc = json.loads(out_a)
        assert doc["violations"] == []

    def test_csv_to_file(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        target = str(tmp_path / "report.csv")
        code, *_ = _run(
            capsys,
            ["corpus", "--spec", spec, "--ids", "BLICHFELDT_1_1",
             "--format", "csv", "--out", target],
        )
        assert code == 0
        lines = open(target).read().strip().splitlines()
        assert lines[0].startswith("index,body,id,verdict")
        assert len(lines) > 1

    def test_seed_flag_overrides(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        argv = ["corpus", "--spec", spec, "--ids", "BLICHFELDT_1_1",
                "--format", "csv"]
        _, base, _ = _run(capsys, argv)
        _, other, _ = _run(capsys, argv + ["--seed", "77"])
        assert base != other

    def test_unknown_field_rejected(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path, extra_knob=1)
        code, _, err = _run(
            capsys, ["corpus", "--spec", spec, "--ids", "BLICHFELDT_1_1"]
        )
        assert code == cli.EXIT_USAGE
        assert "extra_knob" in err

    @pytest.mark.parametrize("override, field", [
        ({"dimensions": 3}, "dimensions"),
        ({"dimensions": [7]}, "dimensions"),
        ({"dimensions": []}, "dimensions"),
        ({"seed": "x"}, "seed"),
        ({"include_translates": 1}, "include_translates"),
    ], ids=["dimensions-scalar", "dimensions-7", "dimensions-empty", "seed-string",
            "translates-integer"])
    def test_malformed_field_named(self, capsys, tmp_path, override, field):
        spec = self._spec_file(tmp_path, **override)
        code, out, err = _run(capsys, ["corpus", "--spec", spec])
        assert code == cli.EXIT_USAGE and out == ""
        assert f"{field}:" in err

    # values no generator can meet: each ended in a traceback with exit 1
    @pytest.mark.parametrize("override, field", [
        ({"k_values": [0]}, "k_values"),
        ({"dimensions": [2, 3], "m_values": [0]}, "m_values"),
        ({"points_per_hull": 0}, "points_per_hull"),
        ({"points_per_hull": 2}, "points_per_hull"),
        ({"dimensions": [2, 3], "points_per_hull": 3}, "points_per_hull"),
        ({"num_random_hulls": 0, "num_random_lattices": 1, "points_per_hull": 2},
         "points_per_hull"),
        ({"coord_bound": -1}, "coord_bound"),
        ({"coord_bound": 0}, "coord_bound"),
        ({"num_random_lattices": 1, "lattice_max_abs_det": 0}, "lattice_max_abs_det"),
    ], ids=["k-0", "m-0", "points-0", "points-2", "points-3-in-3d", "points-lattice-hulls",
            "coord-negative", "coord-0", "det-0"])
    def test_unmeetable_value_named(self, capsys, tmp_path, override, field):
        spec = self._spec_file(tmp_path, **override)
        code, out, err = _run(capsys, ["corpus", "--spec", spec, "--ids", "BLICHFELDT_1_1"])
        assert code == cli.EXIT_USAGE and out == ""
        assert f"{field}:" in err and "Traceback" not in err

    # a value is refused only where a generator would be given it
    @pytest.mark.parametrize("override", [
        {"m_values": [0]},                                  # no T_m in 2D
        {"points_per_hull": 3},                             # a triangle in 2D
        {"num_random_hulls": 0, "coord_bound": -1},
        {"lattice_max_abs_det": 0},                         # no random lattices
    ], ids=["m-0-in-2d", "points-3-in-2d", "coord-unused", "det-unused"])
    def test_unused_or_meetable_value_accepted(self, capsys, tmp_path, override):
        spec = self._spec_file(tmp_path, **override)
        code, out, _ = _run(capsys, ["corpus", "--spec", spec, "--ids", "BLICHFELDT_1_1"])
        assert code == 0 and "violations: 0" in out


class TestFlags:
    """A subcommand takes only the flags it reads; any other is a usage error."""

    @pytest.mark.parametrize("argv", [
        ["count", "--format", "json"],
        ["audit", "--format", "csv"],
        ["measure", "--seed", "3"],
        ["count", "--precision-max-bits", "256"],
        ["check", "--id", "MAIN_THM_1_1", "--format", "json"],
    ])
    def test_unread_flag_rejected(self, capsys, cube_body, argv):
        code, out, _ = _run(capsys, argv + ["--body", cube_body])
        assert code == cli.EXIT_USAGE and out == ""

    @pytest.mark.parametrize("command", ["check", "corpus"])
    @pytest.mark.parametrize("bits", ["127", "4097", "-1", "lots"])
    def test_precision_cap_out_of_range(self, capsys, cube_body, command, bits):
        # below 128 bits no comparison runs; above MAX_BITS nothing bounds it
        argv = {"check": ["check", "--id", "MAIN_THM_1_1", "--body", cube_body],
                "corpus": ["corpus", "--spec", cube_body]}[command]
        code, out, err = _run(capsys, argv + ["--precision-max-bits", bits])
        assert code == cli.EXIT_USAGE and out == ""
        assert "--precision-max-bits" in err

    @pytest.mark.parametrize("command", ["check", "corpus"])
    @pytest.mark.parametrize("bits", ["\u0661\u0662\u0668", "\uff11\uff12\uff18"],
                             ids=["arabic-indic", "full-width"])
    def test_precision_cap_ascii_only(self, capsys, cube_body, command, bits):
        # 128 in Arabic-Indic and in full-width digits: int() reads both
        argv = {"check": ["check", "--id", "MAIN_THM_1_1", "--body", cube_body],
                "corpus": ["corpus", "--spec", cube_body]}[command]
        code, out, err = _run(capsys, argv + ["--precision-max-bits", bits])
        assert code == cli.EXIT_USAGE and out == ""
        assert "--precision-max-bits" in err

    @pytest.mark.parametrize("bits", ["128", "4096"])
    def test_precision_cap_bounds_accepted(self, capsys, cube_body, bits):
        argv = ["check", "--id", "MAIN_THM_1_1", "--body", cube_body, "--precision-max-bits", bits]
        assert _run(capsys, argv)[0] == cli.EXIT_OK

    def test_witness_takes_no_budget(self, capsys):
        argv = ["witness", "--family", "simplex_Sk", "--n", "3", "--k", "2", "--budget", "5"]
        assert _run(capsys, argv)[0] == cli.EXIT_USAGE

    @pytest.mark.parametrize("family, flags, stray", [
        ("simplex_Sk", ["--k", "2", "--m", "5"], "--m"),
        ("reeve_Tm", ["--m", "2", "--k", "9"], "--k"),
    ])
    def test_witness_takes_only_its_family_flag(self, capsys, family, flags, stray):
        code, out, err = _run(capsys, ["witness", "--family", family, "--n", "3", *flags])
        assert (code, out) == (cli.EXIT_USAGE, "")
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and stray in errors[0]


    @pytest.mark.parametrize("text", ["\u0663", "1_0", " 7", "+3"],
                             ids=["arabic-indic", "underscore", "padded", "plus"])
    @pytest.mark.parametrize("flag", ["--seed", "--n", "--k", "--m"])
    def test_integer_flags_ascii_only(self, capsys, tmp_path, flag, text):
        # int() reads all four (3, 10, 7 and 3); each is one usage error line
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 5, "dimensions": [2], "num_random_hulls": 1,
                                    "points_per_hull": 6, "coord_bound": 3}))
        argv = {"--seed": ["corpus", "--spec", str(spec), "--ids", "BLICHFELDT_1_1"],
                "--n": ["witness", "--family", "simplex_Sk", "--k", "2"],
                "--k": ["witness", "--family", "simplex_Sk", "--n", "3"],
                "--m": ["witness", "--family", "reeve_Tm", "--n", "3"]}[flag]
        assert _run(capsys, argv + [flag, "3"])[0] == cli.EXIT_OK
        code, out, err = _run(capsys, argv + [flag, text])
        assert (code, out) == (cli.EXIT_USAGE, "")
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and flag in errors[0]

    def test_negative_seed(self, capsys, tmp_path):
        # a spec file's seed may be negative, and so may --seed
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": -5, "dimensions": [2], "num_random_hulls": 1,
                                    "points_per_hull": 6, "coord_bound": 3}))
        argv = ["corpus", "--spec", str(spec), "--ids", "BLICHFELDT_1_1", "--format", "csv"]
        _, from_file, _ = _run(capsys, argv)
        code, from_flag, _ = _run(capsys, argv + ["--seed", "-5"])
        assert code == cli.EXIT_OK and from_flag == from_file


class TestExitCodes:
    """Exit 1 for a proved inequality VIOLATED, 3 for a comparison left
    inconclusive at the precision cap; ``GENERAL_1_3_i``'s sides are
    replaced by ones with a known comparison."""

    @pytest.fixture()
    def sides(self, monkeypatch):
        from blichfeldt import harness as hz

        def use(lhs, rhs):
            monkeypatch.setitem(hz.INEQUALITIES, hz.InequalityId.GENERAL_1_3_i,
                                hz.Inequality(lambda s: (lhs, rhs)))
        return use

    def _corpus(self, capsys, tmp_path, *flags):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 5, "dimensions": [2], "num_random_hulls": 0,
                                    "k_values": [1], "include_translates": False,
                                    "num_random_lattices": 0}))
        code, out, _ = _run(capsys, ["corpus", "--spec", str(spec), "--ids", "GENERAL_1_3_i",
                                     "--format", "json", *flags])
        return code, json.loads(out)

    def test_violated(self, capsys, tmp_path, cube_body, sides):
        sides(2, 1)
        code, out, _ = _run(capsys, ["check", "--id", "GENERAL_1_3_i", "--body", cube_body])
        assert code == cli.EXIT_VIOLATED and "verdict: VIOLATED" in out
        code, doc = self._corpus(capsys, tmp_path)
        assert code == cli.EXIT_VIOLATED
        [violation] = doc["violations"]
        assert violation["id"] == "GENERAL_1_3_i"
        assert wt.body_from_dict(violation["body_spec"]).kind == "polytope"

    def test_inconclusive(self, capsys, tmp_path, cube_body, sides):
        from blichfeldt.radical import RadicalSum

        sides(RadicalSum({4: Fraction(1)}), 2)   # sqrt(4) against 2: never separates
        argv = ["check", "--id", "GENERAL_1_3_i", "--body", cube_body,
                "--precision-max-bits", "128"]
        code, out, _ = _run(capsys, argv)
        assert code == cli.EXIT_INCONCLUSIVE and "verdict: Inconclusive" in out
        code, doc = self._corpus(capsys, tmp_path, "--precision-max-bits", "128")
        assert code == cli.EXIT_INCONCLUSIVE
        [row] = doc["rows"]
        assert row["verdict"] == "Inconclusive" and row["precision_bits"] == 128
        assert doc["violations"] == []

    def test_audit_failed_bound(self, capsys, cube_body, monkeypatch):
        from blichfeldt import harness as hz

        monkeypatch.setattr(hz, "_prism_bound_ok", lambda *args: False)
        code, out, _ = _run(capsys, ["audit", "--body", cube_body])
        assert code == cli.EXIT_VIOLATED
        assert "prism_bounds_ok: False" in out and "all_ok: False" in out


class TestBudgetPlumbing:
    def test_flag(self, capsys, cube_body):
        code, _, err = _run(
            capsys, ["count", "--body", cube_body, "--budget", "2"]
        )
        assert code == cli.EXIT_USAGE
        assert "budget" in err

    def test_env_fallback(self, capsys, cube_body, monkeypatch):
        monkeypatch.setenv("BLICH_BUDGET", "2")
        code, _, err = _run(capsys, ["count", "--body", cube_body])
        assert code == cli.EXIT_USAGE
        assert "budget=2" in err

    def test_flag_beats_env(self, capsys, cube_body, monkeypatch):
        monkeypatch.setenv("BLICH_BUDGET", "2")
        code, out, _ = _run(
            capsys, ["count", "--body", cube_body, "--budget", "100000"]
        )
        assert code == 0
        assert out.strip() == "count: 27"

    def test_hull_of_many_listed_vertices(self, capsys, tmp_path):
        # all 343 lattice points of [0,6]^3 listed as vertices: counting the
        # box fits a budget of 5000, placing the points in the hull does not
        pts = [list(p) for p in itertools.product(range(7), repeat=3)]
        doc = wt.body_to_dict(Body.from_polytope(pt.hull(pts)))
        doc["body"]["vertices"] = pts
        path = tmp_path / "many.json"
        path.write_text(json.dumps(doc))
        code, _, err = _run(capsys, ["count", "--body", str(path), "--budget", "5000"])
        assert code == cli.EXIT_USAGE
        assert "budget" in err
        code, out, _ = _run(capsys, ["count", "--body", str(path)])
        assert code == 0
        assert out.strip() == "count: 343"

    def test_ball_count_over_budget(self, capsys, tmp_path):
        # the unit ball of Z^3 takes 15 candidate coordinates
        path = str(tmp_path / "ball.json")
        wt.save_body(Body.ball((0, 0, 0), 1), path)
        code, out, err = _run(capsys, ["count", "--body", path, "--budget", "14"])
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "budget" in err
        code, out, _ = _run(capsys, ["count", "--body", path, "--budget", "15"])
        assert code == 0
        assert out.strip() == "count: 7"

    def test_high_dimensional_cell_over_budget(self, tmp_path):
        # a 22-D half-open cell: its box comes from the generators' signs,
        # not from 2^22 corners, so the budget check comes at once
        n = 22
        gens = [[1 if j == i else 2 * (j == i + 1) for j in range(n)] for i in range(n)]
        path = str(tmp_path / "cell22.json")
        wt.save_body(Body.parallelepiped(gens), path)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        argv = ["count", "--body", path, "--budget", "10"]
        proc = subprocess.run([sys.executable, "-m", "blichfeldt.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=30, check=False)
        assert proc.returncode == cli.EXIT_USAGE
        assert proc.stdout == ""
        assert "budget" in proc.stderr

    def test_check_count_over_budget(self, capsys, tmp_path):
        # S_30 in Z^3: counting its box [0,30] x [0,1]^2 takes 124 cells
        path = str(tmp_path / "s30.json")
        argv = ["witness", "--family", "simplex_Sk", "--n", "3", "--k", "30", "--out", path]
        assert _run(capsys, argv)[0] == 0
        code, out, err = _run(
            capsys, ["check", "--id", "MAIN_THM_1_1", "--body", path, "--budget", "50"]
        )
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "budget" in err

    def test_check_lattice_invariants_over_budget(self, capsys, tmp_path):
        # conv{0, e1, e2, e3} over a skewed basis of determinant k + 1: the
        # enumerations behind its covering radius exceed 10^5 nodes
        k = 30
        lattice = Lattice([[k, 1, 0], [k + 1, 1, 1], [k * k, k, k + 1]])
        corners = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        path = str(tmp_path / "skewed.json")
        wt.save_body(Body.from_polytope(pt.hull(corners, lattice=lattice)), path)
        start = time.perf_counter()
        code, out, err = _run(
            capsys, ["check", "--id", "GENERAL_THM_4_1", "--body", path, "--budget", "100000"]
        )
        assert time.perf_counter() - start < 10
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "budget" in err

    def test_measure_radicand_with_large_prime_factors(self, tmp_path):
        # u^2 + v^2 is the product of two 56-bit primes: trial division
        # leaves it whole instead of factoring it without bound
        u, v = 34476230604265470, 17979772483594771
        path = str(tmp_path / "triangle.json")
        wt.save_body(Body.from_polytope(pt.hull([(0, 0), (u, v), (u, v + 1)])), path)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        argv = ["measure", "--body", path, "--budget", "1000"]
        proc = subprocess.run([sys.executable, "-m", "blichfeldt.cli", *argv],
                              env=env, capture_output=True, timeout=30, check=False)
        assert proc.returncode == 0

    def test_bad_env_value(self, capsys, cube_body, monkeypatch):
        monkeypatch.setenv("BLICH_BUDGET", "lots")
        code, _, err = _run(capsys, ["count", "--body", cube_body])
        assert code == cli.EXIT_USAGE
        assert "BLICH_BUDGET" in err

    def test_negative_env_value(self, capsys, cube_body, monkeypatch):
        # a usage error naming the variable, not an exceeded budget
        monkeypatch.setenv("BLICH_BUDGET", "-5")
        code, _, err = _run(capsys, ["count", "--body", cube_body])
        assert code == cli.EXIT_USAGE
        assert "BLICH_BUDGET" in err and "budget=" not in err

    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize("text", ["\u0661\u0660\u0660\u0660", "\uff11\uff10\uff10\uff10"],
                             ids=["arabic-indic", "full-width"])
    def test_non_ascii_digits(self, capsys, cube_body, monkeypatch, source, text):
        # 1000 in Arabic-Indic and in full-width digits: a usage error naming
        # the flag or the variable, not a count under a budget of 1000
        argv = ["count", "--body", cube_body]
        if source == "flag":
            argv += ["--budget", text]
        else:
            monkeypatch.setenv("BLICH_BUDGET", text)
        code, out, err = _run(capsys, argv)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert {"flag": "--budget", "env": "BLICH_BUDGET"}[source] in err

    @pytest.mark.parametrize("command", ["count", "measure", "check", "audit"])
    def test_negative_flag(self, capsys, cube_body, command):
        argv = [command, "--body", cube_body, "--budget", "-5"]
        if command == "check":
            argv += ["--id", "MAIN_THM_1_1"]
        code, out, err = _run(capsys, argv)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert "--budget" in err and "budget=" not in err


class TestUsage:
    def test_count_and_witness_skip_harness(self, cube_body, tmp_path):
        # the checkers are imported only by the commands that use them
        out = str(tmp_path / "s2.json")
        code = (
            "import sys; from blichfeldt import cli; "
            f"assert cli.main(['count', '--body', {cube_body!r}]) == 0; "
            "assert cli.main(['witness', '--family', 'simplex_Sk', '--n', '3', "
            f"'--k', '2', '--out', {out!r}]) == 0; "
            "assert 'blichfeldt.harness' not in sys.modules; "
            f"assert cli.main(['audit', '--body', {cube_body!r}]) == 0; "
            "assert 'blichfeldt.harness' in sys.modules"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=30, check=False)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("command, unused", [
        ("count", ["harness", "radical", "rng"]),
        ("measure", ["harness", "rng"]),
    ])
    def test_command_loads_only_its_modules(self, tmp_path, command, unused):
        poly = pt.hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        path = str(tmp_path / "simplex.json")
        wt.save_body(Body.from_polytope(poly), path)
        code = (
            "import sys; from blichfeldt import cli; "
            f"assert cli.main([{command!r}, '--body', {path!r}]) == 0; "
            "print(*sorted(m for m in sys.modules if m.startswith('blichfeldt.')))"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=30, check=False)
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.split()
        assert "blichfeldt.counting" in loaded
        assert [m for m in unused if f"blichfeldt.{m}" in loaded] == []

    def test_import_skips_dataclasses(self):
        # the records are NamedTuples: a CLI process loads neither
        # dataclasses nor inspect (-S: no site hooks of the environment)
        code = (
            "import sys, blichfeldt.cli, blichfeldt.harness; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                              capture_output=True, text=True, timeout=30, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_no_command(self, capsys):
        assert cli.main([]) == cli.EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()
