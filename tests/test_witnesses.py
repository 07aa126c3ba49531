"""Witness families, deterministic corpora, body-spec serialization."""

import json
from fractions import Fraction

import pytest

from blichfeldt import counting as ct
from blichfeldt import witnesses as wt
from blichfeldt.counting import Body
from blichfeldt.rng import Rng


def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


class TestSimplexFamily:
    def test_counts_and_volume(self):
        for n in (2, 3, 4):
            for k in (1, 4, 9):
                sk = wt.simplex_Sk(n, k)
                assert sk.volume == Fraction(k, _factorial(n))
                assert ct.count(Body.from_polytope(sk)).count == n + k

    def test_half_translate_count(self):
        for n in (2, 3):
            for k in (1, 5):
                sk = wt.simplex_Sk(n, k)
                t = tuple(Fraction(1, 2) if j == 0 else Fraction(0) for j in range(n))
                assert ct.count(wt.half_translate(sk, t)).count == k

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            wt.simplex_Sk(0, 1)
        with pytest.raises(ValueError):
            wt.simplex_Sk(2, 0)


class TestReeveFamily:
    def test_volume(self):
        for n in (3, 4):
            for m in (1, 2, 5):
                tm = wt.reeve_Tm(n, m)
                assert tm.volume == Fraction(m, _factorial(n))

    def test_counts(self):
        # the long diagonal passes through the interior: m-1 extra points
        # beyond the n+1 vertices
        for n in (3, 4):
            for m in (1, 2, 5):
                tm = wt.reeve_Tm(n, m)
                assert ct.count(Body.from_polytope(tm)).count == n + m

    def test_half_shift_attains_normalized_volume(self):
        # G(v/2 + T_m) = m = n! * vol(T_m)
        for n in (3, 4):
            for m in (1, 2, 5):
                tm = wt.reeve_Tm(n, m)
                body = wt.half_translate(tm, (Fraction(1, 2),) * n)
                assert ct.count(body).count == m
                assert m == _factorial(n) * tm.volume

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            wt.reeve_Tm(2, 3)
        with pytest.raises(ValueError):
            wt.reeve_Tm(3, 0)


class TestHalfTranslate:
    def test_lattice_translate_rejected(self):
        sk = wt.simplex_Sk(2, 1)
        with pytest.raises(ValueError):
            wt.half_translate(sk, (1, 2))


class TestRandomGenerators:
    def test_random_lattice_det_range(self):
        rng = Rng(7)
        for _ in range(20):
            lat = wt.random_lattice(rng, 3, max_abs_det=8)
            assert 1 <= lat.determinant <= 8

    def test_random_hull_full_dimensional(self):
        rng = Rng(11)
        poly = wt.random_hull(rng, 3, 10, 5)
        assert poly.dim == 3
        assert poly.volume > 0


class TestCorpus:
    def test_deterministic(self):
        spec = wt.CorpusSpec(seed=42, num_random_hulls=6, num_random_lattices=2)
        a = wt.build_corpus(spec)
        b = wt.build_corpus(spec)
        assert len(a) == len(b)
        for ea, eb in zip(a, b):
            assert ea.name == eb.name
            assert wt.body_to_dict(ea.body) == wt.body_to_dict(eb.body)

    def test_seed_changes_random_entries(self):
        base = wt.CorpusSpec(seed=1, num_random_hulls=4, num_random_lattices=0)
        other = wt.CorpusSpec(seed=2, num_random_hulls=4, num_random_lattices=0)
        da = [wt.body_to_dict(e.body) for e in wt.build_corpus(base)]
        db = [wt.body_to_dict(e.body) for e in wt.build_corpus(other)]
        assert da != db

    def test_contains_witness_families(self):
        spec = wt.CorpusSpec(seed=0, num_random_hulls=2, num_random_lattices=0)
        names = [e.name for e in wt.build_corpus(spec)]
        assert any(name.startswith("S_k ") for name in names)
        assert any(name.startswith("T_m ") for name in names)
        assert any("+" in name for name in names)  # translates included

    def test_indices_sequential(self):
        spec = wt.CorpusSpec(seed=0, num_random_hulls=2, num_random_lattices=1)
        corpus = wt.build_corpus(spec)
        assert [e.index for e in corpus] == list(range(len(corpus)))


class TestSerialization:
    def _roundtrip(self, body):
        return wt.body_from_dict(json.loads(json.dumps(wt.body_to_dict(body))))

    def test_polytope_roundtrip(self):
        body = Body.from_polytope(wt.simplex_Sk(3, 4))
        back = self._roundtrip(body)
        assert back.kind == "polytope"
        assert back.polytope.vertices == body.polytope.vertices
        assert back.lattice.basis == body.lattice.basis

    def test_translated_roundtrip(self):
        body = wt.half_translate(wt.simplex_Sk(2, 3), (Fraction(1, 2), Fraction(0)))
        back = self._roundtrip(body)
        assert back.kind == "translated_polytope"
        assert back.translate == body.translate

    def test_parallelepiped_roundtrip(self):
        body = Body.parallelepiped(
            [(2, 1), (0, 3)], anchor=(Fraction(1, 3), Fraction(-1, 2))
        )
        back = self._roundtrip(body)
        assert back.generators == body.generators
        assert back.anchor == body.anchor

    def test_ball_roundtrip(self):
        body = Body.ball((Fraction(1, 2), Fraction(0)), Fraction(5, 4))
        back = self._roundtrip(body)
        assert back.center == body.center
        assert back.radius_sq == body.radius_sq

    def test_file_roundtrip(self, tmp_path):
        body = Body.from_polytope(wt.reeve_Tm(3, 2))
        path = str(tmp_path / "body.json")
        wt.save_body(body, path)
        again = wt.load_body(path)
        assert wt.body_to_dict(again) == wt.body_to_dict(body)

    def test_counts_survive_roundtrip(self):
        body = wt.half_translate(wt.simplex_Sk(3, 5), (Fraction(1, 2), 0, 0))
        back = self._roundtrip(body)
        assert ct.count(back).count == ct.count(body).count == 5


class TestSerializationErrors:
    @pytest.mark.parametrize("raw, value", [
        (7, Fraction(7)), (-7, Fraction(-7)), ("7", Fraction(7)), ("-3/4", Fraction(-3, 4)),
        ("6/8", Fraction(3, 4)), ("0/5", Fraction(0)), ("2/01", Fraction(2)),
    ])
    def test_rational_forms(self, raw, value):
        assert wt.str_to_frac(raw, "x") == value

    @pytest.mark.parametrize("raw", [True, False, 1.5, None, [1], "", "1/0", "+1", "1/-2",
                                     " 3", "3 ", "1_0", "1.5", "\u0663", "1/2/3", "-"])
    def test_loose_rationals(self, raw):
        with pytest.raises(wt.BodySpecError) as exc:
            wt.str_to_frac(raw, "x")
        assert exc.value.field_path == "x"

    def test_bad_schema(self):
        with pytest.raises(wt.BodySpecError) as exc:
            wt.body_from_dict({"schema": 99})
        assert exc.value.field_path == "schema"

    def test_missing_lattice(self):
        with pytest.raises(wt.BodySpecError) as exc:
            wt.body_from_dict({"schema": 1})
        assert exc.value.field_path == "lattice.basis"

    def test_bad_rational(self):
        doc = {
            "schema": 1,
            "lattice": {"basis": [["1/0", "0"], ["0", "1"]]},
            "body": {"kind": "polytope", "vertices": [[0, 0], [1, 0], [0, 1]]},
        }
        with pytest.raises(wt.BodySpecError) as exc:
            wt.body_from_dict(doc)
        assert "lattice.basis[0][0]" in str(exc.value)

    def test_unknown_kind(self):
        doc = {
            "schema": 1,
            "lattice": {"basis": [["1", "0"], ["0", "1"]]},
            "body": {"kind": "zonotope"},
        }
        with pytest.raises(wt.BodySpecError) as exc:
            wt.body_from_dict(doc)
        assert exc.value.field_path == "body.kind"

    # a 2D body of each kind that carries a vector besides its lattice
    VECTOR_BODIES = {
        "translate": {"kind": "translated_polytope", "vertices": [[0, 0], [1, 0], [0, 1]]},
        "center": {"kind": "ball", "radius_sq": "4"},
        "anchor": {"kind": "halfopen_parallelepiped", "generators": [[2, 0], [0, 3]]},
    }

    @pytest.mark.parametrize("field", sorted(VECTOR_BODIES))
    @pytest.mark.parametrize("value", [["1/2"], ["1/2", "1/3", "7"], "1/2"],
                             ids=["short", "long", "scalar"])
    def test_vector_of_wrong_length(self, field, value):
        doc = {
            "schema": 1,
            "lattice": {"basis": [["1", "0"], ["0", "1"]]},
            "body": dict(self.VECTOR_BODIES[field], **{field: value}),
        }
        with pytest.raises(wt.BodySpecError) as exc:
            wt.body_from_dict(doc)
        assert exc.value.field_path == f"body.{field}"

    @pytest.mark.parametrize("basis, body, field_path", [
        (3, {"kind": "polytope", "vertices": [[0, 0], [1, 0], [0, 1]]}, "lattice.basis"),
        ([["1", "0"], ["0"]], {"kind": "polytope", "vertices": [[0, 0], [1, 0], [0, 1]]},
         "lattice.basis[1]"),
        ([[1, 0], [0, 1]], {"kind": "polytope", "vertices": [5, 6, 7]}, "body.vertices[0]"),
        ([[1, 0], [0, 1]], {"kind": "polytope", "vertices": [[0, 0], [1, 0], ["1/2", 1]]},
         "body.vertices"),
        ([[1, 0], [0, 1]], {"kind": "halfopen_parallelepiped", "generators": [2, 3]},
         "body.generators[0]"),
    ], ids=["basis-scalar", "basis-ragged", "vertices-scalars", "vertices-fractional",
            "generators-scalars"])
    def test_malformed_shape(self, basis, body, field_path):
        doc = {"schema": 1, "lattice": {"basis": basis}, "body": body}
        with pytest.raises(wt.BodySpecError) as exc:
            wt.body_from_dict(doc)
        assert exc.value.field_path == field_path

    def test_integer_strings_accepted(self):
        doc = {
            "schema": 1,
            "lattice": {"basis": [["1", "0"], ["0", "1"]]},
            "body": {"kind": "polytope", "vertices": [["0", "0"], ["2", "0"], ["0", "2"]]},
        }
        assert ct.count(wt.body_from_dict(doc)).count == 6

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(wt.BodySpecError) as exc:
            wt.load_body(str(path))
        assert "line 1" in str(exc.value)
