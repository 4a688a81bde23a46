"""The file loaders parse each distinct scalar text once per document.

``scalars.scalar_reader`` keeps what it parsed for one load.  The loaders
must give what a load that calls ``parse_scalar`` on every field gives: the
same values and types, and the same refusals at the same locations.
"""

import json
from contextlib import contextmanager
from fractions import Fraction as F
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from skewhom import algebra, cohomology, representation
from skewhom.algebra import HomAlgebra, load_algebra, save_algebra
from skewhom.cohomology import load_cochain
from skewhom.errors import FileFormatError
from skewhom.linalg import identity
from skewhom.representation import load_representation
from skewhom.scalars import QuadExt, parse_scalar, quadratic_backend, rational_backend, scalar_reader

# theta = 3/4 is the degenerate ring: 1 + theta^2 = 25/16 is a square
BACKENDS = (rational_backend(), quadratic_backend(F(1, 2)), quadratic_backend(F(3, 4)))

# few texts, so a document repeats them; "1" and 1 are one value in two types
TEXTS = ("0", "0", "1", 1, "-1", -1, 0, "1/2", "3/4", "-2/3", "1e2", " 5 ")
QUADRATIC = ({"a": "1", "b": "0"}, {"a": 1, "b": "1/2"}, {"a": "0", "b": "1"},
             {"a": "1", "b": "1", "note": "extra"}, {"b": "-1", "a": 0})
BAD = (True, False, 1.0, 0.5, "1/0", "1e4301", "x", [], None, {"a": "1"}, {"b": "1"},
       {"a": 1.0, "b": "0"}, {"a": "1/0", "b": "0"}, {"a": [], "b": "0"})


def fields(draw, backend):
    """A field drawer for one document: its backend's texts, and in half the
    documents now and then a field that every load refuses."""
    good = TEXTS + QUADRATIC if backend.kind == "quadratic" else TEXTS
    pool = st.sampled_from(good)
    if draw(st.booleans()):
        pool = st.one_of(*[pool] * 9, st.sampled_from(BAD + QUADRATIC))
    return lambda: draw(pool)


@contextmanager
def each_field_parsed():
    """The loaders with a reader that calls ``parse_scalar`` on every field."""

    def reader(backend):
        return lambda obj: parse_scalar(obj, backend)

    with patch.object(algebra, "scalar_reader", reader), \
            patch.object(representation, "scalar_reader", reader), \
            patch.object(cohomology, "scalar_reader", reader):
        yield


def outcome(load, *args):
    try:
        return repr(load(*args))
    except Exception as exc:  # the refusal, compared by type and message
        return f"{type(exc).__name__}: {exc}"


def matches_each_field_parsed(load, *args):
    got = outcome(load, *args)
    with each_field_parsed():
        assert got == outcome(load, *args)
    return got


def square(n, field):
    return [[field() for _ in range(n)] for _ in range(n)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_the_algebra_loader_matches_a_load_parsing_every_field(tmp_path_factory, data):
    draw = data.draw
    backend = draw(st.sampled_from(BACKENDS))
    field = fields(draw, backend)
    n = draw(st.integers(1, 4))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    doc = {
        "dim": n,
        "backend": backend.to_json(),
        "bracket": [{"i": i, "j": j, "value": [field() for _ in range(n)]} for i, j in pairs],
        "twist": square(n, field),
    }
    path = tmp_path_factory.mktemp("alg") / "algebra.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    matches_each_field_parsed(load_algebra, path)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_the_representation_loader_matches_a_load_parsing_every_field(tmp_path_factory, data):
    draw = data.draw
    backend = draw(st.sampled_from(BACKENDS))
    field = fields(draw, backend)
    m = draw(st.integers(1, 3))
    work = tmp_path_factory.mktemp("rep")
    save_algebra(HomAlgebra(2, {}, identity(2), backend), work / "g.json")
    doc = {
        "algebra": str(work / "g.json"),
        "m": m,
        "rho": [square(m, field) for _ in range(2)],
        "phi": square(m, field),
    }
    (work / "rep.json").write_text(json.dumps(doc), encoding="utf-8")
    matches_each_field_parsed(load_representation, work / "rep.json")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_the_cochain_loader_matches_a_load_parsing_every_field(tmp_path_factory, data):
    draw = data.draw
    backend = draw(st.sampled_from(BACKENDS))
    field = fields(draw, backend)
    n, m, k = 3, draw(st.integers(1, 2)), draw(st.integers(0, 3))
    keys = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=k, max_size=k), max_size=4))
    doc = {"k": k, "entries": [{"indices": key, "value": [field() for _ in range(m)]}
                               for key in keys]}
    path = tmp_path_factory.mktemp("cochain") / "cochain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    matches_each_field_parsed(load_cochain, path, n, m, backend)


def algebra_file(tmp_path, backend, twist, bracket=()):
    doc = {"dim": len(twist), "backend": backend.to_json(), "bracket": list(bracket), "twist": twist}
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def refusal(path):
    with pytest.raises(FileFormatError) as info:
        load_algebra(path)
    return str(info.value)


@pytest.mark.parametrize("late", [True, 1.0])
def test_a_bool_or_float_after_a_cached_one_is_still_refused(tmp_path, late):
    path = algebra_file(tmp_path, rational_backend(), [[1, 1], [1, late]])
    assert refusal(path) == f"bad twist row: not a scalar: {late!r} (twist[1])"
    bracket = [{"i": 0, "j": 1, "value": [1, 1]}, {"i": 1, "j": 0, "value": [late, 0]}]
    path = algebra_file(tmp_path, rational_backend(), [[1, 0], [0, 1]], bracket)
    assert refusal(path) == f"bad bracket entry: not a scalar: {late!r} (bracket[1])"


def test_a_float_part_after_a_cached_quadratic_object_is_still_refused(tmp_path):
    twist = [[{"a": 1, "b": 0}, 0], [0, {"a": 1.0, "b": 0}]]
    path = algebra_file(tmp_path, quadratic_backend(1), twist)
    assert refusal(path) == "bad twist row: cannot interpret 1.0 as an exact rational (twist[1])"


@pytest.mark.parametrize("bad", ["1/0", "1e4301", {"a": "1"}])
def test_a_bad_text_that_repeats_is_reported_at_its_first_occurrence(tmp_path, bad):
    backend = quadratic_backend(1)
    path = algebra_file(tmp_path, backend, [[1, 0, 0], [0, bad, 1], [bad, 0, bad]])
    first = refusal(path)
    assert first.startswith("bad twist row: ") and first.endswith("(twist[1])")
    bracket = [{"i": 0, "j": 1, "value": ["1", "0"]}, {"i": 0, "j": 1, "value": [bad, "0"]}]
    path = algebra_file(tmp_path, backend, [[1, 0], [0, 1]], bracket)
    assert refusal(path).endswith("(bracket[1])")


def test_one_text_keeps_each_files_type(tmp_path):
    text = {"a": "1/2", "b": "1"}
    loaded = []
    for backend in (quadratic_backend(1), quadratic_backend(F(3, 4)), quadratic_backend(F(1, 2))):
        loaded.append(load_algebra(algebra_file(tmp_path, backend, [[text]])).twist[0][0])
    assert loaded == [QuadExt(F(1, 2), 1, 2), F(7, 4), QuadExt(F(1, 2), 1, F(5, 4))]
    assert type(loaded[1]) is F
    rational = algebra_file(tmp_path, rational_backend(), [["1/2"]])
    assert load_algebra(rational).twist == ((F(1, 2),),)
    assert refusal(algebra_file(tmp_path, rational_backend(), [[text]])) == (
        "bad twist row: quadratic scalar in a non-quadratic file (twist[0])"
    )


def test_a_reader_parses_each_text_once_and_shares_the_scalar():
    read = scalar_reader(quadratic_backend(1))
    assert read("1/2") is read("1/2")
    assert read({"a": "1", "b": "2"}) is read({"a": "1", "b": "2"})
    assert read(1) == read("1") == F(1)
    with patch("skewhom.scalars.parse_scalar", wraps=parse_scalar) as parsed:
        for _ in range(3):
            read("3/4"), read({"b": "0", "a": "3/4"}), read({"a": "1", "b": "1", "c": 0})
    # the object with an extra key is parsed every time
    assert [c.args[0] for c in parsed.call_args_list] == [
        "3/4", {"b": "0", "a": "3/4"}, *[{"a": "1", "b": "1", "c": 0}] * 3
    ]
