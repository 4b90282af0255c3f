import io
import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COEFFS, rand_element, rand_step_function, step_functions
from oracles import decode_mu_poly, encode_word
from rhpwn import jsonio
from rhpwn.algebra import RHPWN, WINFTY, GeneratorIndex
from rhpwn.errors import SchemaError
from rhpwn.mupoly import MU, MuPoly
from rhpwn.rewrite import Word
from rhpwn.stepfn import CHI


def test_step_function_roundtrip():
    rng = random.Random(50)
    for _ in range(40):
        f = rand_step_function(rng, max_pieces=3)
        assert jsonio.decode_step_function(jsonio.encode_step_function(f)) == f


def test_element_roundtrip():
    rng = random.Random(51)
    for tag in (RHPWN, WINFTY):
        for _ in range(25):
            e = rand_element(rng, tag)
            assert jsonio.decode_element(jsonio.encode_element(e)) == e


def test_word_roundtrip():
    rng = random.Random(52)
    factors = [
        (GeneratorIndex(RHPWN, 2, 1), rand_step_function(rng)),
        (GeneratorIndex(RHPWN, 0, 3), CHI),
    ]
    w = Word(factors)
    again = jsonio.decode_word(encode_word(w))
    assert again.factors == w.factors


def test_mu_poly_roundtrip():
    p = (MU * MU).scaled(Fraction(3, 7)) + 2
    assert decode_mu_poly(jsonio.encode_mu_poly(p)) == p


def test_schema_pointer_locations():
    with pytest.raises(SchemaError) as err:
        jsonio.decode_step_function([{"a": "0", "b": "x", "re": "1"}], "/f")
    assert err.value.pointer == "/f/0/b"
    with pytest.raises(SchemaError) as err:
        jsonio.decode_element([{"tag": "NOPE", "n": 0, "k": 0, "pieces": []}])
    assert err.value.pointer == "/0/tag"
    with pytest.raises(SchemaError) as err:
        jsonio.decode_word([{"n": 1}])
    assert err.value.pointer == "/0"
    with pytest.raises(SchemaError) as err:
        jsonio.decode_word("not a list")
    assert err.value.pointer == ""


def test_mu_poly_bad_coefficient_is_schema_error():
    for bad in ("1/0", "1+1/0i", "nan"):
        with pytest.raises(SchemaError) as err:
            decode_mu_poly({"mu_poly": ["0", bad]})
        assert err.value.pointer == "/mu_poly"


def test_straddling_piece_reported_as_schema_error():
    with pytest.raises(SchemaError):
        jsonio.decode_step_function([{"a": "-1", "b": "1", "re": "1"}])


def test_mixed_tags_rejected():
    items = [
        {"tag": RHPWN, "n": 1, "k": 0, "pieces": [{"a": "0", "b": "1", "re": "1"}]},
        {"tag": WINFTY, "n": 2, "k": 0, "pieces": [{"a": "0", "b": "1", "re": "1"}]},
    ]
    with pytest.raises(SchemaError) as err:
        jsonio.decode_element(items)
    assert err.value.pointer == "/1/tag"


def test_zero_element_decodes_to_zero():
    assert jsonio.decode_element([]).is_zero
    # invalid RHPWN indices normalize to the zero element, not an error
    items = [{"tag": RHPWN, "n": -1, "k": 0, "pieces": [{"a": "0", "b": "1", "re": "1"}]}]
    assert jsonio.decode_element(items).is_zero


def test_winfty_bad_index_is_schema_error():
    items = [{"tag": WINFTY, "n": 1, "k": 0, "pieces": [{"a": "0", "b": "1", "re": "1"}]}]
    with pytest.raises(SchemaError):
        jsonio.decode_element(items)


# -- derandomized round trips: decode(encode(x)) == x, and re-encoding is byte-equal


def _assert_round_trip(value, encode, decode, same=lambda a, b: a == b):
    text = json.dumps(encode(value))
    again = decode(json.loads(text))
    assert same(again, value)
    assert json.dumps(encode(again)) == text


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(COEFFS, max_size=6).map(MuPoly))
def test_mu_poly_json_round_trip(p):
    _assert_round_trip(p, jsonio.encode_mu_poly, decode_mu_poly)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(step_functions())
def test_step_function_json_round_trip(fn):
    _assert_round_trip(fn, jsonio.encode_step_function, jsonio.decode_step_function)


_FACTORS = st.tuples(
    st.integers(0, 4), st.integers(0, 4), st.one_of(st.just(CHI), step_functions())
).map(lambda t: (GeneratorIndex(RHPWN, t[0], t[1]), t[2]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(_FACTORS, max_size=5).map(Word))
def test_word_json_round_trip(word):
    _assert_round_trip(word, encode_word, jsonio.decode_word,
                       same=lambda a, b: a.factors == b.factors)


# -- the writer: the bytes json writes with indent=2, streamed -------------------

_STRINGS = st.one_of(
    # every code point, lone surrogates included (Cs is left out by default)
    st.text(st.characters(exclude_categories=()), max_size=6),
    st.sampled_from(["", '"', "\\", '\\"\\', "\x00\x1f\x7f", "\u2028", "\xe9", "\U0001f600",
                     "\ud800", "a\udfffb"]),
)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(10**400), 10**400), _STRINGS,
)
_JSON_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(_STRINGS, inner, max_size=4)
    ),
    max_leaves=40,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_write_json_writes_what_json_writes_with_indent_2(obj):
    out = io.StringIO()
    jsonio.write_json(obj, out)
    assert out.getvalue() == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "obj",
    [1.0, (1,), {1: "a"}, [0.5], {"a": (1, 2)}, {"a": [[{"b": 1e3}]]}, [{"a": {2: None}}],
     {"a": {True: 1}}],
    ids=["float", "tuple", "int-key", "float-in-list", "tuple-in-dict", "deep-float",
         "deep-int-key", "bool-key"],
)
def test_write_json_refuses_other_types(obj):
    with pytest.raises(TypeError):
        jsonio.write_json(obj, io.StringIO())


def test_write_json_streams_a_large_list():
    obj = {"t": "2", "count": 10**5, "samples": ["-0.12345678901234568"] * 10**5}
    writes = []
    jsonio.write_json(obj, SimpleNamespace(write=writes.append))
    assert max(len(text) for text in writes) <= 1024
    assert "".join(writes) == json.dumps(obj, indent=2)


# -- refused step-function payloads: the exact text and pointer ------------------

_ONE = {"a": "0", "b": "1", "re": "1"}


@pytest.mark.parametrize(
    "pieces, pointer, message",
    [
        ([{"a": "1", "b": "1", "re": "1"}], "/f/0", "empty interval [1, 1)"),
        ([_ONE, {"a": "2", "b": "1/2", "re": "1"}], "/f/1", "empty interval [2, 1/2)"),
        ([{"a": "0", "b": "2", "re": "1"}, {"a": "1/3", "b": "3", "re": "1"}], "/f",
         "overlapping pieces at [1/3, 3)"),
        ([{"a": "-1/2", "b": "1", "re": "1"}], "/f",
         "piece [-1/2, 1) straddles 0; test functions vanish at zero"),
        ([{"a": "1/0", "b": "1", "re": "1"}], "/f/0/a", "expected a rational ('p/q'), got '1/0'"),
        ([{"a": "0", "b": "abc", "re": "1"}], "/f/0/b", "expected a rational ('p/q'), got 'abc'"),
        ([{"a": "0", "b": "1", "re": True}], "/f/0/re", "expected a rational ('p/q'), got True"),
        ([{"a": "0", "b": "1"}], "/f/0", "missing required field 're'"),
        ([{"a": "0", "b": "1", "re": "1", "x": "2"}], "/f/0/x", "unknown field"),
        # with two faults, the first piece's empty interval is reported before
        # the second piece is read, and every piece is read before a straddle
        ([{"a": "1", "b": "1", "re": "1"}, {"a": "x", "b": "1", "re": "1"}], "/f/0",
         "empty interval [1, 1)"),
        ([{"a": "-1", "b": "1", "re": "1"}, {"a": "x", "b": "1", "re": "1"}], "/f/1/a",
         "expected a rational ('p/q'), got 'x'"),
    ],
    ids=["empty", "reversed", "overlap", "straddle", "zero-denominator", "abc", "true",
         "missing-re", "unknown-field", "empty-before-unread", "unread-before-straddle"],
)
def test_refused_step_function_payloads(pieces, pointer, message):
    with pytest.raises(SchemaError) as err:
        jsonio.decode_step_function(pieces, "/f")
    assert err.value.pointer == pointer
    assert str(err.value) == f"{pointer}: {message}"


def test_unreduced_rational_is_read_and_written_reduced():
    fn = jsonio.decode_step_function([{"a": "0", "b": "2/4", "re": "2/4", "im": "-3/6"}])
    assert jsonio.encode_step_function(fn) == [{"a": "0", "b": "1/2", "re": "1/2", "im": "-1/2"}]
