import io
import json
import math
import os
import random
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COEFFS, rand_element, rand_step_function, step_functions
from oracles import decode_mu_poly, encode_word, read_step_payload
from rhpwn import cli, jsonio, scalars
from rhpwn.algebra import RHPWN, WINFTY, GeneratorIndex
from rhpwn.errors import SchemaError
from rhpwn.mupoly import MU, MuPoly
from rhpwn.rewrite import Word
from rhpwn.scalars import ComplexRational
from rhpwn.stepfn import CHI, StepFunction


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
    # line lists, so a mismatch reports its first differing line without a string diff
    assert "".join(writes).split("\n") == json.dumps(obj, indent=2).split("\n")


# -- float text and float tables ---------------------------------------------------

_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    sys.float_info.max, -sys.float_info.max, math.inf, -math.inf, math.nan, -math.nan,
    1e16, 1e17, -1e16, -1e17, 1e16 + 2, 9007199254740993.0, 0.1, 1 / 3, 123456789012345680.0,
]


def _float_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _old_text(x) -> str:
    """The float text the handlers wrote before tables, one call per value."""
    return format(x or 0.0, ".17g")


@pytest.mark.parametrize("x", _EDGE_FLOATS, ids=repr)
def test_float_text_of_edge_values(x):
    assert jsonio.float_text(x) == _old_text(x)


@settings(derandomize=True, max_examples=3000, deadline=None)
@given(st.one_of(st.integers(0, 2**64 - 1).map(_float_of_bits), st.floats(), st.sampled_from(_EDGE_FLOATS)))
def test_float_text_is_17_digits_with_no_negative_zero(x):
    assert jsonio.float_text(x) == _old_text(x)


def _columns(width: int, size: int, seed: int) -> list:
    """`width` float columns of `size` values: random bit patterns mixed with edge values."""
    rng = random.Random(seed)
    return [
        [rng.choice(_EDGE_FLOATS) if rng.random() < 0.2 else _float_of_bits(rng.getrandbits(64))
         for _ in range(size)]
        for _ in range(width)
    ]


def _old_rows(keys, columns) -> list:
    """The table as the handlers built it before: a list of formatted strings
    without keys, else one dict of formatted strings per row."""
    if keys is None:
        return [_old_text(x) for x in columns[0]]
    return [{k: _old_text(v) for k, v in zip(keys, row)} for row in zip(*columns)]


# 255..257 are tables that end inside one chunk, whatever TABLE_CHUNK is;
# ARRAY_MIN_ROWS ± 1 put the one chunk on either side of the array writer's
# rule, and TABLE_CHUNK + ARRAY_MIN_ROWS a tail on the writer after a full chunk
_N = jsonio.ARRAY_MIN_ROWS
_TABLE_SIZES = sorted({0, 1, 255, 256, 257, _N - 1, _N, _N + 1, jsonio.TABLE_CHUNK - 1, jsonio.TABLE_CHUNK,
                       jsonio.TABLE_CHUNK + 1, jsonio.TABLE_CHUNK + _N, 2 * jsonio.TABLE_CHUNK + 1})
_TABLE_KEYS = [None, ("x", "p"), ("s", "value"), ('say "q"', "100%", "%s%%d", "\xe9\u2028\U0001f600")]
_TABLE_KEY_IDS = ["samples", "density", "mgf", "escaped"]


@pytest.mark.parametrize("size", _TABLE_SIZES)
@pytest.mark.parametrize("keys", _TABLE_KEYS, ids=_TABLE_KEY_IDS)
def test_table_writes_what_json_writes_for_the_old_rows(keys, size):
    columns = _columns(1 if keys is None else len(keys), size, seed=size)
    for as_array in (False, True) if keys is None else (False,):
        cols = [np.array(c) for c in columns] if as_array else columns
        table = {"t": "1", "rows": jsonio.FloatRows(keys, *cols), "n": None}
        out = io.StringIO()
        jsonio.write_json(table, out)
        old = {"t": "1", "rows": _old_rows(keys, columns), "n": None}
        # compared as lines: a failure names its first differing line at once
        assert out.getvalue().splitlines(True) == json.dumps(old, indent=2).splitlines(True)


@pytest.mark.parametrize("size", _TABLE_SIZES)
@pytest.mark.parametrize("keys", _TABLE_KEYS, ids=_TABLE_KEY_IDS)
def test_table_csv_is_what_the_old_rows_wrote(keys, size):
    columns = _columns(1 if keys is None else len(keys), size, seed=size + 1)
    header = [] if keys is None else [("h",) * len(keys)]
    old_rows = [(row,) if keys is None else tuple(row.values()) for row in _old_rows(keys, columns)]
    theirs, ours = io.StringIO(), io.StringIO()
    cli._write_csv(header + old_rows, theirs)
    cli._write_csv(header + [jsonio.FloatRows(keys, *columns)], ours)
    assert ours.getvalue().splitlines(True) == theirs.getvalue().splitlines(True)


def test_table_streams_a_chunk_per_write():
    size = 10 * jsonio.TABLE_CHUNK + 3
    obj = {"count": size, "samples": jsonio.FloatRows(None, [-0.0, 1 / 3, -2.5e-300] * (size // 3))}
    writes = []
    jsonio.write_json(obj, SimpleNamespace(write=writes.append))
    assert len(writes) >= size // jsonio.TABLE_CHUNK
    assert max(len(text) for text in writes) <= 40 * jsonio.TABLE_CHUNK
    old = {"count": size, "samples": _old_rows(None, obj["samples"].columns)}
    assert "".join(writes).splitlines(True) == json.dumps(old, indent=2).splitlines(True)


@pytest.mark.parametrize("size, written", [(_N - 1, 0), (_N, 1), (jsonio.TABLE_CHUNK + _N - 1, 1),
                                           (jsonio.TABLE_CHUNK + _N, 2)])
def test_chunks_of_at_least_array_min_rows_take_the_array_writer(monkeypatch, size, written):
    from rhpwn import floattext

    rows_text = floattext.rows_text
    calls = []

    def counted(*args):
        calls.append(args)
        return rows_text(*args)

    monkeypatch.setattr(floattext, "rows_text", counted)
    column = [0.1 * i for i in range(size)]
    text = "".join(jsonio.FloatRows(None, column).chunks(("", "\n")))
    assert len(calls) == written
    assert text.splitlines() == [jsonio.float_text(x) for x in column]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 2**64 - 1).map(_float_of_bits), st.floats()),
                min_size=1, max_size=64))
def test_the_array_writer_is_float_text_on_any_bits(values):
    # the drawn values repeated to one full chunk, so every one goes through
    # the writer, one per line of a one-column CSV table
    column = np.resize(np.array(values), jsonio.TABLE_CHUNK)
    text = "".join(jsonio.FloatRows(None, column).chunks(("", "\n")))
    assert text.splitlines() == [jsonio.float_text(x) for x in column.tolist()]


# 1 + 2^-17 is a tie at 17 digits, to even; 1e99 is 9.99999999999999967e98,
# whose product at E = 99 rounds up to 10^16 but lies under it; the product
# of 1e20 at E = 20 lands just under 10^16, and at E = 19 rounds up to 10^17
_WRITER_PINS = {1 + 2**-17: "1.0000076293945312", 1e99: "9.9999999999999997e+98", 1e20: "1e+20"}
_POWERS_OF_TEN = [float(f"1e{k}") for k in range(-323, 309)]
_NAMED_FLOATS = (
    _POWERS_OF_TEN
    + [math.nextafter(x, 0.0) for x in _POWERS_OF_TEN]
    + [math.nextafter(x, math.inf) for x in _POWERS_OF_TEN]
    + list(_WRITER_PINS)
    + [1e23, 1e16, 1e17, 1e-4, 1e-5, 5e-324, 2.2250738585072014e-308, sys.float_info.max]
    + [math.nan, math.inf, -math.inf, -0.0, 0.0]
)


# Run in a fresh process, whose imports must leave the writer and its tables
# unbuilt; with a timeout, because a correction of E without a bound turns
# 1e20 between E = 19 and E = 20 for ever.
_NAMED_SCRIPT = """
import sys
import rhpwn.cli
from rhpwn import jsonio
assert "rhpwn.floattext" not in sys.modules, "the writer was imported with the package"
column = [float.fromhex(word) for word in sys.stdin.read().split()]
column += [1.0] * (-len(column) % jsonio.TABLE_CHUNK)
sys.stdout.writelines(jsonio.FloatRows(None, column).chunks(("", "\\n")))
"""


def test_the_array_writer_is_float_text_on_named_values():
    values = _NAMED_FLOATS + [-x for x in _NAMED_FLOATS]
    src = str(Path(jsonio.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _NAMED_SCRIPT], input=" ".join(x.hex() for x in values),
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    texts = run.stdout.splitlines()[:len(values)]
    assert texts == [jsonio.float_text(x) for x in values]
    assert [texts[values.index(x)] for x in _WRITER_PINS] == list(_WRITER_PINS.values())
    assert [jsonio.float_text(x) for x in _WRITER_PINS] == list(_WRITER_PINS.values())



# The writer's tables as they were first built, a Python loop per power of
# ten and per exponent: the builders in floattext must give the same arrays.
def _loop_powers_of_ten(low, high):
    def pair(m):  # m = floor(T·2^109) for T in [1, 2): T as two doubles
        top = (m + (1 << 56)) >> 57
        return top / (1 << 52), (m - (top << 57)) / (1 << 109)

    powers = {}
    up = down = 1
    for k in range(high + 1):
        s = up.bit_length() - 1
        powers[k] = (s, *pair(up << (109 - s) if s <= 109 else up >> (s - 109)))
        up *= 10
    for k in range(1, 1 - low):
        down *= 10
        s = down.bit_length()
        powers[-k] = (-s, *pair((1 << (s + 109)) // down))
    shift, hi, lo = zip(*(powers[k] for k in range(low, high + 1)))
    hi = np.array(hi)
    c = hi * 134217729.0
    hi_hi = c - (c - hi)
    return np.array(shift, np.intc), hi, hi_hi, hi - hi_hi, np.array(lo)


def _loop_digit_groups():
    place = np.arange(10000) // np.array([[1000], [100], [10], [1]]) % 10 + 48
    lead = np.zeros((4, 11), np.int64)
    lead[3, :10] = np.arange(48, 58)
    kept = np.logical_or.accumulate(place[::-1] != 48)[::-1]
    groups = np.concatenate([place, place * kept, lead], axis=1)
    return np.ascontiguousarray(groups.T, np.uint8).view(np.uint32).ravel()


def _loop_marks(low, high, slot):
    texts = []
    for e in range(low, high + 1):
        if -4 <= e < 0:
            plain = dotted = "\0" + "0." + "0" * (-e - 1)
        elif 0 <= e < 17:
            plain = "\0" * 11 + "0" * (e + 1)
            dotted = plain + "." if e < 16 else plain
        else:
            plain = "\0" * 29 + "e%+03d" % e
            dotted = plain[:12] + "." + plain[13:]
        texts += plain.ljust(slot, "\0"), dotted.ljust(slot, "\0")
    marks = np.frombuffer("".join(texts).encode("ascii"), np.uint8).reshape(-1, slot).repeat(2, axis=0)
    marks[1::2, 0] = 45
    return marks


def test_the_array_writer_builds_the_tables_of_its_loops():
    from rhpwn import floattext as ft

    shift, powers = ft._powers_of_ten()
    loop_shift, *loop_powers = _loop_powers_of_ten(ft._POW10_LOW, ft._POW10_HIGH)
    assert shift.dtype == loop_shift.dtype and np.array_equal(shift, loop_shift)
    assert np.array_equal(powers, np.stack(loop_powers))
    assert np.array_equal(ft._digit_groups(), _loop_digit_groups())
    assert np.array_equal(ft._marks(), _loop_marks(ft._EXP_LOW, ft._EXP_HIGH, ft._SLOT))
    exponents = range(ft._EXP_LOW, ft._EXP_HIGH + 1)
    assert ft._point_columns().tolist() == [e if 0 <= e < 17 else -12 if -4 <= e < 0 else 0 for e in exponents]


_TABLE = jsonio.FloatRows(("x",), [0.5])


@pytest.mark.parametrize(
    "obj",
    [_TABLE, [_TABLE], {"a": [_TABLE]}, {"a": {"b": _TABLE}}, [{"a": _TABLE}]],
    ids=["top-level", "in-top-level-list", "in-list", "in-dict", "in-list-dict"],
)
def test_a_table_outside_the_top_level_object_is_refused(obj):
    with pytest.raises(TypeError):
        jsonio.write_json(obj, io.StringIO())


@pytest.mark.parametrize(
    "keys, columns",
    [(None, ()), (None, ([1.0], [2.0])), (("x",), ()), (("x", "p"), ([1.0],)),
     (("x", "p"), ([1.0], [2.0, 3.0]))],
    ids=["no-column", "two-columns-no-keys", "key-no-column", "key-without-column", "ragged"],
)
def test_a_table_needs_one_column_per_key_of_one_length(keys, columns):
    with pytest.raises(ValueError):
        jsonio.FloatRows(keys, *columns)


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


# -- the decoder against a reader that shares no code with it --------------------

# Spellings of each grid point and of the coefficients, so that a payload
# repeats its strings across pieces and fields: "1/2" is an endpoint in one
# piece and a coefficient in the next.  Ints and floats are read too, and
# True == 1 == 1.0, so a table keyed on anything but str would read True.
_POINT_SPELLINGS = {
    Fraction(-2): ["-2", -2, "-4/2"], Fraction(-3, 2): ["-3/2", -1.5],
    Fraction(-1): ["-1", -1], Fraction(-1, 2): ["-1/2", "-2/4"], Fraction(0): ["0", 0, "0/5"],
    Fraction(1, 2): ["1/2", "2/4", 0.5], Fraction(1): ["1", 1, 1.0, "3/3"],
    Fraction(3, 2): ["3/2", "6/4"], Fraction(2): ["2", 2], Fraction(5, 2): ["5/2"],
}
_COEFF_SPELLINGS = ["0", "1", "1/2", "2/4", "-1/2", "3/2", "-1", 1, 0, 0.5, "-7/3"]
_MALFORMED = ["abc", "1//2", "", "1/-2", "0x10", "1/2/3", "1 /2", "nan", "inf"]
_NOT_OBJECTS = [["a", "0"], "1/2", 1, None]


@st.composite
def _step_payloads(draw, min_pieces=0):
    """A valid payload: pieces on a grid with 0 always a cut, in any order."""
    points = sorted(draw(st.sets(st.sampled_from(sorted(_POINT_SPELLINGS)),
                                 min_size=min_pieces + 1)) | {Fraction(0)})
    intervals = list(zip(points, points[1:]))
    keep = draw(st.lists(st.booleans(), min_size=len(intervals), max_size=len(intervals)))
    kept = [span for span, k in zip(intervals, keep) if k]
    kept = draw(st.permutations(kept if len(kept) >= min_pieces else intervals))
    pieces = []
    for a, b in kept:
        piece = {"a": draw(st.sampled_from(_POINT_SPELLINGS[a])),
                 "b": draw(st.sampled_from(_POINT_SPELLINGS[b])),
                 "re": draw(st.sampled_from(_COEFF_SPELLINGS))}
        if draw(st.booleans()):
            piece["im"] = draw(st.sampled_from(_COEFF_SPELLINGS))
        pieces.append(piece)
    return pieces


@st.composite
def _refused_step_payloads(draw):
    """A valid payload of two or more pieces with one fault injected at a
    piece after the first; the first piece's re is set to a valid copy of
    the value the fault replaces, so it is read before the fault."""
    pieces = draw(_step_payloads(min_pieces=2))
    i = draw(st.integers(1, len(pieces) - 1))
    piece = pieces[i]
    field = draw(st.sampled_from(("a", "b", "re", "im")))
    pieces[0]["re"] = piece.get(field, piece["a"])
    fault = draw(st.sampled_from(
        ("malformed", "1/0", "true", "not-an-object", "missing", "unknown", "reversed",
         "zero-length")))
    if fault == "malformed":
        piece[field] = draw(st.sampled_from(_MALFORMED))
    elif fault == "1/0":
        piece[field] = "1/0"
    elif fault == "true":
        piece[field] = True
    elif fault == "not-an-object":
        pieces[i] = draw(st.sampled_from(_NOT_OBJECTS))
    elif fault == "missing":
        del piece[draw(st.sampled_from(("a", "b", "re")))]
    elif fault == "unknown":
        piece[draw(st.sampled_from(("x", "A", "pieces")))] = piece["a"]
    elif fault == "reversed":
        piece["a"], piece["b"] = piece["b"], piece["a"]
    else:
        piece["b"] = piece["a"]
    return pieces


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_step_payloads())
def test_decoder_reads_the_oracle_rows(pieces):
    rows, fault = read_step_payload(pieces, "/f")
    assert fault is None
    assert jsonio.decode_step_function(pieces, "/f").rows == rows


@settings(derandomize=True, max_examples=600, deadline=None)
@given(_refused_step_payloads())
def test_decoder_refuses_at_the_oracle_first_fault(pieces):
    rows, fault = read_step_payload(pieces, "/f")
    assert rows is None
    pointer, message = fault
    with pytest.raises(SchemaError) as err:
        jsonio.decode_step_function(pieces, "/f")
    assert err.value.pointer == pointer
    assert str(err.value) == f"{pointer}: {message}"


def test_each_distinct_string_is_read_once():
    # 200 pieces, 800 strings, 5 distinct texts: the zero pieces overlap the
    # second piece but are dropped before the overlap check.
    pieces = ([{"a": "0", "b": "1/2", "re": "1", "im": "0"},
               {"a": "1", "b": "3/2", "re": "-1/3", "im": "1/2"}]
              + [{"a": "1/2", "b": "3/2", "re": "0", "im": "0"} for _ in range(198)])
    memo = scalars._read_memo
    memo.cache_clear()
    fn = jsonio.decode_step_function(pieces)
    # every string goes through the memo, and at most 5 are parsed
    assert memo.cache_info().misses <= 5 and sum(memo.cache_info()[:2]) == 800
    assert fn == StepFunction([(0, Fraction(1, 2), 1),
                               (1, Fraction(3, 2), ComplexRational(Fraction(-1, 3), Fraction(1, 2)))])
    # a second payload of the same strings parses none of them again
    jsonio.decode_step_function([{"a": "1/2", "b": "1", "re": "-1/3", "im": "3/2"}])
    assert memo.cache_info().misses <= 5 and sum(memo.cache_info()[:2]) == 804


def test_a_refused_string_raises_on_every_decode():
    # a refused string is not kept: each decode reads it and names its field
    pieces = [{"a": "0", "b": "1/2", "re": "1"}, {"a": "1", "b": "2", "re": "1/0"}]
    for _ in range(2):
        with pytest.raises(SchemaError) as err:
            jsonio.decode_step_function(pieces, "/f")
        assert err.value.pointer == "/f/1/re"
        assert str(err.value) == "/f/1/re: expected a rational ('p/q'), got '1/0'"
