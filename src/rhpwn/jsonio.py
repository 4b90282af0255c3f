"""JSON encoding/decoding of the algebraic objects.

Wire formats (exact rationals are encoded as "p/q" strings):

  step function   [ {"a": "0", "b": "3/2", "re": "1", "im": "0"}, ... ]
  element         [ {"tag": "RHPWN", "n": 2, "k": 1, "pieces": [...]}, ... ]
  word            [ {"n": 2, "k": 0, "function": "chi_I" | [pieces]}, ... ]
  mu polynomial   {"mu_poly": ["c0", "c1", ...]}

Decoders validate shape strictly (unknown fields rejected) and raise
SchemaError carrying the JSON-pointer of the offending node.  Every exact
rational is read by `scalars.read_rational`, whose memo reads a repeated short
string once across calls; the step function decoder builds a pointer only
when it raises.

`write_json` is the one writer of the command line's JSON: the bytes the
standard `json` module writes with indent=2, ASCII only, streamed, for dicts
with str keys, lists, str, int, bool and None only, and for `FloatRows`
tables of floats as values of the top-level object.  `float_text` is the one
rule by which a float becomes text.  A table goes out TABLE_CHUNK rows at a
time: a chunk of at least ARRAY_MIN_ROWS rows, full or the last one, through
the numpy array writer of `floattext`, which gives the bytes of `float_text`
and hands to it each value it cannot settle, a shorter one through one `%`
over a row template.  `floattext` is imported at the first chunk it writes;
this module imports no numpy.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import add

from .algebra import RHPWN, WINFTY, AlgebraElement, GeneratorIndex
from .errors import EmptyIntervalError, IndexRangeError, SchemaError
from .mupoly import MuPoly
from .rewrite import Word
from .scalars import gaussian_from_ratios, rational_str, read_rational
from .stepfn import CHI, StepFunction


def _require_object(value, pointer, required, optional=()):
    if not isinstance(value, dict):
        raise SchemaError(pointer, f"expected an object, got {type(value).__name__}")
    for key in value:
        if key not in required and key not in optional:
            raise SchemaError(f"{pointer}/{key}", "unknown field")
    for key in required:
        if key not in value:
            raise SchemaError(pointer, f"missing required field {key!r}")
    return value


def _require_list(value, pointer):
    if not isinstance(value, list):
        raise SchemaError(pointer, f"expected a list, got {type(value).__name__}")
    return value


def _require_int(value, pointer):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(pointer, f"expected an integer, got {value!r}")
    return value


def _read_rational(value, pointer) -> tuple:
    try:
        return read_rational(value)
    except (TypeError, ValueError):
        raise SchemaError(pointer, f"expected a rational ('p/q'), got {value!r}") from None


def _read_fraction(value, pointer) -> Fraction:
    return Fraction(*_read_rational(value, pointer))


# -- step functions ------------------------------------------------------------


_PIECE_REQUIRED = ("a", "b", "re")
_PIECE_FIELDS = frozenset(("a", "b", "re", "im"))


def decode_step_function(value, pointer="") -> StepFunction:
    """The step function of a list of pieces, read as ints.

    Each field goes through `read_rational`, whose memo reads a repeated short
    string once.  Each piece is read and its interval checked before the
    next is read; a straddle or an overlap is reported once every piece has
    been read.  The JSON pointer of a piece or a field is built only to
    raise, at the first refused field.
    """
    items = _require_list(value, pointer)
    i = 0

    def rows():
        nonlocal i
        for i, item in enumerate(items):
            if not (type(item) is dict and _PIECE_FIELDS.issuperset(item)
                    and "a" in item and "b" in item and "re" in item):
                _require_object(item, f"{pointer}/{i}", _PIECE_REQUIRED, _PIECE_FIELDS)
            try:
                a, b = read_rational(item["a"]), read_rational(item["b"])
                re, im = read_rational(item["re"]), read_rational(item.get("im", "0"))
            except (TypeError, ValueError):
                for key in ("a", "b", "re", "im"):  # raises at the refused field
                    _read_rational(item.get(key, "0"), f"{pointer}/{i}/{key}")
                raise
            yield a, b, gaussian_from_ratios(*re, *im)

    try:
        return StepFunction.from_rows(rows())
    except EmptyIntervalError as exc:
        raise SchemaError(f"{pointer}/{i}", f"empty interval {exc.interval}") from None
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(pointer, str(exc)) from exc


def encode_step_function(fn: StepFunction) -> list:
    """The pieces of `fn`: its endpoints are stored reduced and written as
    they are; each coefficient part is reduced over the shared denominator."""
    return [
        {"a": rational_str(*a), "b": rational_str(*b),
         "re": rational_str(re, den), "im": rational_str(im, den)}
        for a, b, (re, im, den) in fn.rows
    ]


# -- algebra elements -----------------------------------------------------------


def decode_element(value, pointer="") -> AlgebraElement:
    items = _require_list(value, pointer)
    tag = None
    out = None
    for i, item in enumerate(items):
        here = f"{pointer}/{i}"
        obj = _require_object(item, here, required=("tag", "n", "k", "pieces"))
        if obj["tag"] not in (RHPWN, WINFTY):
            raise SchemaError(f"{here}/tag", f"unknown algebra tag {obj['tag']!r}")
        if tag is None:
            tag = obj["tag"]
            out = AlgebraElement.zero(tag)
        elif obj["tag"] != tag:
            raise SchemaError(f"{here}/tag", f"mixed algebra tags {tag} and {obj['tag']}")
        n = _require_int(obj["n"], f"{here}/n")
        k = _require_int(obj["k"], f"{here}/k")
        fn = decode_step_function(obj["pieces"], f"{here}/pieces")
        try:
            out = out + AlgebraElement.generator(tag, n, k, fn)
        except IndexRangeError as exc:
            raise SchemaError(here, str(exc)) from exc
    return out if out is not None else AlgebraElement.zero(RHPWN)


def encode_element(elt: AlgebraElement) -> list:
    keys = sorted(elt.terms, key=lambda i: (i.n, i.k))
    return [
        {
            "tag": elt.tag,
            "n": idx.n,
            "k": idx.k,
            "pieces": encode_step_function(elt.terms[idx]),
        }
        for idx in keys
    ]


# -- words ----------------------------------------------------------------------


def decode_word(value, pointer="") -> Word:
    factors = []
    for i, item in enumerate(_require_list(value, pointer)):
        here = f"{pointer}/{i}"
        obj = _require_object(item, here, required=("n", "k"), optional=("function",))
        n = _require_int(obj["n"], f"{here}/n")
        k = _require_int(obj["k"], f"{here}/k")
        fn_spec = obj.get("function", "chi_I")
        if fn_spec == "chi_I":
            fn = CHI
        else:
            fn = decode_step_function(fn_spec, f"{here}/function")
        factors.append((GeneratorIndex(RHPWN, n, k), fn))
    return Word(factors)


# -- mu polynomials ---------------------------------------------------------------


def encode_mu_poly(poly: MuPoly) -> dict:
    return {"mu_poly": poly.to_strings()}


# -- floats ---------------------------------------------------------------------

# A float as text: 17 significant digits of x + 0.0, which turns -0.0 into
# 0.0, so -0 is never written.
FLOAT_FORMAT = "%.17g"

# Rows of a FloatRows table formatted per string.
TABLE_CHUNK = 2048

# The fewest rows of a chunk that `floattext` writes; a shorter chunk is one
# `%` over a row template, which costs less there: the writer's numpy calls
# cost about as much as `%` on 250 rows of two floats, timed inside the
# density_sampling benchmark, where the caches are cold between calls.
ARRAY_MIN_ROWS = 250


def float_text(x) -> str:
    return FLOAT_FORMAT % (x + 0.0)


def _floats(part):
    """A slice of a column as Python floats, which `%` formats faster than
    numpy's float64 scalars, in the same bytes."""
    return part.tolist() if hasattr(part, "tolist") else part


class FloatRows:
    """A table of equally long float columns, formatted a chunk at a time.

    With keys, one per column, `write_json` writes the table as a list of
    objects {key: float_text(value), ...}; with keys None and one column, as
    a list of float_text strings.  The columns are sequences that slice:
    lists of floats or one-dimensional numpy arrays.  The rows go out in
    chunks of TABLE_CHUNK rows and a last, shorter one.  A chunk of at least
    ARRAY_MIN_ROWS rows is written by the array writer of `floattext` and any
    other by `%`, in the same bytes, so that the output does not depend on
    where the chunks fall or which writer takes them.
    """

    __slots__ = ("keys", "columns")

    def __init__(self, keys, *columns):
        if len(columns) != (1 if keys is None else len(keys)) or not columns:
            raise ValueError(f"keys {keys!r} do not name {len(columns)} columns")
        if len({len(c) for c in columns}) != 1:
            raise ValueError("columns differ in length")
        self.keys = keys
        self.columns = columns

    def __len__(self):
        return len(self.columns[0])

    def chunks(self, fields, sep: str = ""):
        """The rows as text, TABLE_CHUNK rows per string.

        A row is the float_text of each column's value between the ASCII,
        NUL-free strings `fields`, one more than the columns; rows are joined
        by `sep`, which does not end a chunk.  A chunk of at least
        ARRAY_MIN_ROWS rows is written by `floattext.rows_text`, in the same
        bytes; a shorter one is one `%` over a template of its rows.
        """
        width, size = len(self.columns), len(self)
        row = FLOAT_FORMAT.join(field.replace("%", "%%") for field in fields)
        for start in range(0, size, TABLE_CHUNK):
            stop = min(start + TABLE_CHUNK, size)
            if stop - start >= ARRAY_MIN_ROWS:
                from .floattext import rows_text

                yield rows_text(self.columns, start, stop, fields, sep)
                continue
            parts = [_floats(column[start:stop]) for column in self.columns]
            if width == 1:
                flat = parts[0]
            else:
                flat = [None] * (width * (stop - start))
                for i, part in enumerate(parts):
                    flat[i::width] = part
            yield sep.join([row] * (stop - start)) % tuple(map(add, flat, repeat(0.0)))


# -- writing ----------------------------------------------------------------------


def _encode(obj, indent: str) -> str:
    """obj as `json` spells it with indent=2, its closing bracket after
    `indent` (a newline and its spaces).  str leaves are quoted in place;
    encode_basestring_ascii raises TypeError for a non-str key."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = [
            _quote(k) + ": " + (_quote(v) if type(v) is str else _encode(v, inner))
            for k, v in obj.items()
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        inner = indent + "  "
        items = [_quote(v) if type(v) is str else _encode(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def _json_fields(keys) -> tuple:
    """The text around the floats of one table row as a value of the
    top-level object, keys quoted."""
    if keys is None:
        return ('\n    "', '"')
    quoted = [_quote(key) for key in keys]
    return ('\n    {\n      ' + quoted[0] + ': "',
            *('",\n      ' + key + ': "' for key in quoted[1:]),
            '"\n    }')


def write_json(obj, stream) -> None:
    """Write obj to stream byte for byte as `json` writes it with indent=2.

    Only dicts with str keys, lists, str, int, bool and None are written,
    and a `FloatRows` table as a value of a top-level dict, written as the
    list its rows spell; any other value, a float, a tuple or a table
    elsewhere included, raises TypeError.  The top-level container and each
    list directly under it go out one element per write, and a table
    TABLE_CHUNK rows per write, so a large result is never held as one
    string; anything deeper is one string per element.
    """
    write = stream.write
    if isinstance(obj, dict) and obj:
        write("{")
        entries = ((_quote(k) + ": ", v) for k, v in obj.items())
        close = "\n}"
    elif isinstance(obj, list) and obj:
        write("[")
        entries = (("", v) for v in obj)
        close = "\n]"
    else:
        write(_encode(obj, "\n"))
        return
    sep = "\n  "
    for head, value in entries:
        if isinstance(value, FloatRows) and head:
            write(sep + head + "[")
            lead = ""
            for text in value.chunks(_json_fields(value.keys), ","):
                write(lead + text)
                lead = ","
            write("\n  ]" if lead else "]")
        elif isinstance(value, list) and value:
            write(sep + head + "[")
            item_sep = "\n    "
            for item in value:
                text = _quote(item) if type(item) is str else _encode(item, "\n    ")
                write(item_sep + text)
                item_sep = ",\n    "
            write("\n  ]")
        else:
            write(sep + head + _encode(value, "\n  "))
        sep = ",\n  "
    write(close)
