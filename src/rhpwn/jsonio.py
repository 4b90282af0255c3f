"""JSON encoding/decoding of the algebraic objects.

Wire formats (exact rationals are encoded as "p/q" strings):

  step function   [ {"a": "0", "b": "3/2", "re": "1", "im": "0"}, ... ]
  element         [ {"tag": "RHPWN", "n": 2, "k": 1, "pieces": [...]}, ... ]
  word            [ {"n": 2, "k": 0, "function": "chi_I" | [pieces]}, ... ]
  mu polynomial   {"mu_poly": ["c0", "c1", ...]}

Decoders validate shape strictly (unknown fields rejected) and raise
SchemaError carrying the JSON-pointer of the offending node.  Every exact
rational is read by `scalars.read_rational`, whose memo reads a repeated short
string once across calls.  The step function decoder is one loop over the
pieces that checks each and drops the zero ones; it builds a pointer only
when it raises, and the pieces are sorted only when they come out of order.

`write_json` is the one writer of the command line's JSON: the bytes the
standard `json` module writes with indent=2, ASCII only, streamed, for dicts
with str keys, lists, str, int, bool and None only, and for `FloatRows`
tables of floats as values of the top-level object.  `float_text` is the one
rule by which a float becomes text.  A table goes out TABLE_CHUNK rows at a
time, each chunk, full or the last one, through the numpy array writer of
`floattext`, which gives the bytes of `float_text` and hands to it each value
it cannot settle.  `floattext` is imported at the first chunk it writes;
this module imports no numpy.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .algebra import RHPWN, WINFTY, AlgebraElement, GeneratorIndex
from .errors import EmptyIntervalError, IndexRangeError, SchemaError
from .mupoly import MuPoly
from .rewrite import Word
from .scalars import gaussian_from_ratios, rational_str, read_rational, reduced_str
from .stepfn import CHI, StepFunction, require_interval


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
    """The step function of a list of pieces, read as ints in one loop.

    Each piece in turn: its shape, through its fields a, b and re and its
    length; its four fields, each through `read_rational`, whose memo reads a
    repeated short string once; then its interval, through
    `stepfn.require_interval`, the one home of the empty-interval rule.  A
    zero piece is then dropped.  Once every piece is read,
    `StepFunction.from_rows` refuses a straddle, then an overlap, and sorts
    the pieces only when one starts before the previous one ends, so pieces
    in the order `encode_step_function` writes them are never sorted.  The
    JSON pointer of a piece or a field is built only to raise, at the first
    fault.
    """
    rows = []
    for i, item in enumerate(_require_list(value, pointer)):
        try:
            a, b, re, im = item["a"], item["b"], item["re"], item.get("im", "0")
            shaped = len(item) == 3 + ("im" in item)
        except (KeyError, TypeError):
            shaped = False
        if not shaped:  # not an object, a field missing or one unknown: raises
            _require_object(item, f"{pointer}/{i}", _PIECE_REQUIRED, _PIECE_FIELDS)
        try:
            a, b, re, im = read_rational(a), read_rational(b), read_rational(re), read_rational(im)
            require_interval(a, b)
        except EmptyIntervalError as exc:
            raise SchemaError(f"{pointer}/{i}", f"empty interval {exc.interval}") from None
        except (TypeError, ValueError):
            for key in ("a", "b", "re", "im"):  # raises at the refused field
                _read_rational(item.get(key, "0"), f"{pointer}/{i}/{key}")
            raise
        if re[0] or im[0]:
            rows.append((a, b, gaussian_from_ratios(*re, *im)))
    try:
        return StepFunction.from_rows(rows)
    except ValueError as exc:
        raise SchemaError(pointer, str(exc)) from exc


def encode_step_function(fn: StepFunction) -> list:
    """The pieces of `fn`: its endpoints are stored in lowest terms and
    written by `reduced_str`, with no gcd; each coefficient part is reduced
    over the shared denominator."""
    return [
        {"a": reduced_str(*a), "b": reduced_str(*b),
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

# Rows of a FloatRows table formatted per string.
TABLE_CHUNK = 2048


def float_text(x) -> str:
    # 17 significant digits of x + 0.0, which turns -0.0 into 0.0, so -0 is
    # never written
    return "%.17g" % (x + 0.0)


class FloatRows:
    """A table of equally long float columns, formatted a chunk at a time.

    With keys, one per column, `write_json` writes the table as a list of
    objects {key: float_text(value), ...}; with keys None and one column, as
    a list of float_text strings.  The columns are sequences that slice:
    lists of floats or one-dimensional numpy arrays.  The rows go out in
    chunks of TABLE_CHUNK rows and a last, shorter one, each written by the
    array writer of `floattext` in the bytes of `float_text`.
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
        """The rows as text, TABLE_CHUNK rows per string, by
        `floattext.rows_text`.

        A row is the float_text of each column's value between the ASCII,
        NUL-free strings `fields`, one more than the columns; rows are joined
        by `sep`, which does not end a chunk.
        """
        size = len(self)
        for start in range(0, size, TABLE_CHUNK):
            from .floattext import rows_text

            yield rows_text(self.columns, start, min(start + TABLE_CHUNK, size), fields, sep)


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
