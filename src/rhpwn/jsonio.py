"""JSON encoding/decoding of the algebraic objects.

Wire formats (exact rationals are encoded as "p/q" strings):

  step function   [ {"a": "0", "b": "3/2", "re": "1", "im": "0"}, ... ]
  element         [ {"tag": "RHPWN", "n": 2, "k": 1, "pieces": [...]}, ... ]
  word            [ {"n": 2, "k": 0, "function": "chi_I" | [pieces]}, ... ]
  mu polynomial   {"mu_poly": ["c0", "c1", ...]}

Decoders validate shape strictly (unknown fields rejected) and raise
SchemaError carrying the JSON-pointer of the offending node.

`write_json` is the one writer of the command line's JSON: the bytes the
standard `json` module writes with indent=2, ASCII only, streamed, for dicts
with str keys, lists, str, int, bool and None only.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .algebra import RHPWN, WINFTY, AlgebraElement, GeneratorIndex
from .errors import EmptyIntervalError, IndexRangeError, SchemaError
from .mupoly import MuPoly
from .rewrite import Word
from .scalars import gaussian_from_ratios, rational_str, read_rational
from .stepfn import CHI, StepFunction


def _require_object(value, pointer, required, optional=()):
    if not isinstance(value, dict):
        raise SchemaError(pointer, f"expected an object, got {type(value).__name__}")
    allowed = set(required) | set(optional)
    for key in value:
        if key not in allowed:
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


def decode_step_function(value, pointer="") -> StepFunction:
    """The step function of a list of pieces, read as ints.

    Each piece is read and its interval checked before the next is read; a
    straddle or an overlap is reported once every piece has been read.
    """
    here = pointer

    def rows():
        nonlocal here
        for i, item in enumerate(_require_list(value, pointer)):
            here = f"{pointer}/{i}"
            obj = _require_object(item, here, required=("a", "b", "re"), optional=("im",))
            a = _read_rational(obj["a"], f"{here}/a")
            b = _read_rational(obj["b"], f"{here}/b")
            re = _read_rational(obj["re"], f"{here}/re")
            im = _read_rational(obj.get("im", 0), f"{here}/im")
            yield a, b, gaussian_from_ratios(*re, *im)

    try:
        return StepFunction.from_rows(rows())
    except EmptyIntervalError as exc:
        raise SchemaError(here, f"empty interval {exc.interval}") from None
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(pointer, str(exc)) from exc


def encode_step_function(fn: StepFunction) -> list:
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


def write_json(obj, stream) -> None:
    """Write obj to stream byte for byte as `json` writes it with indent=2.

    Only dicts with str keys, lists, str, int, bool and None are written;
    any other value, a float or a tuple included, raises TypeError.  The
    top-level container and each list directly under it go out one element
    per write, so a large result is never held as one string; anything
    deeper is one string per element.
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
        if isinstance(value, list) and value:
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
