"""JSON encoding/decoding of the algebraic objects.

Wire formats (exact rationals are encoded as "p/q" strings):

  step function   [ {"a": "0", "b": "3/2", "re": "1", "im": "0"}, ... ]
  element         [ {"tag": "RHPWN", "n": 2, "k": 1, "pieces": [...]}, ... ]
  word            [ {"n": 2, "k": 0, "function": "chi_I" | [pieces]}, ... ]
  mu polynomial   {"mu_poly": ["c0", "c1", ...]}

Decoders validate shape strictly (unknown fields rejected) and raise
SchemaError carrying the JSON-pointer of the offending node.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import RHPWN, WINFTY, AlgebraElement, GeneratorIndex
from .errors import IndexRangeError, SchemaError
from .mupoly import MuPoly
from .rewrite import Word
from .scalars import ComplexRational, parse_fraction
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


def _read_fraction(value, pointer) -> Fraction:
    try:
        return parse_fraction(value)
    except (TypeError, ValueError):
        raise SchemaError(pointer, f"expected a rational ('p/q'), got {value!r}") from None


# -- step functions ------------------------------------------------------------


def decode_step_function(value, pointer="") -> StepFunction:
    pieces = []
    for i, item in enumerate(_require_list(value, pointer)):
        here = f"{pointer}/{i}"
        obj = _require_object(item, here, required=("a", "b", "re"), optional=("im",))
        a = _read_fraction(obj["a"], f"{here}/a")
        b = _read_fraction(obj["b"], f"{here}/b")
        re = _read_fraction(obj["re"], f"{here}/re")
        im = _read_fraction(obj.get("im", 0), f"{here}/im")
        if a >= b:
            raise SchemaError(here, f"empty interval [{a}, {b})")
        pieces.append((a, b, ComplexRational(re, im)))
    try:
        return StepFunction(pieces)
    except ValueError as exc:
        raise SchemaError(pointer, str(exc)) from exc


def encode_step_function(fn: StepFunction) -> list:
    return [
        {"a": str(a), "b": str(b), "re": str(c.re), "im": str(c.im)}
        for a, b, c in fn.pieces
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


def encode_word(word: Word) -> list:
    out = []
    for idx, fn in word:
        entry = {"n": idx.n, "k": idx.k}
        entry["function"] = "chi_I" if fn == CHI else encode_step_function(fn)
        out.append(entry)
    return out


# -- mu polynomials ---------------------------------------------------------------


def encode_mu_poly(poly: MuPoly) -> dict:
    return {"mu_poly": poly.to_strings()}


def decode_mu_poly(value, pointer="") -> MuPoly:
    obj = _require_object(value, pointer, required=("mu_poly",))
    items = _require_list(obj["mu_poly"], f"{pointer}/mu_poly")
    try:
        return MuPoly.from_strings(items)
    except ValueError as exc:
        raise SchemaError(f"{pointer}/mu_poly", str(exc)) from exc
