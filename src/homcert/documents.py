"""Self-contained JSON documents for every value the CLI exchanges.

One document carries one payload (matrix, module, complex, chain map,
relation, certificate, build tree, generator package or verdict) plus
the ring, so no ambient configuration is needed to interpret it.
Emission is deterministic: compact JSON (no whitespace between
tokens) with sorted keys and a trailing newline, written by CPython's C
encoder, so the emit/parse round trip is byte-stable.

One encoder writes every payload and verdict detail, so a value reads the
same wherever it appears (a module in a verdict's details as a module
payload).  A Mat is its rows, cols and row lists; a BuildTree stores its
target on the root only.  A dataclass is its fields minus `ring`, with a
dict-valued field as sorted [degree, value] pairs, except Verdict.details,
which stays an object.  Dicts, lists and tuples are encoded item by item;
any other value must be JSON-native, or json.dumps raises TypeError.
Mat, Complex and BuildTree, the bulk of the output, are written directly.
No derived value is stored: a generator package is its module and depth
(M*, the comparison, P, its completeness and P* are derived again), and
whether a build-tree leaf is residual is read from its payload.

Parsing validates invariants, not just syntax: every object may hold
only the keys its encoder writes (an unknown key is refused by name, so
a field a format no longer stores is not silently dropped), matrix
entries must be canonical representatives, presentation shapes must
match, and d^2 = 0 is checked on the declared data (the offending
product is included in the error message).  A package's depth is from 1
to SIZE_LIMIT, and its module is resolved as it is read.
A build tree's back node closes the loop above it, at the end of the
loop body's chain of sources; no loop lies inside another.
"""

from __future__ import annotations

import json
import sys
import threading
from contextlib import ContextDecorator
from dataclasses import dataclass, is_dataclass
from typing import Any

from .complexes import ChainMap, Complex, ComplexError, PeriodicTail
from .duality import BuildTree
from .flatness import FlatCertificate, FlatRelation
from .generator import GeneratorPackage, build_generator
from .matrices import SIZE_LIMIT, Mat, MatrixError
from .modules import FPModule
from .rings import Fp, RingDescriptor, Zmod, ZZ
from .verdicts import Verdict

FORMAT_VERSION = "4"
# built once (json.dumps with options builds one a call); C-accelerated without indent
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class DocumentError(ValueError):
    pass


_digits_lock = threading.Lock()
_digits_state = {"users": 0, "saved": 0}


class unlimited_int_digits(ContextDecorator):
    """Lift Python's int <-> str digit limit, which exact integers
    outgrow, while any caller is inside; the last one out restores it."""

    def __enter__(self):
        with _digits_lock:
            if not _digits_state["users"]:
                _digits_state["saved"] = sys.get_int_max_str_digits()
                sys.set_int_max_str_digits(0)
            _digits_state["users"] += 1

    def __exit__(self, *exc):
        with _digits_lock:
            _digits_state["users"] -= 1
            if not _digits_state["users"]:
                sys.set_int_max_str_digits(_digits_state["saved"])


@dataclass(frozen=True)
class Document:
    ring: RingDescriptor
    kind: str
    payload: Any


# -- encoding ---------------------------------------------------------


def ring_to_json(ring: RingDescriptor) -> dict:
    if ring.kind == "Z":
        return {"kind": "Z"}
    return {"kind": ring.kind, "n": ring.n}


def _encode(value: Any) -> Any:  # the rules are in the module docstring
    if isinstance(value, Mat):
        return {"rows": value.rows, "cols": value.cols, "entries": value.row_list()}
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, Complex):
        return {
            "side": value.side,
            "ranks": [[j, r] for j, r in sorted(value.ranks.items())],
            "diffs": [[j, _encode(d)] for j, d in sorted(value.diffs.items())],
            "tail_below": _encode(value.tail_below),
            "tail_above": _encode(value.tail_above),
        }
    if isinstance(value, BuildTree):
        return {**_encode_node(value), "target": _encode(value.target)}
    if is_dataclass(value):
        pairs = not isinstance(value, Verdict)  # a verdict's details stay an object
        obj = {}
        for name in value.__dataclass_fields__:
            if name != "ring":
                v = getattr(value, name)
                if pairs and isinstance(v, dict):
                    obj[name] = [[j, _encode(x)] for j, x in sorted(v.items())]
                else:
                    obj[name] = _encode(v)
        return obj
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value  # not JSON-native: json.dumps refuses it


def _encode_node(tree: BuildTree) -> dict:
    """A build-tree node without its target, which only the root stores."""
    return {
        "kind": tree.kind,
        "payload": _encode(tree.payload),
        "shift": tree.shift,
        "components": [[j, _encode(m)] for j, m in sorted((tree.components or {}).items())],
        "children": [_encode_node(c) for c in tree.children],
    }


def make_document(ring: RingDescriptor, kind: str, payload: Any) -> Document:
    if kind not in PAYLOAD_KINDS:
        raise DocumentError(f"unknown payload kind {kind!r}")
    return Document(ring, kind, payload)


@unlimited_int_digits()
def emit_document(doc: Document) -> str:
    obj = {
        "version": FORMAT_VERSION,
        "ring": ring_to_json(doc.ring),
        "kind": doc.kind,
        "payload": _encode(doc.payload),
    }
    return _ENCODER.encode(obj) + "\n"


# -- decoding ---------------------------------------------------------


def _require(cond: bool, message: str):
    if not cond:
        raise DocumentError(message)


def _object(obj: Any, what: str, keys: tuple[str, ...]):
    """Require a JSON object with no key outside `keys`, and name the first
    unknown one: a field the format does not have is refused, not dropped."""
    _require(isinstance(obj, dict), f"{what} must be an object")
    if unknown := sorted(k for k in obj if k not in keys):
        raise DocumentError(f"{what} has an unknown key {unknown[0]!r}")


def _int(value: Any, what: str, limit: int | None = SIZE_LIMIT) -> int:
    """A JSON integer at most `limit` in absolute value (None: any);
    strings, floats and booleans (a bool is an int in Python) are refused."""
    if type(value) is not int:
        raise DocumentError(f"{what} must be an integer, got {value!r}")
    if limit is not None and abs(value) > limit:
        raise DocumentError(f"{what} must be at most {limit} in absolute value")
    return value


def _bool(value: Any, what: str) -> bool:
    """A JSON boolean; strings, numbers and null are refused."""
    if type(value) is not bool:
        raise DocumentError(f"{what} must be a boolean, got {value!r}")
    return value


def _pairs(obj: dict, field: str, what: str) -> list[tuple[int, Any]]:
    """The [degree, value] pairs of a list field; a missing field is empty."""
    value = obj.get(field, [])
    message = f"{field} must be [degree, {what}] pairs"
    _require(isinstance(value, list), message)
    for pair in value:
        _require(isinstance(pair, list) and len(pair) == 2, message)
    return [(_int(j, "degree"), v) for j, v in value]


def ring_from_json(obj: Any) -> RingDescriptor:
    _require(isinstance(obj, dict) and "kind" in obj, "ring must be an object with a kind")
    kind = obj["kind"]
    _object(obj, "ring", ("kind",) if kind == "Z" else ("kind", "n"))
    try:
        if kind == "Z":
            return ZZ
        if kind == "Zmod":
            return Zmod(_int(obj.get("n"), "ring modulus", None))
        if kind == "Fp":
            return Fp(_int(obj.get("n"), "ring modulus", None))
    except ValueError as exc:
        raise DocumentError(f"bad ring parameters: {exc}") from exc
    raise DocumentError(f"unknown ring kind {kind!r}")


def matrix_from_json(ring: RingDescriptor, obj: Any) -> Mat:
    """A matrix of canonical entries; each row is checked in one pass and
    only a failing row is walked again, to name its first bad entry."""
    _object(obj, "matrix", ("rows", "cols", "entries"))
    rows, cols = _int(obj.get("rows"), "matrix rows"), _int(obj.get("cols"), "matrix cols")
    entries = obj.get("entries")
    if not (isinstance(entries, list) and len(entries) == rows):
        raise DocumentError(f"matrix needs {rows} entry rows")
    n = ring.modulus
    flat: list[int] = []
    for row in entries:
        if not (isinstance(row, list) and len(row) == cols):
            raise DocumentError(f"matrix rows must have {cols} entries")
        if not (all(type(e) is int for e in row) if n is None
                else all(type(e) is int and 0 <= e < n for e in row)):
            for e in row:
                _int(e, "matrix entry", None)
                if ring.normalize(e) != e:
                    raise DocumentError(
                        f"entry {e} is not a canonical representative over {ring}")
        flat.extend(row)
    if cols < 0:  # a negative cols fails every row's length, so here rows = 0
        raise DocumentError("negative dimension")
    return Mat._trusted(ring, rows, cols, tuple(flat))


def module_from_json(ring: RingDescriptor, obj: Any) -> FPModule:
    _object(obj, "module", ("side", "presentation"))
    side = obj.get("side")
    _require(side in ("left", "right"), "module side must be left or right")
    pres = matrix_from_json(ring, obj.get("presentation"))
    return FPModule(ring, side, pres)


def tail_from_json(obj: Any) -> PeriodicTail | None:
    if obj is None:
        return None
    _object(obj, "tail", ("direction", "threshold", "period"))
    fields = [_int(obj.get(f), f"tail {f}") for f in ("direction", "threshold", "period")]
    try:
        return PeriodicTail(*fields)
    except ComplexError as exc:
        raise DocumentError(f"bad periodic tail: {exc}") from exc


def complex_from_json(ring: RingDescriptor, obj: Any) -> Complex:
    _object(obj, "complex", ("side", "ranks", "diffs", "tail_below", "tail_above"))
    side = obj.get("side")
    _require(side in ("left", "right"), "complex side must be left or right")
    ranks = {j: _int(r, "rank") for j, r in _pairs(obj, "ranks", "rank")}
    diffs = {j: matrix_from_json(ring, m) for j, m in _pairs(obj, "diffs", "matrix")}
    try:
        return Complex(ring, side, ranks, diffs,
                       tail_from_json(obj.get("tail_below")),
                       tail_from_json(obj.get("tail_above")))
    except ComplexError as exc:
        raise DocumentError(str(exc)) from exc


def chain_map_from_json(ring: RingDescriptor, obj: Any) -> ChainMap:
    _object(obj, "chain map", ("source", "target", "components"))
    src = complex_from_json(ring, obj.get("source"))
    tgt = complex_from_json(ring, obj.get("target"))
    comps = {j: matrix_from_json(ring, m) for j, m in _pairs(obj, "components", "matrix")}
    try:
        return ChainMap(src, tgt, comps)
    except (MatrixError, ComplexError) as exc:
        raise DocumentError(str(exc)) from exc


def relation_from_json(ring: RingDescriptor, obj: Any) -> FlatRelation:
    _object(obj, "relation", ("a", "z"))
    try:
        return FlatRelation(ring, matrix_from_json(ring, obj.get("a")),
                            matrix_from_json(ring, obj.get("z")))
    except MatrixError as exc:
        raise DocumentError(str(exc)) from exc


def certificate_from_json(ring: RingDescriptor, obj: Any) -> FlatCertificate:
    _object(obj, "certificate", ("ast", "q"))
    return FlatCertificate(matrix_from_json(ring, obj.get("ast")),
                           matrix_from_json(ring, obj.get("q")))


# node kind -> number of children
_ARITY = {"leaf": 0, "back": 0, "susp": 1, "loop": 1, "cone": 2}


def build_tree_from_json(ring: RingDescriptor, obj: Any, root: bool = True,
                         spine: bool | None = None) -> BuildTree:
    """spine: None outside a loop; inside a loop's body, True on the chain
    of sources from the body down, which must end in the body's one back
    node, and False off it, where no back node may stand."""
    _object(obj, "build tree", ("kind", "payload", "shift", "components", "children", "target"))
    _require(("target" in obj) == root,
             "a build tree stores a target on its root and on no other node")
    kind = obj.get("kind")
    if kind not in _ARITY:
        raise DocumentError(f"unknown node kind {kind!r}")
    payload, children = obj.get("payload"), obj.get("children", [])
    if not (isinstance(children, list) and len(children) == _ARITY[kind]
            and (payload is not None) == (kind == "leaf")):
        raise DocumentError(f"bad {kind} node: a leaf has a payload and no children, a susp "
                            "or loop node has 1 child and a cone node 2, and a back node "
                            "none, neither with a payload")
    _require(kind != "back" or spine is not None, "a back node outside a loop")
    _require(kind not in ("leaf", "back") or (kind == "back") == bool(spine),
             "a loop body must end in exactly one back node, at the end of its sources")
    _require(kind != "loop" or spine is None, "a loop nested inside a loop")
    _require(kind != "loop" or isinstance(children[0], dict) and children[0].get("kind") == "cone",
             "a loop's body must be a cone")
    # a loop's body starts the chain of sources; a cone's target is off it
    kids = [True] if kind == "loop" else [spine, None if spine is None else False]
    return BuildTree(
        kind,
        complex_from_json(ring, obj["target"]) if root else None,
        payload=complex_from_json(ring, payload) if payload is not None else None,
        shift=_int(obj.get("shift", 0), "shift"),
        children=tuple(build_tree_from_json(ring, c, False, on) for c, on in zip(children, kids)),
        components={j: matrix_from_json(ring, m)
                    for j, m in _pairs(obj, "components", "matrix")},
    )


def verdict_from_json(obj: Any) -> Verdict:
    _object(obj, "verdict", ("ok", "code", "details", "window_relative"))
    code, details = obj.get("code"), obj.get("details", {})
    if type(code) is not str:
        raise DocumentError(f"verdict code must be a string, got {code!r}")
    if type(details) is not dict:
        raise DocumentError(f"verdict details must be an object, got {details!r}")
    return Verdict(_bool(obj.get("ok"), "verdict ok"), code, details,
                   _bool(obj.get("window_relative", False), "verdict window_relative"))


def package_from_json(ring: RingDescriptor, obj: Any) -> GeneratorPackage:
    _object(obj, "generator package", ("module", "depth"))
    module = module_from_json(ring, obj.get("module"))
    depth = _int(obj.get("depth"), "depth")
    _require(depth >= 1, "package depth must be at least 1")
    return build_generator(module, depth)


_DECODERS = {
    "matrix": matrix_from_json,
    "module": module_from_json,
    "complex": complex_from_json,
    "chain_map": chain_map_from_json,
    "relation": relation_from_json,
    "certificate": certificate_from_json,
    "build_tree": build_tree_from_json,
    "verdict": lambda ring, obj: verdict_from_json(obj),
    "generator_package": package_from_json,
}
PAYLOAD_KINDS = tuple(_DECODERS)


@unlimited_int_digits()
def parse_document(text: str) -> Document:
    try:  # json.loads and the build-tree decoder recurse on nesting
        return _parse(text)
    except RecursionError:
        raise DocumentError("document is nested too deeply") from None


def _parse(text: str) -> Document:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    _object(obj, "document", ("version", "ring", "kind", "payload"))
    version = obj.get("version")
    if version != FORMAT_VERSION:
        raise DocumentError(f"unsupported format version {version!r}")
    ring = ring_from_json(obj.get("ring"))
    kind = obj.get("kind")
    if kind not in PAYLOAD_KINDS:
        raise DocumentError(f"unknown payload kind {kind!r}")
    return Document(ring, kind, _DECODERS[kind](ring, obj.get("payload")))

