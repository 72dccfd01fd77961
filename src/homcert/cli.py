"""Command-line interface over the document format.

Every command reads JSON documents, performs one exact computation and
writes one document back (machine format) or a short human summary
(text format).  Exit status: 0 when the computation succeeds and any
verdict passes, 1 when a checked property fails (the counterexample
verdict is still printed as a document), 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable

from .complexes import Complex, ComplexError, Forms, dualize_complex, split_exactness_check
from .documents import (SIZE_LIMIT, Document, DocumentError, emit_document,
                        make_document, parse_document, unlimited_int_digits)
from .duality import MAX_LEVELS, decompose_resolution, dualize_chain_map, rebuild_verify
from .flatness import (EngineConfig, FlatRelation, cycle_flatness_probe,
                       flat_certificate, pd_bound_collapse)
from .generator import build_generator, resolve_module, verify_generator_quasi_iso
from .matrices import MatrixError
from .modules import FPModule, dual_data
from .verdicts import Verdict


class UsageError(ValueError):
    pass


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise UsageError(f"window must look like a..b, got {text!r}") from exc
    if lo > hi:
        raise UsageError(f"empty window {text!r}")
    if max(-lo, hi) > SIZE_LIMIT:
        raise UsageError(f"window endpoints must be at most {SIZE_LIMIT} "
                         f"in absolute value, got {text!r}")
    return lo, hi


def _int_at_least(low: int, high: int | None = None):
    """An argparse type for integers in [low, high], so a bad value is a
    usage error (exit 2) rather than a failure deep in the computation."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    return parse


def _read_doc(path: str, *kinds: str) -> Document:
    try:
        with open(path) as fh:
            doc = parse_document(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if kinds and doc.kind not in kinds:
        raise UsageError(
            f"{path}: expected a {' or '.join(kinds)} document, got {doc.kind}")
    return doc


def _module_invariants(m: FPModule) -> str:
    free, torsion = m.abelian_invariants()
    parts = ["R^%d" % free] if free else []
    parts += ["R/(%d)" % t for t in torsion]
    return " + ".join(parts) if parts else "0"


def _shape(c: Complex, complete: bool, depth: int) -> str:
    """Whether a resolution (or a complex) is finite, periodic or cut short."""
    if not complete:
        return f"truncated at depth {depth}"
    return f"periodic with period {c.tail_below.period}" if c.tail_below else "finite"


def _resolution_summary(c: Complex, complete: bool, depth: int) -> str:
    span = c.support()
    return (f"resolution in degrees {span[0]}..{span[1]}, {_shape(c, complete, depth)}"
            if span else "zero resolution")


def _print(args, doc: Document, text: Callable[[], str]):
    """Write doc in machine format, or the summary text() in text
    format; the summary is built only when it is printed."""
    if args.format == "machine":
        sys.stdout.write(emit_document(doc))
    else:
        print(text())


def _verdict_exit(args, ring, v: Verdict) -> int:
    _print(args, make_document(ring, "verdict", v), lambda: str(v))
    return 0 if v.ok else 1


def cmd_resolve(args) -> int:
    doc = _read_doc(args.input, "module")
    c, complete = resolve_module(doc.payload, args.depth)
    _print(args, make_document(doc.ring, "complex", c),
           lambda: _resolution_summary(c, complete, args.depth))
    return 0


def cmd_dualize(args) -> int:
    doc = _read_doc(args.input, "module", "complex", "chain_map")
    if doc.kind == "module":
        out = make_document(doc.ring, "module", dual_data(doc.payload)[0])
        text = lambda: f"dual module: {_module_invariants(out.payload)}"
    elif doc.kind == "complex":
        out = make_document(doc.ring, "complex", dualize_complex(doc.payload))
        text = lambda: "dual complex"
    else:
        out = make_document(doc.ring, "chain_map", dualize_chain_map(doc.payload))
        text = lambda: f"dual chain map, components in degrees {sorted(out.payload.components)}"
    _print(args, out, text)
    return 0


def cmd_generator(args) -> int:
    doc = _read_doc(args.input, "module")
    pkg = build_generator(doc.payload, args.depth)
    _print(args, make_document(doc.ring, "generator_package", pkg),
           lambda: f"package for {_module_invariants(pkg.module)}; "
           + _resolution_summary(pkg.resolution, pkg.complete, pkg.depth))
    return 0


def cmd_check_qiso(args) -> int:
    pkg = _read_doc(args.package, "generator_package").payload
    qdoc = _read_doc(args.target, "complex")
    window = _parse_window(args.window)
    v = verify_generator_quasi_iso(pkg, qdoc.payload, window)
    return _verdict_exit(args, qdoc.ring, v)


def cmd_homology(args) -> int:
    doc = _read_doc(args.input, "complex")
    lo, hi = _parse_window(args.window)
    forms = Forms(doc.payload)
    mods = {j: forms.homology_data(j)[0] for j in range(lo, hi + 1)}
    v = Verdict(True, "homology_computed", {str(j): m for j, m in mods.items()})
    _print(args, make_document(doc.ring, "verdict", v),
           lambda: "\n".join(f"H^{j} = {_module_invariants(m)}" for j, m in mods.items()))
    return 0


def cmd_flat_cert(args) -> int:
    doc = _read_doc(args.relation, "relation")
    rel: FlatRelation = doc.payload
    if args.complex is None:
        cert = flat_certificate(rel)
        _print(args, make_document(doc.ring, "certificate", cert),
               lambda: f"certificate with {cert.ast.cols} witnesses")
        return 0
    qdoc = _read_doc(args.complex, "complex")
    v = cycle_flatness_probe(qdoc.payload, args.degree, rel)
    if v.ok:
        cert = v.details["certificate"].certificate
        _print(args, make_document(doc.ring, "certificate", cert),
               lambda: f"certified in degree {args.degree} with {cert.ast.cols} witnesses")
        return 0
    return _verdict_exit(args, doc.ring, v)


def cmd_decompose(args) -> int:
    doc = _read_doc(args.input, "module", "complex")
    if doc.kind == "module":
        (q, complete), what = resolve_module(doc.payload, args.depth), "resolution"
    else:
        q, complete, what = doc.payload, True, "complex"
    tree = decompose_resolution(q, args.depth)
    v = rebuild_verify(tree)
    if not v.ok:
        return _verdict_exit(args, doc.ring, v)
    _print(args, make_document(doc.ring, "build_tree", tree),
           lambda: f"{v.details['free_leaves']} free leaves; {what} "
           f"{_shape(q, complete, args.depth)}"
           + ("; residual leaf" if tree.has_residual() else ""))
    return 0


def cmd_split_check(args) -> int:
    doc = _read_doc(args.input, "complex")
    window = _parse_window(args.window)
    if args.bound is not None:
        v = pd_bound_collapse(doc.payload, EngineConfig(args.bound), window)
    else:
        v = split_exactness_check(doc.payload, window)
    return _verdict_exit(args, doc.ring, v)


@functools.cache  # built once: it is most of the time of a cheap command
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homcert",
        description="exact homological algebra over Z, Z/n and F_p")
    parser.add_argument("--format", choices=("text", "machine"),
                        default="machine", help="output style")
    sub = parser.add_subparsers(dest="command", required=True)

    depth = _int_at_least(1, SIZE_LIMIT)  # a document's depth is at most SIZE_LIMIT too
    p = sub.add_parser("resolve", help="free resolution of a module")
    p.add_argument("input")
    p.add_argument("--depth", type=depth, default=24)
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("dualize", help="dual of a module, complex or chain map")
    p.add_argument("input")
    p.set_defaults(func=cmd_dualize)

    p = sub.add_parser("generator", help="compact generator package for a module")
    p.add_argument("input")
    p.add_argument("--depth", type=depth, default=24)
    p.set_defaults(func=cmd_generator)

    p = sub.add_parser("check-qiso",
                       help="verify the comparison map against a target complex")
    p.add_argument("package")
    p.add_argument("target")
    p.add_argument("--window", default="-4..4")
    p.set_defaults(func=cmd_check_qiso)

    p = sub.add_parser("homology", help="homology modules in a window")
    p.add_argument("input")
    p.add_argument("--window", required=True)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("flat-cert",
                       help="flatness certificate for a relation, optionally "
                       "among cycles of a complex")
    p.add_argument("relation")
    p.add_argument("complex", nargs="?", default=None)
    p.add_argument("--degree", type=int, default=0)
    p.set_defaults(func=cmd_flat_cert)

    p = sub.add_parser("decompose",
                       help="build tree over single frees, checked in every degree")
    p.add_argument("input")
    # a loop that would end deeper than MAX_LEVELS levels is unrolled to
    # them and ends in a residual leaf, so no tree outgrows the recursion limit
    p.add_argument("--depth", type=_int_at_least(1, MAX_LEVELS), default=8,
                   help="resolution search of a module, and levels of a bounded "
                   "complex before a residual leaf; a periodic tail becomes a loop, "
                   f"or a residual leaf after {MAX_LEVELS} levels if it closes deeper")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("split-check",
                       help="split exactness, or the projective-dimension "
                       "collapse when --bound is given")
    p.add_argument("input")
    p.add_argument("--window", required=True)
    p.add_argument("--bound", type=_int_at_least(0), default=None)
    p.set_defaults(func=cmd_split_check)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        with unlimited_int_digits():  # text output prints exact integers too
            return args.func(args)
    except (UsageError, DocumentError, MatrixError, ComplexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
