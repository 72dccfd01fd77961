"""Command-line interface over the document format: homcert [--format F] COMMAND ...

Every command reads JSON documents, performs one exact computation and
writes one document back (machine format) or a short human summary
(text format); a package document is {depth, module}, so a machine-format
`generator` derives nothing.  Each command word has one parser, built on
the first call, which also takes the options written before the word.
Exit status: 0 when the computation succeeds and any verdict passes, 1
when a checked property fails (the counterexample verdict is still
printed as a document), 2 on usage or parse errors.
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
from .generator import GeneratorPackage, resolve_module, verify_generator_quasi_iso
from .matrices import MatrixError
from .modules import FPModule, dual_data
from .verdicts import Verdict


class UsageError(ValueError):
    pass


def _window(text: str) -> tuple[int, int]:
    try:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"window must look like a..b, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty window {text!r}")
    if max(-lo, hi) > SIZE_LIMIT:
        raise argparse.ArgumentTypeError(f"window endpoints must be at most {SIZE_LIMIT} "
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
    pkg = GeneratorPackage(doc.payload, args.depth)  # derived only for the text summary
    _print(args, make_document(doc.ring, "generator_package", pkg),
           lambda: f"package for {_module_invariants(pkg.module)}; "
           + _resolution_summary(pkg.resolution, pkg.complete, pkg.depth))
    return 0


def cmd_check_qiso(args) -> int:
    pkg = _read_doc(args.package, "generator_package").payload
    qdoc = _read_doc(args.target, "complex")
    v = verify_generator_quasi_iso(pkg, qdoc.payload, args.window)
    return _verdict_exit(args, qdoc.ring, v)


def cmd_homology(args) -> int:
    doc = _read_doc(args.input, "complex")
    lo, hi = args.window
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
    if args.window is None and not doc.payload.is_bounded:
        raise UsageError("--window is needed for a complex with a tail")
    if args.bound is not None:  # a bounded complex is decided whole: no window is read
        v = pd_bound_collapse(doc.payload, EngineConfig(args.bound), args.window)
    else:
        v = split_exactness_check(doc.payload, args.window)
    return _verdict_exit(args, doc.ring, v)


@functools.cache  # built once, on the first call: most of the time of a cheap command
def build_parsers() -> dict[str, argparse.ArgumentParser]:
    """One parser per command word, each taking --format from one parent."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "machine"),
                        default="machine", help="output style")
    parsers = {}

    def command(name: str, func, summary: str, *positionals: str) -> argparse.ArgumentParser:
        p = parsers[name] = argparse.ArgumentParser(
            prog=f"homcert {name}", description=summary, parents=[common])
        p.set_defaults(func=func)
        for arg in positionals:
            p.add_argument(arg)
        return p

    depth = _int_at_least(1, SIZE_LIMIT)  # a document's depth is at most SIZE_LIMIT too
    p = command("resolve", cmd_resolve, "free resolution of a module", "input")
    p.add_argument("--depth", type=depth, default=24)
    command("dualize", cmd_dualize, "dual of a module, complex or chain map", "input")
    p = command("generator", cmd_generator, "compact generator package for a module", "input")
    p.add_argument("--depth", type=depth, default=24)
    p = command("check-qiso", cmd_check_qiso,
                "verify the comparison map against a target complex", "package", "target")
    p.add_argument("--window", type=_window, default="-4..4")
    p = command("homology", cmd_homology, "homology modules in a window", "input")
    p.add_argument("--window", type=_window, required=True)
    p = command("flat-cert", cmd_flat_cert, "flatness certificate for a relation, "
                "optionally among cycles of a complex", "relation")
    p.add_argument("complex", nargs="?", default=None)
    p.add_argument("--degree", type=int, default=0)
    p = command("decompose", cmd_decompose,
                "build tree over single frees, checked in every degree", "input")
    # a loop that would end deeper than MAX_LEVELS levels is unrolled to
    # them and ends in a residual leaf, so no tree outgrows the recursion limit
    p.add_argument("--depth", type=_int_at_least(1, MAX_LEVELS), default=8,
                   help="resolution search of a module, and levels of a bounded "
                   "complex before a residual leaf; a periodic tail becomes a loop, "
                   f"or a residual leaf after {MAX_LEVELS} levels if it closes deeper")
    p = command("split-check", cmd_split_check, "split exactness, or the "
                "projective-dimension collapse when --bound is given", "input")
    p.add_argument("--window", type=_window, help="needed on a tail")
    p.add_argument("--bound", type=_int_at_least(0), default=None)
    return parsers


_USAGE = "usage: homcert [-h] [--format {text,machine}] COMMAND ..."


def _command_word(argv: list[str]) -> int | None:
    """The first argument that is neither an option nor a --format value."""
    value = False
    for i, arg in enumerate(argv):
        if value or arg.startswith("-"):
            value = not value and len(arg) > 2 and "--format".startswith(arg)
        else:
            return i
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parsers, i = build_parsers(), _command_word(argv)
    if i is None and {"-h", "--help"} & set(argv):
        print(_USAGE, "", "commands (COMMAND -h lists its arguments):",
              *(f"  {name:13}{p.description}" for name, p in parsers.items()), sep="\n")
        return 0
    if i is None or argv[i] not in parsers:
        what = "a command is required" if i is None else f"unknown command {argv[i]!r}"
        print(f"{_USAGE}\nhomcert: error: {what} (choose from {', '.join(parsers)})",
              file=sys.stderr)
        return 2
    try:  # options before the command word are the command's too
        args = parsers[argv[i]].parse_args(argv[:i] + argv[i + 1:])
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
