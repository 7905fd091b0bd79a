"""Command-line front end.

Commands: ext, d2, bar-e1, bounds (table|scan|check), classify,
stems (query).  Data goes to stdout (or --out), diagnostics to stderr.
Exit codes: 0 success, 2 bad input, 3 out of range, 4 refusal to
assemble, 5 a failed self-check of the engine.  Set HCM_CACHE_DIR to cache chart computations between runs.

Each command imports only the engine modules it runs: a process serves
one command, and most commands need one module.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import TYPE_CHECKING, Optional

from .errors import HcmError, InputError, RangeError

if TYPE_CHECKING:
    from .resolution import ExtChart
    from .stmodule import GradedModule

SCHEMA_VERSION = 1

MASSEY_NOTE = "<h1, h0, bottom square> = h1·Q1 on the quadratic chart of an odd cell"


def _emit(args, text: str):
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write --out {args.out!r}: {exc.strerror}") from exc
    else:
        print(text)


def _emit_json(args, payload: dict):
    payload = {"schema": SCHEMA_VERSION, **payload}
    _emit(args, json.dumps(payload, indent=2, sort_keys=True))


def _frac_str(x) -> str:
    from fractions import Fraction

    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    scaled = f * 10
    if scaled.denominator == 1:
        return f"{f.numerator / f.denominator:.1f}"
    return f"{float(f):.4f}"


# -- module specs ---------------------------------------------------------------


# name -> (constructor of (extpower, n), or None for stmodule.builtin(name, n);
# what --n means)
_BUILTINS = {
    "o": (None, ""),
    "o:0": (None, ""),
    "o:1": (None, ""),
    "o:4": (None, ""),
    "Z": (None, " (the bottom degree)"),
    "d2-o": (lambda ep, n: ep.d2_splitting_summands(n)[1], ""),
    "d2-sphere": (lambda ep, n: ep.d2_sphere(n), " (the cell dimension)"),
    "d2-Z": (lambda ep, n: ep.d2_integral(n), " (the bottom degree)"),
    "tensor-o": (lambda ep, n: ep.tensor_square(n), ""),
}


def _load_module(spec: str, n: Optional[int],
                 max_t: Optional[int] = None) -> GradedModule:
    from . import stmodule

    if spec.startswith("builtin:"):
        name = spec[len("builtin:"):]
        if name == "sphere":
            if n is not None:
                raise InputError("--n does not apply to builtin 'sphere'")
            # An empty range is left to minimal_resolution's own check.
            return stmodule.sphere_module(max(max_t, 0) if max_t is not None else 20)
        if name not in _BUILTINS:
            raise InputError(f"unknown builtin module {name!r}")
        make, meaning = _BUILTINS[name]
        if n is None:
            raise InputError(f"builtin {name!r} needs --n{meaning}")
        if make is None:
            return stmodule.builtin(name, n)
        from . import extpower

        return make(extpower, n)
    if n is not None:
        raise InputError(f"--n does not apply to a module file ({spec!r})")
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read module file {spec!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"module file {spec!r}: bad JSON at line {exc.lineno}") from exc
    return stmodule.from_json(data)


def _warn(module: GradedModule) -> None:
    """Each construction warning of ``module`` as one stderr line."""
    for text in module.warnings:
        print(f"warning: {text}", file=sys.stderr)


def _cached_chart(module: GradedModule, max_s: int, max_t: int) -> ExtChart:
    from . import resolution

    cache_dir = os.environ.get("HCM_CACHE_DIR")
    key = None
    if cache_dir:
        import hashlib

        # to_json() omits truncated, which sets the chart's trusted stems
        blob = json.dumps([resolution.CHART_VERSION, module.to_json(), module.truncated,
                           max_s, max_t], sort_keys=True)
        key = os.path.join(cache_dir, hashlib.sha256(blob.encode()).hexdigest() + ".json")
        try:
            with open(key, "r", encoding="utf-8") as fh:
                return resolution.chart_from_json(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            pass  # a missing, unreadable or invalid entry is a miss; rewritten below
    res = resolution.minimal_resolution(module, max_s, max_t)
    chart = resolution.ext_chart(res)
    if key:
        tmp = f"{key}.{os.getpid()}.tmp"
        try:
            os.makedirs(cache_dir, exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(chart.to_json(), fh)
            os.replace(tmp, key)  # readers never see a half-written entry
        except OSError as exc:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise InputError(f"cannot write the chart cache under HCM_CACHE_DIR "
                             f"{cache_dir!r}: {exc}") from exc
    return chart


# -- commands -------------------------------------------------------------------


def cmd_ext(args) -> int:
    module = _load_module(args.module, args.n, max_t=args.max_t)
    _warn(module)
    max_t = args.max_t if args.max_t is not None else module.hi + args.max_s
    max_s = args.max_s
    chart = _cached_chart(module, max_s, max_t)
    if args.module == "builtin:d2-sphere" and args.n % 2:
        from dataclasses import replace

        chart = replace(chart, annotations=chart.annotations + (MASSEY_NOTE,))
    if args.json:
        _emit_json(args, {"chart": chart.to_json()})
        return 0
    from . import render

    if args.format == "svg":
        _emit(args, render.svg_chart(chart))
    else:
        _emit(args, render.ascii_chart(chart))
    return 0


def cmd_d2(args) -> int:
    if (args.lo is None) != (args.hi is None):
        raise InputError("give both --lo and --hi, or neither")
    if args.lo is not None and args.lo > args.hi:
        raise InputError(f"--lo {args.lo} is above --hi {args.hi}")
    base = _load_module(args.module, args.n)
    _warn(base)
    bottom = base.bottom_nonzero
    if bottom is None:
        raise InputError("cannot form the quadratic power of a zero module")
    window = ((args.lo, args.hi) if args.lo is not None
              else (2 * bottom, min(2 * base.hi, 3 * bottom - 1, bottom + base.hi)))
    if window[1] < window[0]:
        raise RangeError(
            f"no quadratic window above degree {2 * bottom}: the bottom cell sits "
            f"in degree {bottom}, and the construction needs degrees <= {3 * bottom - 1}")
    from . import extpower

    d2 = extpower.d2_homology(base, window, square_style=args.square_style)
    if args.json:
        _emit_json(args, {"module": d2.to_json(),
                          "edges": [list(e) for e in extpower.derived_edges(d2)]})
    else:
        lines = [f"quadratic extended power, window [{d2.lo}, {d2.hi}]"]
        for d in range(d2.lo, d2.hi + 1):
            if d2.dim(d):
                lines.append(f"  {d}: " + ", ".join(d2.labels(d)))
        lines.append("action (homology, degree-lowering):")
        for k, src, dst in extpower.derived_edges(d2):
            lines.append(f"  Sq_{k}: {src} -> {dst}")
        _emit(args, "\n".join(lines))
    return 0


def cmd_bar_e1(args) -> int:
    from . import barpage

    page = barpage.e1_page(args.n)
    if args.json:
        _emit_json(args, page.to_json())
        return 0
    n = args.n
    lines = [f"bar E1 page near degree {2 * n} (n = {n}, n mod 8 = {page.residue})"]
    for (s, total) in sorted(page.entries, reverse=True):
        parts = " + ".join(str(x) for x in page.entry(s, total))
        lines.append(f"  s={s}  t+s={total}:  {parts}")
    _emit(args, "\n".join(lines))
    return 0


def cmd_bounds_table(args) -> int:
    from . import bounds

    rows = bounds.table1(args.from_n, args.to_n)
    if args.json:
        _emit_json(args, {"rows": [
            {"n": r.n, "lhs": r.lhs, "rhs": str(r.rhs), "verdict": r.verdict,
             "printed": r.printed, "discrepancy": r.discrepancy} for r in rows]})
        return 0
    if args.csv:
        lines = ["n,2M1-3,rhs_decimal,rhs_fraction,verdict,marker"]
        for r in rows:
            marker = "paper-discrepancy" if r.discrepancy else ""
            lines.append(f"{r.n},{r.lhs},{_frac_str(r.rhs)},{r.rhs},"
                         f"{'pass' if r.verdict else 'fail'},{marker}")
        _emit(args, "\n".join(lines))
        return 0
    lines = ["  n   2M1-3   0.4n+5.2   verdict"]
    for r in rows:
        mark = "  [paper-discrepancy: printed %d]" % r.printed if r.discrepancy else ""
        lines.append(f"{r.n:>3}   {r.lhs:>5}   {_frac_str(r.rhs):>8}   "
                     f"{'pass' if r.verdict else 'fail'}{mark}")
    _emit(args, "\n".join(lines))
    return 0


def cmd_bounds_scan(args) -> int:
    from . import bounds

    case = args.case.replace("-", "_")
    result = bounds.threshold_scan(case, args.horizon)
    if args.json:
        _emit_json(args, {
            "case": result.case, "N": result.N, "horizon": result.horizon,
            "citation": result.citation, "matches_stated": result.matches_stated,
            "dominance": {
                "lhs_block_growth_min": result.dominance.lhs_block_growth_min,
                "rhs_block_growth": str(result.dominance.rhs_block_growth),
                "min_tail_margin": str(result.dominance.min_tail_margin),
                "certified": result.dominance.certified},
            "condition3": result.condition3})
        return 0
    extra = "" if result.matches_stated else f" (stated: {result.stated_n})"
    lines = [f"N = {result.N} (paper: {result.citation}){extra}",
             f"dominance certificate: {'passes' if result.dominance.certified else 'FAILS'} "
             f"(block growth {result.dominance.lhs_block_growth_min} vs "
             f"{result.dominance.rhs_block_growth}, tail margin "
             f"{_frac_str(result.dominance.min_tail_margin)})",
             f"side condition 2n >= {result.condition3['stated_k']}: "
             f"sufficient={result.condition3['stated_sufficient']}, "
             f"true minimal k = {result.condition3['true_minimal_k']}"]
    if case == "d1":
        lines.append("note: statement quotes n >= 28, proof concludes n >= 26; "
                     "the scan reports the formula-true value")
    _emit(args, "\n".join(lines))
    return 0


def cmd_bounds_check(args) -> int:
    from fractions import Fraction

    from . import bounds

    try:
        s = Fraction(args.s)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"--s must be a rational number such as 5/2, got {args.s!r}") from None
    report = bounds.check_af_j(args.k, s, args.l)
    if args.json:
        _emit_json(args, {
            "k": report.k, "s": str(report.s), "l": report.l,
            "all_hold": report.all_hold,
            "conditions": [
                {"name": c.name, "holds": c.holds, "lhs": str(c.lhs),
                 "rhs": str(c.rhs), "margin": str(c.margin)}
                for c in report.conditions]})
        return 0
    lines = [f"k={report.k} s={report.s} l={report.l}: "
             f"{'all conditions hold' if report.all_hold else 'FAILS'}"]
    for c in report.conditions:
        lines.append(f"  {c.name}: {c.lhs} >= {c.rhs}  "
                     f"{'ok' if c.holds else 'fails'} (margin {c.margin})")
    _emit(args, "\n".join(lines))
    return 0


# the one n whose inertia group each invariant flag decides
_INVARIANT_FLAGS = (("p1", "--p1", 4), ("p2", "--p2", 8), ("normal_h", "--normal-h", 9))


def cmd_classify(args) -> int:
    invariant = None
    for attr, flag, n in _INVARIANT_FLAGS:
        value = getattr(args, attr)
        if value is None:
            continue
        if args.n != n:
            raise InputError(f"{flag} applies only to n = {n}, not n = {args.n}")
        invariant = value
    from . import classify

    result = classify.classification_result(args.n, invariant)
    if args.json:
        _emit_json(args, result.to_json())
        return 0
    cite = lambda tags: " [" + "; ".join(tags) + "]"
    lines = [f"n = {result.n} (dimension {result.dimension})"]
    lines.append(f"  I(M) = {result.inertia}" + cite(result.inertia.citations))
    lines.append(f"  I_h(M) = {result.homotopy_inertia}, "
                 f"I_c(M) = {result.concordance_inertia} [Thm 1.4]")
    lines.append(f"  A-group = {result.a_group} [Thm 2.2]")
    lines.append(f"  kernel of unit map: {result.kernel}" + cite(result.kernel.citations))
    lines.append(f"  boundary: {result.boundary.boundary_map}"
                 + cite(result.boundary.citations))
    lines.append(f"  spheres bounding: {result.boundary.spheres_bounding}")
    if result.boundary.qualifier:
        lines.append(f"  ({result.boundary.qualifier})")
    lines.append(f"  status: {result.status}")
    _emit(args, "\n".join(lines))
    return 0


def cmd_stems(args) -> int:
    from . import classify

    if args.product and args.stem is not None:
        raise InputError("stems query takes --stem K or --product A B, not both")
    db = classify.load_stems(args.stems)
    if args.product:
        fact = db.product(args.product[0], args.product[1])
        if args.json:
            _emit_json(args, {"a": fact.a, "b": fact.b, "result": fact.result,
                              "note": fact.note, "stems": [fact.stem_a, fact.stem_b]})
        else:
            note = f"  ({fact.note})" if fact.note else ""
            _emit(args, f"{fact.a} * {fact.b} = {fact.result}{note}")
        return 0
    if args.stem is None:
        raise InputError("stems query needs --stem K or --product A B")
    rec = db.stem(args.stem)
    if args.json:
        _emit_json(args, {
            "k": rec.k, "group": rec.group.to_json(), "im_j_order": rec.im_j_order,
            "generators": [{"label": g.label, "aliases": list(g.aliases),
                            "im_j": g.im_j, "mu_family": g.mu_family}
                           for g in rec.generators],
            "notes": list(rec.notes)})
        return 0
    gens = ", ".join(
        g.label + (" (im J)" if g.im_j else "") + (" (mu)" if g.mu_family else "")
        for g in rec.generators) or "-"
    lines = [f"pi_{rec.k} = {rec.group}   im J order {rec.im_j_order}",
             f"  generators: {gens}"]
    for note in rec.notes:
        lines.append(f"  note: {note}")
    _emit(args, "\n".join(lines))
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="machine-readable output")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write output to a file instead of stdout")
    common.add_argument("--stems", default=argparse.SUPPRESS,
                        help="override the bundled stems data file (stems query only)")

    p = argparse.ArgumentParser(
        prog="hcm",
        parents=[common],
        description="Steenrod-module charts, filtration bounds, and the "
                    "classification tables for highly connected manifolds.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    ext = add("ext", help="minimal-resolution Ext chart of a module")
    ext.add_argument("--module", required=True,
                     help="builtin:<name> or a module JSON file")
    ext.add_argument("--n", type=int)
    ext.add_argument("--max-s", type=int, default=6)
    ext.add_argument("--max-t", type=int)
    ext.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    ext.set_defaults(func=cmd_ext)

    d2 = add("d2", help="quadratic extended-power homology of a module")
    d2.add_argument("--module", required=True)
    d2.add_argument("--n", type=int)
    d2.add_argument("--lo", type=int)
    d2.add_argument("--hi", type=int)
    d2.add_argument("--square-style", choices=("q", "power"), default="q")
    d2.set_defaults(func=cmd_d2)

    bar = add("bar-e1", help="the bar-filtration first page near degree 2n")
    bar.add_argument("--n", type=int, required=True)
    bar.set_defaults(func=cmd_bar_e1)

    b = add("bounds", help="filtration-bound tables and scans")
    bsub = b.add_subparsers(dest="bounds_command", required=True)
    bt = bsub.add_parser("table", parents=[common], help="the lower-bound table with printed cross-checks")
    bt.add_argument("--from", dest="from_n", type=int, required=True)
    bt.add_argument("--to", dest="to_n", type=int, required=True)
    bt.add_argument("--csv", action="store_true")
    bt.set_defaults(func=cmd_bounds_table)
    bs = bsub.add_parser("scan", parents=[common], help="threshold scan with dominance certificate")
    bs.add_argument("--case", required=True,
                    choices=("d1", "d2-mod0", "d2-mod1", "d2_mod0", "d2_mod1"))
    bs.add_argument("--horizon", type=int, default=4096)
    bs.set_defaults(func=cmd_bounds_scan)
    bc = bsub.add_parser("check", parents=[common], help="evaluate the three image-of-J conditions")
    bc.add_argument("--k", type=int, required=True)
    bc.add_argument("--s", required=True)
    bc.add_argument("--l", type=int, required=True)
    bc.set_defaults(func=cmd_bounds_check)

    c = add("classify", help="classification record for one n")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--p1", type=int, help="first Pontryagin class value (n = 4)")
    c.add_argument("--p2", type=int, help="second Pontryagin class value (n = 8)")
    c.add_argument("--normal-h", type=int, choices=(0, 1),
                   help="image of the normal bundle map (n = 9)")
    c.set_defaults(func=cmd_classify)

    s = add("stems", help="stable-stem database queries")
    ssub = s.add_subparsers(dest="stems_command", required=True)
    sq = ssub.add_parser("query", parents=[common])
    sq.add_argument("--stem", type=int)
    sq.add_argument("--product", nargs=2, metavar=("A", "B"))
    sq.set_defaults(func=cmd_stems)

    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    for name, default in (("json", False), ("out", None), ("stems", None)):
        if not hasattr(args, name):
            setattr(args, name, default)
    try:
        if args.stems is not None and args.func is not cmd_stems:
            raise InputError("--stems applies only to stems query")
        return args.func(args)
    except HcmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
