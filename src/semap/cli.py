"""Command-line interface.

Exit codes: 0 success, 1 domain error (the offending error class name is
printed), 2 usage or parse error.  ``--json`` prints one JSON document
with the same fields as the human-readable report; commands that emit a
map require ``--out`` in that mode so stdout stays parseable.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from semap import catalog, verification
from semap.classify import identify
from semap.errors import (
    ClassificationViolation,
    ConvergenceFailure,
    MapFormatError,
    NoFreeInvolution,
    SemapError,
)
from semap.map_core import PolyhedralMap, format_map_text, parse_map_text
from semap.operators import (
    dual,
    insert_diagonal_matching,
    rectify,
    remove_deep_blue,
    truncate,
)
from semap.symmetry import (
    are_isomorphic,
    automorphism_group,
    cycle_notation,
    double_cover,
    free_involutions,
    is_vertex_transitive,
    quotient,
)
from semap.vtype import enumerate_admissible, predicted_vertex_count, semi_equivelar_type


class _UsageError(Exception):
    pass


def _read_map(path: str | None) -> PolyhedralMap:
    try:
        if path in (None, "-"):
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path or 'stdin'}: {exc}") from None
    return parse_map_text(text)


def _emit_map(m: PolyhedralMap, out: str | None, report_lines: list[str], as_json: bool, payload: dict) -> None:
    """Write the map and the report; the map claims stdout when --out is absent."""
    text = format_map_text(m)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        if as_json:
            print(json.dumps(payload))
        else:
            for line in report_lines:
                print(line)
    else:
        if as_json:
            raise _UsageError("--json needs --out when a map goes to stdout")
        sys.stdout.write(text)
        for line in report_lines:
            print(line, file=sys.stderr)


def _describe(m: PolyhedralMap) -> str:
    return f"{semi_equivelar_type(m)} {m.vertex_count}"


# --------------------------------------------------------------------------
# commands


def _cmd_enum_types(args) -> int:
    if args.max_gon < 12:
        raise _UsageError(f"--max-gon must be at least 12, got {args.max_gon}")
    result = enumerate_admissible(args.max_gon)
    sporadic = sorted(result.sporadic, key=lambda t: (t.degree, t.sizes))
    payload = {
        "sporadic": [
            {"type": str(t), "count": predicted_vertex_count(t)} for t in sporadic
        ],
        "families": [
            {
                "label": fam.label,
                "members": [
                    {"type": str(t), "count": predicted_vertex_count(t)}
                    for t in fam.members
                ],
            }
            for fam in result.families
        ],
        "violations": [str(t) for t in result.violations],
    }
    if args.json:
        print(json.dumps(payload))
    else:
        for item in payload["sporadic"]:
            print(f"{item['type']} {item['count']}")
        for fam in payload["families"]:
            for item in fam["members"]:
                print(f"{item['type']} {item['count']}")
        if payload["violations"]:
            print("violations: " + " ".join(payload["violations"]))
    return 1 if result.violations else 0


def _cmd_build(args) -> int:
    entry = catalog.entry_by_name(args.name)
    payload = {
        "name": entry.name,
        "type": str(entry.vertex_type),
        "count": entry.vertex_count,
    }
    _emit_map(entry.map, args.out, [f"{entry.vertex_type} {entry.vertex_count}"], args.json, payload)
    return 0


def _apply_operator(op: str, m: PolyhedralMap, seed: str | None) -> PolyhedralMap:
    if op == "truncate":
        return truncate(m)
    if op == "rectify":
        return rectify(m)
    if op == "dual":
        return dual(m)
    if op == "remove-deep-blue":
        return remove_deep_blue(m)
    if op == "insert-matching":
        if seed:
            try:
                a, c = (int(t) for t in seed.split(","))
            except ValueError:
                raise _UsageError(f"--seed wants 'a,c' with integers, got {seed!r}") from None
            return insert_diagonal_matching(m, (a, c))
        return insert_diagonal_matching(m)
    if op == "quotient":
        involutions = free_involutions(m)
        if not involutions:
            raise NoFreeInvolution("map has no free involution")
        return quotient(m, involutions[0])
    if op == "double-cover":
        return double_cover(m)[0]
    raise _UsageError(f"unknown operator {op!r}")


def _cmd_apply(args) -> int:
    m = _read_map(args.infile)
    before = _describe(m)
    result = _apply_operator(args.op, m, args.seed)
    after = _describe(result)
    payload = {"op": args.op, "before": before, "after": after}
    _emit_map(result, args.out, [f"before: {before}", f"after: {after}"], args.json, payload)
    return 0


def _cmd_classify(args) -> int:
    m = _read_map(args.infile)
    verdict = identify(m)
    if args.json:
        print(
            json.dumps(
                {"name": verdict.name, "witness": cycle_notation(verdict.witness)}
            )
        )
    else:
        print(verdict.describe())
    return 0


def _cmd_isom(args) -> int:
    a = _read_map(args.map_a)
    b = _read_map(args.map_b)
    answer = are_isomorphic(a, b)
    if args.json:
        print(json.dumps({"isomorphic": answer}))
    else:
        print(f"isomorphic: {'true' if answer else 'false'}")
    return 0


def _cmd_autgroup(args) -> int:
    m = _read_map(args.infile)
    group = automorphism_group(m)
    transitive = is_vertex_transitive(m)
    if args.json:
        print(
            json.dumps(
                {
                    "order": group.order,
                    "orbits": [list(o) for o in group.orbits],
                    "vertex_transitive": transitive,
                    "generators": [cycle_notation(p) for p in group.generators],
                }
            )
        )
    else:
        print(f"order: {group.order}")
        print(f"orbits: {' '.join(str(len(o)) for o in group.orbits)}")
        print(f"vertex-transitive: {'true' if transitive else 'false'}")
        for p in group.generators:
            print(cycle_notation(p))
    return 0


def _cmd_export(args) -> int:
    # geometry loads numpy; no other command needs it
    from semap import geometry

    m = _read_map(args.infile)
    note = None
    try:
        realization = geometry.realize_on_sphere(m)
    except ConvergenceFailure as exc:
        realization = exc.realization
        note = str(exc)
    blob = geometry.export(realization, m, args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(blob)
    else:
        sys.stdout.buffer.write(blob)
    if note:
        print(f"note: {note}; exporting the partial relaxation", file=sys.stderr)
    if args.json:
        r = realization.report
        print(
            json.dumps(
                {
                    "provenance": realization.provenance,
                    "unit_norm_deviation": r.unit_norm_deviation,
                    "edge_length_spread": r.edge_length_spread,
                    "max_planarity_residual": r.max_planarity_residual,
                    "max_regularity_residual": r.max_regularity_residual,
                    "iterations": r.iterations,
                    "converged": r.converged,
                }
            )
        )
    return 0


def _write_catalog(args, entries) -> int:
    manifest = catalog.write_catalog(entries, args.out)
    if args.json:
        print(json.dumps({"entries": len(entries), "manifest": manifest}))
    else:
        print(f"wrote {len(entries)} maps and {manifest}")
    return 0


def _cmd_sphere_catalog(args) -> int:
    return _write_catalog(args, catalog.sphere_catalog(args.max_gon))


def _cmd_rp2_catalog(args) -> int:
    return _write_catalog(args, catalog.rp2_catalog())


def _cmd_verify(args) -> int:
    names = list(verification.SUITES) if args.suite == "all" else [args.suite]
    results = [verification.run_suite(name) for name in names]
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "suite": r.name,
                        "passed": r.passed,
                        "detail": r.detail,
                        "elapsed": r.elapsed,
                        "budget": r.budget,
                    }
                    for r in results
                ]
            )
        )
    else:
        for r in results:
            print(r.line())
    return 0 if all(r.passed for r in results) else 1


# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semap",
        description="semi-equivelar maps on the sphere and the projective plane",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="machine-readable report")
        return p

    p = add("enum-types", _cmd_enum_types, help="enumerate admissible vertex types")
    p.add_argument("--max-gon", type=int, required=True)

    p = add("build", _cmd_build, help="construct a catalog map")
    p.add_argument("name")
    p.add_argument("--out")

    p = add("apply", _cmd_apply, help="apply an operator to a map")
    p.add_argument(
        "op",
        choices=[
            "truncate",
            "rectify",
            "dual",
            "remove-deep-blue",
            "insert-matching",
            "quotient",
            "double-cover",
        ],
    )
    p.add_argument("--in", dest="infile")
    p.add_argument("--out")
    p.add_argument("--seed", help="diagonal 'a,c' for insert-matching")

    p = add("classify", _cmd_classify, help="name the catalog entry of a map")
    p.add_argument("--in", dest="infile")

    p = add("isom", _cmd_isom, help="test two maps for isomorphism")
    p.add_argument("map_a")
    p.add_argument("map_b")

    p = add("autgroup", _cmd_autgroup, help="automorphism group of a map")
    p.add_argument("--in", dest="infile")

    p = add("export", _cmd_export, help="export OFF or SVG geometry")
    p.add_argument("--in", dest="infile")
    p.add_argument("--format", choices=["off", "svg"], required=True)
    p.add_argument("--out")

    p = add("sphere-catalog", _cmd_sphere_catalog, help="write the sphere catalog")
    p.add_argument("--out", required=True)
    p.add_argument("--max-gon", type=int, default=12)

    p = add("rp2-catalog", _cmd_rp2_catalog, help="write the projective-plane catalog")
    p.add_argument("--out", required=True)

    p = add("verify", _cmd_verify, help="run a named verification suite")
    p.add_argument("--suite", default="all", choices=["all", *verification.SUITES])

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout is gone; point stdout at devnull so the
        # flush at interpreter exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: BrokenPipeError", file=sys.stderr)
        return 1
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MapFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ClassificationViolation as exc:
        print(f"error: ClassificationViolation: {exc}", file=sys.stderr)
        sys.stderr.write(exc.map_text)  # dump the offending map
        return 1
    except SemapError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
