"""Command-line front door. Exit codes: 0 success/valid, 1 invalid input or
failed check, 2 usage error, a flag value out of range included. ``--json``
switches stdout to a stable machine-readable report (sorted keys, canonical
ordering)."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import __version__
from .errors import (InvalidFactorError, InvalidStructureError, PermlatError, SizeCapError,
                     UsageError)
from .formats import (dump_perm, dump_structure, load_cover, load_lattice,
                      load_perm, load_structure, read_lattice_ref,
                      write_manifest)
from .generic import (MAX_DEPTH, GenerationConfig, extension_property_check,
                      generate_generic, homogeneity_check)
from .lattice import (MAX_DISTRIBUTIVE_ENUM, dimension_bounds, enumerate_distributive_lattices,
                      is_distributive, require_lattice, validate_lattice)
from .permstruct import (MAX_PROFILE_K, cameron_enumeration, decode_relations, encode_orders,
                         profile)
from .spaces import (MAX_BASE_POINTS, MAX_NEW_POINTS, LambdaSpace,
                     amalgamation_failure_probe, canonical_amalgam, validate_space)
from .sqorders import OrderedLambdaStructure, _require_valid, compose_lex, split_convex_linear


def _emit(args, payload: dict, human: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        for line in human:
            print(line)


def _validity_lines(report, detail: str = "") -> list[str]:
    """The human lines of a validation report: the verdict, then each violation."""
    return [f"valid: {report.ok}{detail}"] + [
        f"  violation {v.rule}: {v.witness} ({v.message})" for v in report.violations]


def _carry_lattice_ref(infile: str, out: str | None) -> str:
    """Re-point a structure file's lattice reference at the output location."""
    ref = read_lattice_ref(infile)
    if ref is None:
        return "lattice.lat"
    if out is None:
        return ref
    target = (Path(infile).parent / ref).resolve()
    return os.path.relpath(target, Path(out).resolve().parent)


def _write_structure(args, s, infile: str, notes=(), **payload) -> int:
    """Dump a result structure with ``infile``'s lattice reference carried to
    ``--out``, write it there when given, and emit it with the extra human
    lines ``notes`` and the extra JSON keys ``payload``."""
    text = dump_structure(s, lattice_ref=_carry_lattice_ref(infile, args.out))
    if args.out:
        Path(args.out).write_text(text)
    _emit(args, {**payload, "structure": text}, [text.rstrip(), *notes])
    return 0


def _parse_orders_spec(spec: str, lat) -> list[tuple[str, str]]:
    out = []
    for item in spec.split(","):
        parts = item.split(":")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise UsageError(f"bad order signature {item!r}; expected BOTTOM:TOP")
        unknown = [e for e in parts if e not in lat.index]
        if unknown:
            raise UsageError(f"order signature {item!r} names {unknown[0]!r}, which is not "
                             f"an element of the lattice")
        if not lat.leq(*parts):
            raise UsageError(f"order signature {item!r}: {parts[0]} does not lie below "
                             f"{parts[1]}")
        out.append((parts[0], parts[1]))
    return out


def _in_range(flag: str, value: int, low: int, high: int | None = None) -> None:
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise UsageError(f"{flag} must be {bound}, got {value}")


def _capped(flag: str, value: int, cap: int) -> None:
    if value > cap:
        raise SizeCapError(f"{flag} is capped at {cap}, got {value}")


def _require_out_file(path: str | None) -> None:
    """Refuse, before any work is done, an --out path that names a directory
    or lies in a directory that does not exist."""
    if path is None:
        return
    if Path(path).is_dir():
        raise UsageError(f"--out {path} is a directory")
    if not Path(path).parent.is_dir():
        raise UsageError(f"--out {path}: directory {Path(path).parent} does not exist")


def _load_structure(path: str):
    """Load a structure file and refuse it unless its lattice is a lattice."""
    space, orders = load_structure(path)
    require_lattice(space.lattice, path)
    return space, orders


def _load_checked(path: str, *order_flags: tuple[str, int]):
    """Load a structure file, refuse it unless it validates, and return it
    with the orders picked by the ``(flag, index)`` pairs."""
    space, orders = _load_structure(path)
    s = OrderedLambdaStructure(space, orders)
    _require_valid(s, path)
    for flag, i in order_flags:
        if not 0 <= i < len(orders):
            raise UsageError(f"{flag} {i} is out of range: {path} has {len(orders)} orders")
    return s, [orders[i] for _, i in order_flags]


# ---------------------------------------------------------------------------
# lattice commands


def cmd_lattice_check(args) -> int:
    lat = load_lattice(args.file)
    report = validate_lattice(lat)
    dist = is_distributive(lat) if report.ok else None
    payload = {"validation": report.as_dict()}
    human = _validity_lines(report)
    code = 0 if report.ok else 1
    if dist is not None:
        payload["distributive"] = dist.distributive
        payload["witness"] = list(dist.witness) if dist.witness else None
        human.append(f"distributive: {dist.distributive}")
        if not dist.distributive:
            human.append(f"  not distributive: {dist.kind} sublattice {dist.witness}")
            code = 1
    _emit(args, payload, human)
    return code


def cmd_lattice_bounds(args) -> int:
    lat = require_lattice(load_lattice(args.file), args.file)
    b = dimension_bounds(lat)
    payload = {
        "lower": b.lower, "upper": b.upper,
        "cover": [list(c) for c in b.cover.chains] if b.cover else [],
        "exhaustive": b.exhaustive, "notes": list(b.notes),
    }
    human = [f"lower bound: {b.lower}", f"upper bound: {b.upper}",
             f"cover: {[list(c) for c in b.cover.chains]}"]
    human += [f"note: {n}" for n in b.notes]
    _emit(args, payload, human)
    return 0


def cmd_lattice_enum(args) -> int:
    _in_range("--max-size", args.max_size, 2)
    _capped("--max-size", args.max_size, MAX_DISTRIBUTIVE_ENUM)
    lats = list(enumerate_distributive_lattices(args.max_size))
    payload = {"count": len(lats),
               "lattices": [{"size": l.n, "covers": [
                   [l.elements[i], l.elements[j]] for i, j in l.poset.covers]}
                   for l in lats]}
    human = [f"{len(lats)} distributive lattices with <= {args.max_size} elements"]
    for l in lats:
        human.append(f"  size {l.n}: covers "
                     f"{[(l.elements[i], l.elements[j]) for i, j in l.poset.covers]}")
    _emit(args, payload, human)
    return 0


# ---------------------------------------------------------------------------
# space commands


def cmd_space_check(args) -> int:
    space, _ = _load_structure(args.file)
    report = validate_space(space)
    _emit(args, {"validation": report.as_dict()}, _validity_lines(report))
    return 0 if report.ok else 1


def _load_factor(path: str, lat) -> LambdaSpace:
    """Load an amalgam factor over its own lattice file, and refuse it unless
    that lattice equals the base's."""
    space, _ = _load_structure(path)
    if space.lattice != lat:
        raise InvalidFactorError(f"{path}: factor is over a different lattice than the base")
    return LambdaSpace(lat, space.points, space.dist)


def cmd_space_amalgam(args) -> int:
    _require_out_file(args.out)
    base, _ = _load_structure(args.base)
    f1 = _load_factor(args.f1, base.lattice)
    f2 = _load_factor(args.f2, base.lattice)
    result = canonical_amalgam(base, f1, f2)
    notes = [f"identified points: {result.merged}"] if result.merged else []
    return _write_structure(args, result.space, args.base, notes,
                            points=list(result.space.points), merged=result.merged)


def cmd_space_probe(args) -> int:
    _in_range("--max-base", args.max_base, 0)
    _in_range("--max-new", args.max_new, 0)
    _capped("--max-base", args.max_base, MAX_BASE_POINTS)
    _capped("--max-new", args.max_new, MAX_NEW_POINTS)
    lat = require_lattice(load_lattice(args.file), args.file)
    found = amalgamation_failure_probe(lat, max_base=args.max_base, max_new=args.max_new)
    if found is None:
        _emit(args, {"failure": None}, ["no amalgamation failure found"])
        return 0
    payload = {"failure": {
        "base": list(found.base.points),
        "f1": dump_structure(found.f1),
        "f2": dump_structure(found.f2),
    }}
    human = ["amalgamation failure instance:",
             dump_structure(found.f1).rstrip(), dump_structure(found.f2).rstrip()]
    _emit(args, payload, human)
    return 1


# ---------------------------------------------------------------------------
# subquotient-order commands


def cmd_sq_check(args) -> int:
    space, orders = _load_structure(args.file)
    s = OrderedLambdaStructure(space, orders)
    report = s.validate()
    _emit(args, {"validation": report.as_dict(), "orders": len(orders)},
          _validity_lines(report, f" ({len(orders)} orders)"))
    return 0 if report.ok else 1


def cmd_sq_compose(args) -> int:
    _require_out_file(args.out)
    s, (lo, hi) = _load_checked(args.file, ("--lo", args.lo), ("--hi", args.hi))
    composed = (compose_lex(lo, hi),)
    return _write_structure(args, OrderedLambdaStructure(s.space, composed), args.file)


def cmd_sq_split(args) -> int:
    _require_out_file(args.out)
    s, (order,) = _load_checked(args.file, ("--order", args.order))
    if args.at not in s.space.lattice.index:
        raise UsageError(f"--at {args.at!r} is not an element of the lattice")
    parts = split_convex_linear(order, args.at)
    return _write_structure(args, OrderedLambdaStructure(s.space, parts), args.file)


# ---------------------------------------------------------------------------
# generation and checks


def cmd_gen(args) -> int:
    _in_range("--size", args.size, 1)
    _in_range("--depth", args.depth, 1, MAX_DEPTH)
    _require_out_file(args.out)
    lat = require_lattice(load_lattice(args.lattice), args.lattice)
    signature = _parse_orders_spec(args.orders, lat)
    cfg = GenerationConfig(seed=args.seed, target_size=args.size,
                           saturation_depth=args.depth)
    result = generate_generic(lat, signature, cfg,
                              with_saturation_report=not args.no_report)
    ref = os.path.relpath(args.lattice, Path(args.out).parent or ".")
    text = dump_structure(result.structure, lattice_ref=ref)
    Path(args.out).write_text(text)
    config = {"lattice": str(args.lattice), "orders": args.orders,
              "size": args.size, "depth": args.depth, "seed": args.seed}
    write_manifest(args.out, "gen", config, {"lattice": args.lattice})
    payload = {"out": args.out, "points": result.structure.space.n,
               "steps": result.steps}
    human = [f"wrote {args.out} ({result.structure.space.n} points, "
             f"{result.steps} realization steps)"]
    if result.saturation:
        payload["saturation"] = result.saturation.as_dict()
        human.append(f"saturation ratio: {result.saturation.ratio:.4f} "
                     f"(pair ratio {result.saturation.pair_ratio:.4f})")
    _emit(args, payload, human)
    return 0


def cmd_check(args) -> int:
    _in_range("--k", args.k, 0, MAX_DEPTH)
    s = OrderedLambdaStructure(*_load_structure(args.infile))
    check = extension_property_check if args.kind == "ext" else homogeneity_check
    try:
        report = check(s, args.k)   # validates the structure
    except InvalidStructureError as e:
        raise InvalidStructureError(f"{args.infile}: {e}", **e.details) from None
    payload = report.as_dict()
    if args.kind == "ext":
        ok = report.ratio == 1.0
        human = [f"extension property ratio: {report.ratio:.4f} "
                 f"({report.pattern_realized}/{report.pattern_total} patterns; "
                 f"pair ratio {report.pair_ratio:.4f})"]
    else:
        ok = report.ok
        human = [f"homogeneity: {'ok' if ok else 'FAILED'} "
                 f"({report.pattern_failures} pattern failures, "
                 f"{report.extension_misses} raw boundary misses over "
                 f"{report.pairs_checked} checks)"]
    _emit(args, payload, human)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# permutation structures


def cmd_encode(args) -> int:
    _require_out_file(args.out)
    s, _ = _load_checked(args.infile)
    cover = "auto" if args.cover == "auto" else load_cover(args.cover, s.space.lattice)
    result = encode_orders(s, cover=cover, seed=args.seed)
    text = dump_perm(result.perm)
    payload = {
        "orders_emitted": result.emitted,
        "bound": result.bound,
        "chains": [{"credited": p.credited, "nodes": p.nodes,
                    "base": p.base_index, "companions": p.companion_indices,
                    "hosted": {f"{lo}->{hi}": i for (lo, hi), i in p.hosted.items()}}
                   for p in result.codebook.chains],
        "codebook_relations": {e: sorted(map(list, vs))
                               for e, vs in result.codebook.relation_vectors.items()},
        "codebook_orders": {str(i): sorted(map(list, vs))
                            for i, vs in result.codebook.order_vectors.items()},
    }
    human = [f"emitted {result.emitted} linear orders (bound {result.bound})"]
    if args.out:
        Path(args.out).write_text(text)
        config = {"in": str(args.infile), "cover": args.cover, "seed": args.seed}
        write_manifest(args.out, "encode", config, {"in": args.infile})
        human.append(f"wrote {args.out}")
        payload["out"] = args.out
    else:
        human.append(text.rstrip())
        payload["perm"] = text
    _emit(args, payload, human)
    return 0


def cmd_decode(args) -> int:
    p = load_perm(args.infile)
    result = decode_relations(p)
    lat = result.lattice
    payload = {
        "sample_size": result.sample_size,
        "relation_count": len(result.relations),
        "distributive": result.distributive,
        "lattice_hasse": [[lat.elements[i], lat.elements[j]] for i, j in lat.poset.covers],
        "relations": [{
            "name": r.name, "blocks": len(r.partition),
            "meet_irreducible": r.meet_irreducible,
            "convex_in_orders": list(r.convex_in_orders),
            "vectors": sorted(map(list, r.vectors)),
        } for r in result.relations],
    }
    human = [f"{len(result.relations)} definable equivalence relations on "
             f"{result.sample_size} points; distributive: {result.distributive}",
             f"hasse edges: {[(lat.elements[i], lat.elements[j]) for i, j in lat.poset.covers]}"]
    for r in result.relations:
        human.append(f"  {r.name}: {len(r.partition)} blocks, "
                     f"convex in orders {list(r.convex_in_orders)}"
                     + (", meet-irreducible" if r.meet_irreducible else ""))
    _emit(args, payload, human)
    return 0


def cmd_profile(args) -> int:
    _in_range("--k", args.k, 0, MAX_PROFILE_K)
    p = load_perm(args.infile)
    prof = profile(p, args.k)
    payload = {"k": args.k, "distinct_types": len(prof),
               "profile": {str(list(key)): count for key, count in sorted(prof.items())}}
    human = [f"{len(prof)} distinct {args.k}-point types"]
    for key, count in sorted(prof.items()):
        human.append(f"  {key}: {count}")
    _emit(args, payload, human)
    return 0


def cmd_cameron(args) -> int:
    _in_range("--size", args.size, 1)
    result = cameron_enumeration(args.size, seed=args.seed)
    payload = {
        "distinct_profiles": result.distinct,
        "instances": {f"{lat}/{arr}": len(prof)
                      for (lat, arr), prof in result.profiles.items()},
    }
    human = [f"{result.distinct} distinct profiles over "
             f"{len(result.profiles)} two-order catalog instances"]
    for (lat, arr), prof in result.profiles.items():
        human.append(f"  {lat} {arr}: {len(prof)} 3-point types")
    _emit(args, payload, human)
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    caller of ``main``."""
    parser = argparse.ArgumentParser(prog="permlat")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    lattice = sub.add_parser("lattice").add_subparsers(dest="sub", required=True)
    p = lattice.add_parser("check")
    p.add_argument("file")
    add_json(p)
    p.set_defaults(func=cmd_lattice_check)
    p = lattice.add_parser("bounds")
    p.add_argument("file")
    add_json(p)
    p.set_defaults(func=cmd_lattice_bounds)
    p = lattice.add_parser("enum")
    p.add_argument("--max-size", type=int, default=6)
    add_json(p)
    p.set_defaults(func=cmd_lattice_enum)

    space = sub.add_parser("space").add_subparsers(dest="sub", required=True)
    p = space.add_parser("check")
    p.add_argument("file")
    add_json(p)
    p.set_defaults(func=cmd_space_check)
    p = space.add_parser("amalgam")
    p.add_argument("base")
    p.add_argument("f1")
    p.add_argument("f2")
    p.add_argument("--out")
    add_json(p)
    p.set_defaults(func=cmd_space_amalgam)
    p = space.add_parser("probe")
    p.add_argument("file")
    p.add_argument("--max-base", type=int, default=3)
    p.add_argument("--max-new", type=int, default=2)
    add_json(p)
    p.set_defaults(func=cmd_space_probe)

    sq = sub.add_parser("sq").add_subparsers(dest="sub", required=True)
    p = sq.add_parser("check")
    p.add_argument("file")
    add_json(p)
    p.set_defaults(func=cmd_sq_check)
    p = sq.add_parser("compose")
    p.add_argument("file")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--out")
    add_json(p)
    p.set_defaults(func=cmd_sq_compose)
    p = sq.add_parser("split")
    p.add_argument("file")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--out")
    add_json(p)
    p.set_defaults(func=cmd_sq_split)

    p = sub.add_parser("gen")
    p.add_argument("--lattice", required=True)
    p.add_argument("--orders", required=True,
                   help="signature BOTTOM:TOP[,BOTTOM:TOP...]")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--no-report", action="store_true")
    add_json(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check")
    p.add_argument("kind", choices=["ext", "hom"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, default=3)
    add_json(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("encode")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cover", default="auto")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    add_json(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode")
    p.add_argument("--in", dest="infile", required=True)
    add_json(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("profile")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, default=2)
    add_json(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("cameron")
    p.add_argument("--size", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    add_json(p)
    p.set_defaults(func=cmd_cameron)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()   # a closed reader surfaces here, not at exit
        return code
    except UsageError as e:
        print(f"error [{e.code}]: {e}", file=sys.stderr)
        return 2
    except PermlatError as e:
        print(f"error [{e.code}]: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader left early (`| head`): exit 1 quietly, flushing to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
