"""Text file formats and run manifests. All writers emit canonical field
order so identical inputs give byte-identical files."""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

from . import __version__
from .errors import FormatError, PermlatError, SizeCapError
from .lattice import MAX_ELEMENTS, FiniteLattice, lambda0_poset
from .permstruct import PermStructure
from .spaces import LambdaSpace
from .sqorders import OrderedLambdaStructure, SubquotientOrder


def _int(path, lineno: int, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"{path}:{lineno}: {what} must be an integer, got {text!r}") from None


def _distinct(path, lineno: int, ids, what: str) -> None:
    seen = set()
    for x in ids:
        if x in seen:
            raise FormatError(f"{path}:{lineno}: duplicate {what} {x!r}")
        seen.add(x)


def _lines(path: str | Path) -> list[tuple[int, str]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        lineno = e.object.count(b"\n", 0, e.start) + 1
        raise FormatError(f"{path}:{lineno}: not UTF-8 text (byte {e.start})") from None
    return [(lineno, line) for lineno, line in enumerate(map(str.strip, text.splitlines()), 1)
            if line and line[0] != "#"]


# ---------------------------------------------------------------------------
# lattice files


def load_lattice(path: str | Path) -> FiniteLattice:
    """Line 1 names the elements; ``cover: x < y`` lines give the covering
    relation. Order closure and meet/join tables are computed on load."""
    elements = None
    covers = []
    for lineno, line in _lines(path):
        if line.startswith("elements:"):
            if elements is not None:
                raise FormatError(f"{path}:{lineno}: repeated 'elements:' header")
            elements = tuple(line.split(":", 1)[1].split())
            if not elements:
                raise FormatError(f"{path}:{lineno}: 'elements:' names no element")
            if len(elements) > MAX_ELEMENTS:
                raise SizeCapError(f"{path}:{lineno}: lattices are capped at {MAX_ELEMENTS} "
                                   f"elements, got {len(elements)}")
            _distinct(path, lineno, elements, "element id")
        elif line.startswith("cover:"):
            body = line.split(":", 1)[1]
            parts = [x.strip() for x in body.split("<")]
            if len(parts) != 2 or not all(parts):
                raise FormatError(f"{path}:{lineno}: expected 'cover: x < y'")
            covers.append((lineno, *parts))
        else:
            raise FormatError(f"{path}:{lineno}: unrecognized line {line!r}")
    if elements is None:
        raise FormatError(f"{path}: missing 'elements:' header")
    for lineno, a, b in covers:
        if a not in elements or b not in elements:
            raise FormatError(f"{path}:{lineno}: cover names unknown element ({a}, {b})")
    lat = FiniteLattice.from_cover_relations(elements, [(a, b) for _, a, b in covers])
    poset_report = lat.poset.validate()
    if not poset_report.ok:
        # covers are closed reflexively and transitively, so the fault is a
        # cycle through the witness pair; name the first cover line on it
        a, b = poset_report.violations[0].witness
        poset = lat.poset
        on_cycle = {x for x in elements if poset.leq(a, x) and poset.leq(x, a)}
        lineno = next(n for n, x, y in covers if x in on_cycle and y in on_cycle)
        raise FormatError(f"{path}:{lineno}: cover relation is not a partial order: "
                          f"{a} and {b} lie on a cycle of covers")
    poset = lat.poset
    hasse = set(poset.covers)
    for lineno, a, b in covers:
        i, j = poset.index[a], poset.index[b]
        if (i, j) not in hasse:
            # a < b holds through this line, so a pair of distinct elements
            # that is no cover has an element strictly between
            between = poset.up[i] & poset.down[j] & ~(1 << i | 1 << j)
            why = ("an element does not cover itself" if i == j else
                   f"{poset.elements[between.bit_length() - 1]} lies between them")
            raise FormatError(f"{path}:{lineno}: 'cover: {a} < {b}' is not a cover: {why}")
    return lat


def dump_lattice(lat: FiniteLattice) -> str:
    lines = ["elements: " + " ".join(lat.elements)]
    for i, j in lat.poset.covers:
        lines.append(f"cover: {lat.elements[i]} < {lat.elements[j]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# space / structure files


def read_lattice_ref(path: str | Path) -> str | None:
    for _, line in _lines(path):
        if line.startswith("lattice:"):
            return line.split(":", 1)[1].strip()
    return None


def load_structure(path: str | Path) -> tuple[LambdaSpace, tuple]:
    """Space file with optional subquotient-order blocks. The header
    references the lattice file, relative to this file. Lines may come in
    any order, and a pair may repeat, in either order, with the same value.

    Header lines are read first and each ``d:`` line then goes straight into
    the index matrix. Faults are named in file order only once one is seen:
    a fault of a ``d:`` line comes before a header fault on a later line."""
    path = Path(path)
    lattice = None
    points = None
    dlines = []  # (lineno, line) of each 'd:' line, in file order
    order_blocks = []
    for row in _lines(path):
        if row[1].startswith("d:"):
            dlines.append(row)
            continue
        lineno, line = row
        tag, sep, body = line.partition(":")
        tag += sep
        try:
            if tag == "lattice:":
                if lattice is not None:
                    raise FormatError(f"{path}:{lineno}: repeated 'lattice:' header")
                lattice = load_lattice(path.parent / body.strip())
            elif tag == "points:":
                if points is not None:
                    raise FormatError(f"{path}:{lineno}: repeated 'points:' header")
                points = tuple(body.split())
                _distinct(path, lineno, points, "point id")
            elif tag == "sq:":
                parts = body.split()
                if len(parts) != 2:
                    raise FormatError(f"{path}:{lineno}: expected 'sq: BOTTOM TOP'")
                order_blocks.append({"bottom": parts[0], "top": parts[1], "rank": {}})
            elif tag == "rank:":
                if not order_blocks:
                    raise FormatError(f"{path}:{lineno}: 'rank:' before any 'sq:' block")
                parts = body.split()
                if len(parts) != 2:
                    raise FormatError(f"{path}:{lineno}: expected 'rank: CLASS_REP INT'")
                order_blocks[-1]["rank"][parts[0]] = _int(path, lineno, parts[1], "rank")
            else:
                raise FormatError(f"{path}:{lineno}: unrecognized line {line!r}")
        except PermlatError:
            _named_distances(path, dlines)
            raise
    for tag, value in (("lattice:", lattice), ("points:", points)):
        if value is None:
            _named_distances(path, dlines)
            raise FormatError(f"{path}: missing {tag!r} header")
    n = len(points)
    pindex = {x: i for i, x in enumerate(points)}
    eindex = lattice.index
    dist = [[None] * n for _ in points]  # None: not given yet
    try:
        for _, line in dlines:
            x, y, lam = line[2:].split()
            i, j, e = pindex[x], pindex[y], eindex[lam]
            row_i = dist[i]
            if row_i[j] is None:
                row_i[j] = dist[j][i] = e
            elif row_i[j] != e:
                raise ValueError  # a conflicting repeat, named below
    except (ValueError, KeyError):
        # name the fault as a read by name does: a line fault, else the
        # first pair naming an unknown point or lattice element
        for x, y, lam in _named_distances(path, dlines).values():
            if x not in pindex or y not in pindex:
                raise FormatError(f"{path}: distance names unknown point ({x}, {y})") from None
            if lam not in eindex:
                raise FormatError(f"{path}: unknown lattice element {lam!r}") from None
    for i in range(n):
        if dist[i][i] is None:
            dist[i][i] = lattice.bottom_idx
    if any(None in row for row in dist):
        missing = [(points[i], points[j]) for i, j in itertools.combinations(range(n), 2)
                   if dist[i][j] is None]
        raise FormatError(f"{path}: missing distances for pairs {missing[:5]}")
    space = LambdaSpace(lattice, points, dist)
    orders = tuple(
        SubquotientOrder(space, blk["bottom"], blk["top"], blk["rank"])
        for blk in order_blocks)
    return space, orders


def _named_distances(path, dlines) -> dict:
    """``d:`` lines read by name, in file order: the first line of each point
    pair, keyed by the sorted pair. A line without three fields, or giving a
    pair another value than its first line does, is refused at its line."""
    distances = {}
    for lineno, line in dlines:
        given = line[2:].split()
        if len(given) != 3:
            raise FormatError(f"{path}:{lineno}: expected 'd: x y lambda'")
        x, y, lam = given
        prev = distances.setdefault((x, y) if x < y else (y, x), given)
        if prev[2] != lam:
            raise FormatError(f"{path}:{lineno}: d({x},{y}) = {lam} conflicts with "
                              f"an earlier line that set it to {prev[2]}")
    return distances


def dump_structure(s: OrderedLambdaStructure | LambdaSpace,
                   lattice_ref: str = "lattice.lat") -> str:
    space = s.space if isinstance(s, OrderedLambdaStructure) else s
    orders = s.orders if isinstance(s, OrderedLambdaStructure) else ()
    points, names, dist = space.points, space.lattice.elements, space.dist
    # one string per point, holding its d: lines: a string per pair would
    # set the peak of a large gen
    out = [f"lattice: {lattice_ref}\n", "points: " + " ".join(points) + "\n"]
    out += ["".join([f"d: {x} {y} {names[d]}\n" for y, d in zip(points[i + 1:], dist[i][i + 1:])])
            for i, x in enumerate(points)]
    for o in orders:
        out.append(f"sq: {o.bottom} {o.top}\n")
        out += [f"rank: {r} {o.rank[r]}\n" for r in sorted(o.rank, key=space.pindex.__getitem__)]
    return "".join(out)


# ---------------------------------------------------------------------------
# permutation-structure files


def load_perm(path: str | Path) -> PermStructure:
    """Header ``n N`` (two counts, neither negative); then one line per point
    with its distinct id and its rank in each order, each order's ranks
    running over 0..N-1 once. Faults are named in file order only once one
    is seen."""
    rows = _lines(path)
    if not rows:
        raise FormatError(f"{path}: empty file")
    lineno, line = rows[0]
    header = line.split()
    if len(header) != 2:
        raise FormatError(f"{path}:{lineno}: header must be 'n N'")
    n, N = (_int(path, lineno, h, "header count") for h in header)
    if n < 0 or N < 0:
        raise FormatError(f"{path}:{lineno}: header counts must not be negative")
    table = [line.split() for _, line in rows[1:]]
    columns = list(zip(*table)) or [()] * (n + 1)
    if len(table) == N == len(set(columns[0])) and all(len(p) == n + 1 for p in table):
        try:
            # PermStructure refuses a column that is no permutation of 0..N-1
            return PermStructure(columns[0], [tuple(map(int, c)) for c in columns[1:]])
        except ValueError:
            pass
    # a check failed: name the first fault in file order
    seen_ids: set[str] = set()
    seen_ranks = [set() for _ in range(n)]
    for count, (lineno, line) in enumerate(rows[1:]):
        parts = line.split()
        if len(parts) != n + 1:
            raise FormatError(f"{path}:{lineno}: expected point id and {n} ranks")
        if count == N:
            raise FormatError(f"{path}:{lineno}: header says {N} points, found more")
        if parts[0] in seen_ids:
            raise FormatError(f"{path}:{lineno}: duplicate point id {parts[0]!r}")
        seen_ids.add(parts[0])
        for t, seen in enumerate(seen_ranks):
            r = _int(path, lineno, parts[t + 1], "rank")
            if not 0 <= r < N or r in seen:
                raise FormatError(f"{path}:{lineno}: rank {r} of order {t} is outside "
                                  f"0..{N - 1} or given to an earlier point")
            seen.add(r)
    raise FormatError(f"{path}: header says {N} points, found {len(table)}")


def dump_perm(p: PermStructure) -> str:
    lines = [f"{p.n} {p.N}"]
    for i, pt in enumerate(p.points):
        lines.append(pt + " " + " ".join(str(p.ranks[t][i]) for t in range(p.n)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# chain cover files


def load_cover(path: str | Path, lattice: FiniteLattice) -> list[list[str]]:
    """One ``chain:`` line per chain, naming distinct, pairwise comparable
    internal meet-irreducibles of the lattice, in any order."""
    internal = set(lambda0_poset(lattice).elements)
    chains = []
    for lineno, line in _lines(path):
        if not line.startswith("chain:"):
            raise FormatError(f"{path}:{lineno}: expected 'chain: a b c'")
        chain = line.split(":", 1)[1].split()
        if not chain:
            raise FormatError(f"{path}:{lineno}: 'chain:' names no element")
        unknown = [x for x in chain if x not in lattice.index]
        if unknown:
            raise FormatError(f"{path}:{lineno}: unknown lattice element {unknown[0]!r}")
        _distinct(path, lineno, chain, "chain element")
        other = [x for x in chain if x not in internal]
        if other:
            raise FormatError(f"{path}:{lineno}: {other[0]} is not an internal "
                              f"meet-irreducible of the lattice")
        for x, y in itertools.combinations(chain, 2):
            if not (lattice.leq(x, y) or lattice.leq(y, x)):
                raise FormatError(f"{path}:{lineno}: {x} and {y} are incomparable, "
                                  f"so the line is not a chain")
        chains.append(chain)
    return chains


# ---------------------------------------------------------------------------
# manifests


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(out_path: str | Path, command: str, config: dict,
                   input_paths: dict[str, str]) -> Path:
    """Emit ``<out>.manifest`` next to a generated artifact; re-running the
    recorded command line reproduces the artifact byte for byte."""
    manifest = {
        "command": command,
        "config": config,
        "version": __version__,
        "input_digests": {name: file_digest(p) for name, p in input_paths.items()},
    }
    mpath = Path(str(out_path) + ".manifest")
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return mpath


def load_manifest(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())
