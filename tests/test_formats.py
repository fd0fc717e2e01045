"""Differential tests of the ``.struct`` and ``.perm`` loaders against plain
reference loaders that read each line by name, check it at once and build
the tables after. Both must load a valid file to the same objects and name
the same first fault of a faulty one."""

import itertools
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from permlat.errors import FormatError
from permlat.formats import _distinct, _int, _lines, load_lattice, load_perm, load_structure
from permlat.permstruct import PermStructure
from permlat.spaces import LambdaSpace
from permlat.sqorders import SubquotientOrder

# -- reference loaders --------------------------------------------------------


def ref_load_structure(path):
    path = Path(path)
    lattice = None
    points = None
    distances = {}  # point pair, sorted -> [x, y, lambda] of its first line
    order_blocks = []
    for lineno, line in _lines(path):
        if line.startswith("d:"):
            given = line[2:].split()
            if len(given) != 3:
                raise FormatError(f"{path}:{lineno}: expected 'd: x y lambda'")
            x, y, lam = given
            prev = distances.setdefault((x, y) if x < y else (y, x), given)
            if prev[2] != lam:
                raise FormatError(f"{path}:{lineno}: d({x},{y}) = {lam} conflicts with "
                                  f"an earlier line that set it to {prev[2]}")
            continue
        tag, sep, body = line.partition(":")
        tag += sep
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
    if lattice is None:
        raise FormatError(f"{path}: missing 'lattice:' header")
    if points is None:
        raise FormatError(f"{path}: missing 'points:' header")
    pindex = {x: i for i, x in enumerate(points)}
    dist = [[lattice.bottom_idx] * len(points) for _ in points]
    for x, y, lam in distances.values():
        i, j = pindex.get(x), pindex.get(y)
        if i is None or j is None:
            raise FormatError(f"{path}: distance names unknown point ({x}, {y})")
        e = lattice.index.get(lam)
        if e is None:
            raise FormatError(f"{path}: unknown lattice element {lam!r}")
        dist[i][j] = dist[j][i] = e
    if sum(x != y for x, y in distances) < len(points) * (len(points) - 1) // 2:
        missing = [(x, y) for x, y in itertools.combinations(points, 2)
                   if ((x, y) if x < y else (y, x)) not in distances]
        raise FormatError(f"{path}: missing distances for pairs {missing[:5]}")
    space = LambdaSpace(lattice, points, dist)
    orders = tuple(
        SubquotientOrder(space, blk["bottom"], blk["top"], blk["rank"])
        for blk in order_blocks)
    return space, orders


def ref_load_perm(path):
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
    points = []
    ranks = [[] for _ in range(n)]
    seen_ids: set[str] = set()
    seen_ranks = [set() for _ in range(n)]
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != n + 1:
            raise FormatError(f"{path}:{lineno}: expected point id and {n} ranks")
        if len(points) == N:
            raise FormatError(f"{path}:{lineno}: header says {N} points, found more")
        if parts[0] in seen_ids:
            raise FormatError(f"{path}:{lineno}: duplicate point id {parts[0]!r}")
        seen_ids.add(parts[0])
        points.append(parts[0])
        for t in range(n):
            r = _int(path, lineno, parts[t + 1], "rank")
            if not 0 <= r < N or r in seen_ranks[t]:
                raise FormatError(f"{path}:{lineno}: rank {r} of order {t} is outside "
                                  f"0..{N - 1} or given to an earlier point")
            seen_ranks[t].add(r)
            ranks[t].append(r)
    if len(points) != N:
        raise FormatError(f"{path}: header says {N} points, found {len(points)}")
    return PermStructure(tuple(points), tuple(tuple(r) for r in ranks))


def outcome(load, path):
    """What a loader gives: its result in comparable form, or its error."""
    try:
        result = load(path)
    except Exception as e:  # noqa: BLE001 - the error itself is compared
        return "error", type(e).__name__, str(e)
    if isinstance(result, PermStructure):
        return "ok", result
    space, orders = result
    return "ok", space, [(o.bottom, o.top, o.rank) for o in orders]


# -- drawn files ----------------------------------------------------------------

LATTICES = {
    "chain3.lat": "elements: 0 E 1\ncover: 0 < E\ncover: E < 1\n",
    # listed top first, so that the bottom's index is not 0
    "b2.lat": "elements: 1 b a 0\ncover: 0 < a\ncover: 0 < b\ncover: a < 1\ncover: b < 1\n",
}
STRUCT_FAULTS = ["arity", "conflict", "unknown point", "unknown element", "self-pair",
                 "missing pair", "repeated header", "missing header", "duplicate id", "bad int"]
PERM_FAULTS = ["arity", "duplicate id", "bad int", "out of range", "repeated rank",
               "missing line", "extra line", "negative count"]


def noise(draw, lines: list[str]) -> str:
    """The lines with comments and blank lines put between them."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# note", "  "])))
    return "\n".join(lines) + "\n"


@st.composite
def structure_files(draw, faults: int):
    """A structure file over the 3-chain or B2 in any line order, each pair
    given one to three times in either order, 0-2 orders with ranks, and
    ``faults`` injected faults (so at least 2 points, to have a pair)."""
    ref = draw(st.sampled_from(sorted(LATTICES)))
    elements = LATTICES[ref].split("\n")[0].split()[1:]
    element = st.sampled_from(elements)
    points = [f"p{i}" for i in range(draw(st.integers(2 if faults else 0, 5)))]
    headers = [f"lattice: {ref}", "points: " + " ".join(points)]
    pairs = {pair: draw(element) for pair in itertools.combinations(points, 2)}
    dlines = [f"d: {x} {y} {lam}" if draw(st.booleans()) else f"d: {y} {x} {lam}"
              for (x, y), lam in pairs.items() for _ in range(draw(st.integers(1, 3)))]
    blocks = []
    for _ in range(draw(st.integers(0, 2))):
        ranks = [f"rank: {p} {draw(st.integers(0, 3))}" for p in points if draw(st.booleans())]
        blocks.append([f"sq: {draw(element)} {draw(element)}"] + ranks)
    for fault in draw(st.lists(st.sampled_from(STRUCT_FAULTS), min_size=faults,
                               max_size=faults)):
        point = draw(st.sampled_from(points))
        if fault in ("conflict", "unknown element", "self-pair", "missing pair"):
            if not pairs:  # the one pair is gone already
                fault = "arity"
            else:
                (x, y), lam = draw(st.sampled_from(sorted(pairs.items())))
        if fault == "arity":
            dlines.append(draw(st.sampled_from([f"d: {point} {point}",
                                                f"d: {point} p1 E 1", "d:"])))
        elif fault == "conflict":
            dlines.append(f"d: {y} {x} {draw(st.sampled_from([e for e in elements if e != lam]))}")
        elif fault == "unknown point":
            dlines.append(f"d: {point} q9 {draw(element)}")
        elif fault == "repeated header":
            headers.append(draw(st.sampled_from(headers or ["points: p0"])))
        elif fault == "missing header":
            tag = draw(st.sampled_from(["lattice:", "points:"]))
            headers = [h for h in headers if not h.startswith(tag)]
        elif fault == "duplicate id":
            headers = [h + f" {point}" if h.startswith("points:") else h for h in headers]
        elif fault == "bad int":
            blocks.append([f"sq: {draw(element)} {draw(element)}", f"rank: {point} x"])
        elif fault in ("unknown element", "self-pair", "missing pair"):
            # every line of the pair goes; a self-pair line gives no pair
            del pairs[x, y]
            dlines = [d for d in dlines if set(d[2:].split()[:2]) != {x, y}]
            if fault == "unknown element":
                dlines.append(f"d: {x} {y} Z")
            elif fault == "self-pair":
                dlines.append(f"d: {x} {x} {draw(element)}")
    units = [[h] for h in headers] + [[d] for d in dlines] + blocks
    return noise(draw, [line for unit in draw(st.permutations(units)) for line in unit])


@st.composite
def perm_files(draw, faults: int):
    """A ``.perm`` file of 0-3 orders on 0-5 points, with comments and blank
    lines, and ``faults`` injected faults (so at least 1 order and 2 points,
    to have a rank to spoil and another row to copy)."""
    n, N = draw(st.integers(1 if faults else 0, 3)), draw(st.integers(2 if faults else 0, 5))
    columns = [draw(st.permutations(range(N))) for _ in range(n)]
    rows = [[f"p{i}"] + [str(c[i]) for c in columns] for i in range(N)]
    header = [str(n), str(N)]
    extra = []  # appended last, so that no other fault undoes them
    for fault in draw(st.lists(st.sampled_from(PERM_FAULTS), min_size=faults,
                               max_size=faults)):
        if fault == "extra line" or len(rows) < 2:
            # rank N is out of range, should the count come out right
            extra.append([f"q{len(extra)}", str(N)] + [str(c[0]) for c in columns[1:]])
            continue
        row, other = draw(st.permutations(rows))[:2]
        t = draw(st.integers(1, n))
        if fault == "arity":
            row.append("0")  # a field too many: dropping one could undo another fault
        elif fault == "duplicate id":
            row[0] = other[0]
        elif fault == "bad int":
            row[t] = "x"
        elif fault == "out of range":
            row[t] = draw(st.sampled_from(["-1", str(N)]))
        elif fault == "repeated rank":
            row[t] = other[t]
        elif fault == "missing line":
            rows.remove(row)
        elif fault == "negative count":
            header[draw(st.integers(0, 1))] = "-1"
    return noise(draw, [" ".join(header)] + [" ".join(r) for r in rows + extra])


def _compare(text, name, load, ref_load):
    with tempfile.TemporaryDirectory() as tmp:
        for lat, body in LATTICES.items():
            (Path(tmp) / lat).write_text(body)
        path = Path(tmp) / name
        path.write_text(text)
        got = outcome(load, path)
        assert got == outcome(ref_load, path)
        return got


@settings(max_examples=150, deadline=None)
@given(structure_files(faults=0))
def test_valid_structure_files_load_as_the_reference_loads_them(text):
    got = _compare(text, "s.struct", load_structure, ref_load_structure)
    # a file with every pair given reads to a space; its orders are checked later
    assert got[0] == "ok"


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2).flatmap(lambda k: structure_files(faults=k)))
def test_faulty_structure_files_fail_as_the_reference_fails(text):
    got = _compare(text, "s.struct", load_structure, ref_load_structure)
    assert got[:2] == ("error", "FormatError")


@settings(max_examples=150, deadline=None)
@given(perm_files(faults=0))
def test_valid_perm_files_load_as_the_reference_loads_them(text):
    assert _compare(text, "p.perm", load_perm, ref_load_perm)[0] == "ok"


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2).flatmap(lambda k: perm_files(faults=k)))
def test_faulty_perm_files_fail_as_the_reference_fails(text):
    got = _compare(text, "p.perm", load_perm, ref_load_perm)
    assert got[:2] == ("error", "FormatError")
