"""The three benchmark workloads. Each one writes its input files in set-up,
runs a fixed pass of jobs (the same jobs every pass of a run, chosen by the
workload seed), and checks every output of a pass against the reference.

Inputs are made here, by the benchmark, from the seed: lattice files are
literal text and generation seeds are drawn from a pool whose output
digests are recorded in ``reference.json``. The program only sees those
files and command lines.

Why these workloads:

- ``pipeline``: the user's CLI path gen -> check ext -> check hom -> encode
  -> decode -> profile; ``generic`` does nearly all of the work.
- ``translate``: encode -> decode -> profile on structures made in set-up;
  ``permstruct`` does nearly all of the timed work and ``generic`` none, so
  it is the bypass side of any generation change.
- ``amalgam``: lattice census, amalgam validity sweep and failure probes;
  ``lattice`` and ``spaces`` do all of the work and ``generic`` none.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import time
from pathlib import Path

from permlat import cli, formats, lattice, spaces

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def lattice_text(elements: list[str], covers: list[tuple[str, str]]) -> str:
    lines = ["elements: " + " ".join(elements)]
    lines += [f"cover: {a} < {b}" for a, b in covers]
    return "\n".join(lines) + "\n"


def _chain(names: str) -> tuple[list[str], list[tuple[str, str]]]:
    els = names.split()
    return els, list(zip(els, els[1:]))


B2 = ("0 a b 1".split(), [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
LATTICES = {
    "chain2": _chain("0 1"),
    "chain3": _chain("0 E 1"),
    "chain4": _chain("0 e f 1"),
    "chain5": _chain("0 p q r 1"),
    "b2": B2,
    "b2_top": (B2[0] + ["t"], B2[1] + [("1", "t")]),
    "b2_bottom": (["s"] + B2[0], [("s", "0")] + B2[1]),
    "m3": ("0 p q r 1".split(), [("0", m) for m in "pqr"] + [(m, "1") for m in "pqr"]),
    "n5": ("0 x w v 1".split(), [("0", "x"), ("x", "w"), ("w", "1"), ("0", "v"), ("v", "1")]),
}
# cover signatures: each meet-irreducible with its upper cover
SIGNATURES = {"chain3": "0:E,E:1", "b2": "a:1,b:1", "chain4": "0:e,e:f,f:1"}


class Checks:
    """Counts output checks; a failed check is recorded, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def __call__(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)


# The host the benchmark was tuned on is shared, and its speed drifts by up
# to 2x within seconds: one fixed loop took 0.19 to 0.36 s, with CPU time
# equal to wall time (no steal to subtract). So each step of a pass is also
# timed against the machine's speed of the moment: a short fixed loop runs
# between consecutive steps, and a step's wall time is scaled by
# (REFERENCE_S / the mean time of the loop just before and just after it)
# ** SPEED_EXPONENT. A scaled time is what the step would take on a machine
# that runs the loop in REFERENCE_S, about the loop's median time on that
# host. Over runs on that host, a run's wall time grew as the loop's time
# to the power 1.2 to 1.45 on amalgam and translate, whose working sets
# suffer more from a busy neighbour than the loop does, and 0.9 to 1.2 on
# pipeline. Recomputed from two sets of ten runs, an exponent of 1.2 rather
# than 1 cut the spread of run_s (quartile distance over median) from 7-9%
# to 3% on translate and from 5-10% to 4% on amalgam, and left pipeline at
# 5-6%; 1.3 suited the first two better but pipeline worse. The exponent is
# the same for every commit, so a change that makes a step 10% faster still
# makes its scaled time 10% lower.
REFERENCE_S = 0.003
SPEED_EXPONENT = 1.2


def speed_probe() -> float:
    """Wall time of a fixed pure-Python loop: a dict of 4000 tuple keys
    spread over a wide range, then sorted, the kind of work permlat does.
    Among the loops tried, the times of decode, profile k=2 and profile k=3
    steps followed this one's most closely, one step at a time, as the
    machine's speed drifted."""
    start = time.perf_counter()
    counts: dict = {}
    for i in range(4000):
        key = (i * 7919 % 50021, i & 15)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts)
    return time.perf_counter() - start


class StepClock:
    """Times steps; ``times[key]`` becomes (wall seconds, scaled seconds).
    The probe after one step is the probe before the next."""

    def __init__(self):
        self.last: float | None = None

    def __call__(self, times: dict, key: str, fn, *args, **kwargs):
        if self.last is None:
            self.last = speed_probe()
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        before, self.last = self.last, speed_probe()
        speed = 2 * REFERENCE_S / (before + self.last)
        times[key] = (wall, wall * speed ** SPEED_EXPONENT)
        return out


CLOCK = StepClock()


def run_cli(argv: list, times: dict | None = None, key: str = "") -> tuple[int, str]:
    """One ``permlat`` command through ``permlat.cli.main``: exit code and
    stdout. With ``times``, the command is a step timed under ``key``."""
    buf = io.StringIO()
    argv = [str(a) for a in argv]
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv) if times is None else CLOCK(times, key, cli.main, argv)
    return rc, buf.getvalue()


def _json(text: str) -> dict:
    try:
        return json.loads(text)
    except ValueError:
        return {}


def _decoded_matches(decode_out: dict, lat_file: Path) -> bool:
    """The lattice read back by ``decode`` is isomorphic to the input."""
    rels = decode_out.get("relations")
    if not rels:
        return False
    decoded = lattice.FiniteLattice.from_cover_relations(
        [r["name"] for r in rels], [tuple(e) for e in decode_out["lattice_hasse"]])
    return lattice.lattices_isomorphic(decoded, formats.load_lattice(lat_file))


def _orders_recovered(encode_out: dict, struct_file: Path, perm_file: Path) -> bool:
    """The codebook maps every input order to exactly its pairs."""
    _, orders = formats.load_structure(struct_file)
    perm = formats.load_perm(perm_file)
    book = encode_out.get("codebook_orders", {})
    for idx, order in enumerate(orders):
        vectors = {tuple(v) for v in book.get(str(idx), ())}
        for x, y in itertools.permutations(perm.points, 2):
            if order.less(x, y) != (perm.vector(x, y) in vectors):
                return False
    return True


def _roundtrip_checks(checks: Checks, name: str, out: dict, lat_file: Path,
                      ref: dict | None) -> None:
    checks(f"{name}: exit codes", all(rc == 0 for rc in out["rc"]))
    enc, dec = _json(out["encode"]), _json(out["decode"])
    checks(f"{name}: lattice recovered", _decoded_matches(dec, lat_file))
    checks(f"{name}: orders recovered", _orders_recovered(enc, out["struct"], out["perm"]))
    if ref is not None:
        checks(f"{name}: .perm digest", sha256(out["perm"].read_bytes()) == ref.get("perm"))
        for k, text in out["profiles"].items():
            checks(f"{name}: profile k={k} digest", sha256(text) == ref.get(f"profile{k}"))


def _encode_decode_profile(workdir: Path, stem: str, seed: int, ks: tuple,
                           times: dict) -> dict:
    """encode -> decode -> profile on ``<stem>.struct``; times each command
    into ``times`` under ``<phase>:<stem>``."""
    struct, perm = workdir / f"{stem}.struct", workdir / f"{stem}.perm"
    out = {"rc": [], "struct": struct, "perm": perm, "profiles": {}}
    rc, out["encode"] = run_cli(
        ["encode", "--in", struct, "--seed", seed, "--out", perm, "--json"],
        times, f"encode:{stem}")
    out["rc"].append(rc)
    rc, out["decode"] = run_cli(["decode", "--in", perm, "--json"], times, f"decode:{stem}")
    out["rc"].append(rc)
    for k in ks:
        rc, out["profiles"][k] = run_cli(["profile", "--in", perm, "--k", k, "--json"],
                                         times, f"profile:k{k}-{stem}")
        out["rc"].append(rc)
    return out


def _write_lattice(workdir: Path, name: str, rng: random.Random | None = None) -> Path:
    """Write a lattice file; with ``rng``, elements and covers are listed in
    a seeded order, which changes the program's internal indexing but not
    the lattice."""
    elements, covers = list(LATTICES[name][0]), list(LATTICES[name][1])
    if rng is not None:
        rng.shuffle(elements)
        rng.shuffle(covers)
    path = workdir / f"{name}.lat"
    path.write_text(lattice_text(elements, covers))
    return path


# ---------------------------------------------------------------------------
# pipeline


class Pipeline:
    """Per pass: the full CLI path on the 3-chain with signature 0:E,E:1, once
    for each of 8 generation seeds drawn from a pool of 16. The cost of one
    generation varies by about 8% from seed to seed; 8 seeds per pass keep
    the pass cost within about 2% across workload seeds. Size 20 at depth 3
    (about 1.2 s per job) keeps two passes in a 30 s run."""

    name = "pipeline"
    POOL = range(16)
    JOBS = 8
    SIZE, DEPTH = 20, 3

    def setup(self, seed: int, workdir: Path, checks: Checks, times: dict) -> dict:
        lat_file = CLOCK(times, "write", _write_lattice, workdir, "chain3")
        gen_seeds = random.Random(seed).sample(self.POOL, self.JOBS)
        return {"workdir": workdir, "lat": lat_file, "gen_seeds": gen_seeds}

    def job(self, state: dict, gs: int, times: dict) -> dict:
        wd, stem = state["workdir"], f"g{gs}"
        struct = wd / f"{stem}.struct"
        rc_gen, _ = run_cli(
            ["gen", "--lattice", state["lat"], "--orders", SIGNATURES["chain3"],
             "--size", self.SIZE, "--depth", self.DEPTH, "--seed", gs,
             "--out", struct, "--json"], times, f"gen:{stem}")
        rc_ext, ext = run_cli(["check", "ext", "--in", struct, "--k", 3, "--json"],
                              times, f"check:ext-{stem}")
        rc_hom, hom = run_cli(["check", "hom", "--in", struct, "--k", 3, "--json"],
                              times, f"check:hom-{stem}")
        out = _encode_decode_profile(wd, stem, gs, (2,), times)
        out["rc"] += [rc_gen, rc_ext, rc_hom]
        out.update(ext=ext, hom=hom)
        return out

    def run_pass(self, state: dict) -> tuple[dict, list]:
        times = {}
        outs = [(gs, self.job(state, gs, times)) for gs in state["gen_seeds"]]
        return times, outs

    def check(self, state: dict, outs: list, checks: Checks, reference: dict | None) -> None:
        for gs, out in outs:
            name = f"pipeline seed {gs}"
            ref = None if reference is None else reference["pipeline"].get(str(gs), {})
            checks(f"{name}: ext pattern ratio 1.0", _json(out["ext"]).get("ratio") == 1.0)
            checks(f"{name}: hom pattern failures 0",
                   _json(out["hom"]).get("pattern_failures") == 0)
            if ref is not None:
                checks(f"{name}: .struct digest",
                       sha256(out["struct"].read_bytes()) == ref.get("struct"))
            _roundtrip_checks(checks, name, out, state["lat"], ref)

    def reference(self, workdir: Path, checks: Checks) -> dict:
        state = self.setup(0, workdir, checks, {})
        table = {}
        for gs in self.POOL:
            out = self.job(state, gs, {})
            self.check(state, [(gs, out)], checks, None)
            table[str(gs)] = {"struct": sha256(out["struct"].read_bytes()),
                              "perm": sha256(out["perm"].read_bytes()),
                              "profile2": sha256(out["profiles"][2])}
        return table


# ---------------------------------------------------------------------------
# translate


class Translate:
    """Set-up generates one depth-1 structure of 80 points per lattice
    (3-chain, B2, 4-chain: 2 to 3 meet-irreducibles, so decode has relations
    to recover), and one of 40 points on the 3-chain. Per pass: encode,
    decode and profile k=2 on each, and profile k=3 on the 40-point one.
    Profile k=3 grows like 6*C(N,3): at N=80 one call took 3.7 s, four
    fifths of the pass, and a step that long is badly served by the speed
    probes at its two ends (see StepClock). At N=40 it takes about a tenth
    of that, and decode is about half of the pass.

    Decode only sees the sample, as the README warns: at N=48 and N=64 one
    B2 seed in 16 decodes to a wrong lattice, and the 3x2 grid is not
    recovered at depth 1 up to N=60 or at depth 2 with N=48, so the grid is
    left out."""

    name = "translate"
    POOL = range(16)
    DEPTH = 1
    # (stem, lattice, size, profile k values)
    INPUTS = (("chain3", "chain3", 80, (2,)), ("b2", "b2", 80, (2,)),
              ("chain4", "chain4", 80, (2,)), ("chain3-n40", "chain3", 40, (2, 3)))

    def setup(self, seed: int, workdir: Path, checks: Checks, times: dict) -> dict:
        rng = random.Random(seed)
        inputs = []
        for spec in self.INPUTS:
            gs = rng.choice(self.POOL)
            lat_file = CLOCK(times, f"gen:{spec[0]}", self.generate, workdir, spec, gs, checks)
            inputs.append((spec, gs, lat_file))
        return {"workdir": workdir, "inputs": inputs}

    def generate(self, workdir: Path, spec: tuple, gs: int, checks: Checks) -> Path:
        stem, name, size, _ = spec
        lat_file = _write_lattice(workdir, name)
        rc, _ = run_cli(["gen", "--lattice", lat_file, "--orders", SIGNATURES[name],
                         "--size", size, "--depth", self.DEPTH, "--seed", gs,
                         "--out", workdir / f"{stem}.struct", "--no-report"])
        checks(f"translate {stem}: gen exit code", rc == 0)
        return lat_file

    def run_pass(self, state: dict) -> tuple[dict, list]:
        times, outs = {}, []
        for (stem, _, _, ks), gs, lat_file in state["inputs"]:
            outs.append((stem, gs, lat_file,
                         _encode_decode_profile(state["workdir"], stem, gs, ks, times)))
        return times, outs

    def check(self, state: dict, outs: list, checks: Checks, reference: dict | None) -> None:
        for stem, gs, lat_file, out in outs:
            ref = None
            if reference is not None:
                ref = reference["translate"].get(f"{stem}:{gs}", {})
                checks(f"translate {stem} seed {gs}: .struct digest",
                       sha256(out["struct"].read_bytes()) == ref.get("struct"))
            _roundtrip_checks(checks, f"translate {stem} seed {gs}", out, lat_file, ref)

    def reference(self, workdir: Path, checks: Checks) -> dict:
        table = {}
        for spec in self.INPUTS:
            for gs in self.POOL:
                state = {"workdir": workdir,
                         "inputs": [(spec, gs, self.generate(workdir, spec, gs, checks))]}
                _, outs = self.run_pass(state)
                self.check(state, outs, checks, None)
                out = outs[0][3]
                entry = {"struct": sha256(out["struct"].read_bytes()),
                         "perm": sha256(out["perm"].read_bytes())}
                entry.update({f"profile{k}": sha256(t) for k, t in out["profiles"].items()})
                table[f"{spec[0]}:{gs}"] = entry
        return table


# ---------------------------------------------------------------------------
# amalgam


class Amalgam:
    """Per pass: census of all lattices up to 7 elements (``is_distributive``
    against the distributive-law oracle), the amalgam validity sweep
    (max_base=3, max_new=2) over the 7 distributive lattices up to 5
    elements, and the failure probe on M3, N5, the 3-chain and the 4-chain.
    The seed lists each lattice's elements and covers in another order,
    except for M3 and N5: their probe stops at the first failure it finds,
    so its cost would depend on the listing (0.03 to 0.34 s per probe).

    Sizes keep a pass near 3 s: the census up to 8 elements alone takes
    about 3 s and the sweep up to 6 elements about 11 s. max_base stays 3,
    the largest base size for which the probe's bases are complete."""

    name = "amalgam"
    CENSUS = 7
    SWEEP = ("chain2", "chain3", "chain4", "b2", "chain5", "b2_top", "b2_bottom")
    PROBE = {"m3": True, "n5": True, "chain3": False, "chain4": False}

    def setup(self, seed: int, workdir: Path, checks: Checks, times: dict) -> dict:
        rng = random.Random(seed)
        names = dict.fromkeys(self.SWEEP + tuple(self.PROBE))
        return {"files": CLOCK(times, "write", lambda: {
            name: _write_lattice(workdir, name, None if self.PROBE.get(name) else rng)
            for name in names})}

    def run_pass(self, state: dict) -> tuple[dict, dict]:
        times, out = {}, {"sweep": {}, "probe": {}}
        lats = CLOCK(times, "load:lattices", lambda: {
            name: formats.load_lattice(path) for name, path in state["files"].items()})
        out["census"] = CLOCK(times, f"census:{self.CENSUS}", self.census)
        for name in self.SWEEP:
            report = CLOCK(times, f"sweep:{name}", spaces.amalgam_validity_sweep,
                           lats[name], max_base=3, max_new=2)
            out["sweep"][name] = (report.instances, len(report.failures))
        for name in self.PROBE:
            found = CLOCK(times, f"probe:{name}", spaces.amalgamation_failure_probe,
                          lats[name])
            out["probe"][name] = found is not None
        return times, out

    def census(self) -> dict:
        census = {"lattices": 0, "distributive": 0, "agree": 0}
        for lat in lattice.enumerate_lattices(self.CENSUS):
            dist = bool(lattice.is_distributive(lat))
            census["lattices"] += 1
            census["distributive"] += dist
            census["agree"] += dist == lattice.distributive_law_holds(lat)
        return census

    def check(self, state: dict, out: dict, checks: Checks, reference: dict | None) -> None:
        census = out["census"]
        checks("census: oracle agreement", census["agree"] == census["lattices"])
        for name, (instances, failures) in out["sweep"].items():
            checks(f"sweep {name}: no failures", failures == 0)
        for name, found in out["probe"].items():
            checks(f"probe {name}: failure found iff not distributive",
                   found == self.PROBE[name])
        if reference is not None:
            ref = reference["amalgam"]
            checks("census: counts", {k: census[k] for k in ("lattices", "distributive")}
                   == ref["census"])
            for name, (instances, _) in out["sweep"].items():
                checks(f"sweep {name}: instance count", instances == ref["sweep"].get(name))

    def reference(self, workdir: Path, checks: Checks) -> dict:
        files = {name: _write_lattice(workdir, name)
                 for name in dict.fromkeys(self.SWEEP + tuple(self.PROBE))}
        _, out = self.run_pass({"files": files})
        self.check({}, out, checks, None)
        return {"census": {k: out["census"][k] for k in ("lattices", "distributive")},
                "sweep": {name: inst for name, (inst, _) in out["sweep"].items()}}


WORKLOADS = {w.name: w for w in (Pipeline(), Translate(), Amalgam())}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
