import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlat import errors
from permlat.cli import main
from permlat.formats import (dump_lattice, dump_perm, dump_structure, load_lattice,
                             load_manifest, load_perm, load_structure)
from permlat.lattice import boolean2, chain_lattice, m3, n5


@pytest.fixture
def fixtures(tmp_path):
    (tmp_path / "m3.lat").write_text(dump_lattice(m3()))
    (tmp_path / "chain2.lat").write_text(dump_lattice(chain_lattice(2, ["0", "1"])))
    (tmp_path / "chain3.lat").write_text(dump_lattice(chain_lattice(3, ["0", "E", "1"])))
    (tmp_path / "b2.lat").write_text(dump_lattice(boolean2()))
    return tmp_path


def run(argv, capsys):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


# -- formats -----------------------------------------------------------------


def test_lattice_file_round_trips(fixtures):
    lat = load_lattice(fixtures / "b2.lat")
    assert lat.elements == ("0", "a", "b", "1")
    assert dump_lattice(lat) == (fixtures / "b2.lat").read_text()


def test_structure_file_round_trips(fixtures, tmp_path):
    from permlat.generic import GenerationConfig, generate_generic
    lat = load_lattice(fixtures / "chain3.lat")
    s = generate_generic(lat, [("0", "E"), ("E", "1")],
                         GenerationConfig(seed=5, target_size=8, saturation_depth=2),
                         with_saturation_report=False).structure
    text = dump_structure(s, lattice_ref="chain3.lat")
    path = fixtures / "s.struct"
    path.write_text(text)
    space, orders = load_structure(path)
    assert space == s.space
    assert tuple(orders) == s.orders


def test_perm_file_round_trips(tmp_path):
    from permlat.permstruct import PermStructure
    p = PermStructure(("a", "b", "c"), ((0, 1, 2), (2, 0, 1)))
    path = tmp_path / "x.perm"
    path.write_text(dump_perm(p))
    assert load_perm(path) == p


def test_malformed_lattice_file_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.lat"
    bad.write_text("cover: a < b\n")
    code, _ = run(["lattice", "check", bad], capsys)
    assert code == 1


# -- exit codes ---------------------------------------------------------------


def test_lattice_check_m3_exits_1_with_witness(fixtures, capsys):
    code, out = run(["lattice", "check", fixtures / "m3.lat", "--json"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["validation"]["ok"]
    assert payload["distributive"] is False
    assert len(payload["witness"]) == 5


def test_lattice_check_chain_exits_0(fixtures, capsys):
    code, _ = run(["lattice", "check", fixtures / "chain3.lat"], capsys)
    assert code == 0


def test_usage_error_exits_2(fixtures, capsys):
    # the parser's own rejections print one coded line and no usage banner
    assert main(["lattice", "frobnicate"]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error \[USAGE\]: argument sub: invalid choice: 'frobnicate'.*\n", err)
    out = fixtures / "o.struct"
    assert main(["gen", "--lattice", str(fixtures / "chain3.lat"), "--orders", "0:E,E:1",
                 "--size", "x", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error [USAGE]: argument --size: invalid int value: 'x'\n"
    assert not out.exists()


def test_space_probe_m3_exits_1(fixtures, capsys):
    code, out = run(["space", "probe", fixtures / "m3.lat", "--max-base", "3"], capsys)
    assert code == 1
    assert "failure" in out


def test_space_probe_chain_exits_0(fixtures, capsys):
    code, _ = run(["space", "probe", fixtures / "chain2.lat", "--max-base", "2"], capsys)
    assert code == 0


def test_space_probe_max_new_0_finds_no_failure(fixtures, capsys):
    code, out = run(["space", "probe", fixtures / "m3.lat", "--max-new", "0"], capsys)
    assert code == 0
    assert "no amalgamation failure found" in out


# -- generation pipeline ------------------------------------------------------


def test_gen_is_byte_deterministic(fixtures, capsys):
    args = ["gen", "--lattice", fixtures / "chain3.lat", "--orders", "0:E,E:1",
            "--size", "15", "--depth", "2", "--seed", "7", "--no-report"]
    code, _ = run(args + ["--out", fixtures / "a.struct"], capsys)
    assert code == 0
    code, _ = run(args + ["--out", fixtures / "b.struct"], capsys)
    assert code == 0
    assert (fixtures / "a.struct").read_bytes() == (fixtures / "b.struct").read_bytes()


def test_manifest_written_and_rerunnable(fixtures, capsys):
    out = fixtures / "g.struct"
    code, _ = run(["gen", "--lattice", fixtures / "chain3.lat", "--orders", "0:E,E:1",
                   "--size", "12", "--depth", "2", "--seed", "3", "--no-report",
                   "--out", out], capsys)
    assert code == 0
    manifest = load_manifest(str(out) + ".manifest")
    assert manifest["command"] == "gen"
    first = out.read_bytes()
    cfg = manifest["config"]
    code, _ = run(["gen", "--lattice", cfg["lattice"], "--orders", cfg["orders"],
                   "--size", cfg["size"], "--depth", cfg["depth"],
                   "--seed", cfg["seed"], "--no-report", "--out", out], capsys)
    assert code == 0
    assert out.read_bytes() == first


def test_full_pipeline_gen_encode_decode(fixtures, capsys):
    struct = fixtures / "p.struct"
    run(["gen", "--lattice", fixtures / "chain3.lat", "--orders", "0:E,E:1",
         "--size", "20", "--depth", "2", "--seed", "1", "--no-report",
         "--out", struct], capsys)
    code, _ = run(["sq", "check", struct], capsys)
    assert code == 0
    perm = fixtures / "p.perm"
    code, _ = run(["encode", "--in", struct, "--seed", "2", "--out", perm], capsys)
    assert code == 0
    code, out = run(["decode", "--in", perm, "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["relation_count"] == 3
    assert payload["distributive"] is True
    assert payload["lattice_hasse"]
    code, _ = run(["check", "ext", "--in", struct, "--k", "2"], capsys)
    assert code == 0
    code, _ = run(["profile", "--in", perm, "--k", "2"], capsys)
    assert code == 0


def test_json_output_is_stable_across_runs(fixtures, capsys):
    code, out1 = run(["lattice", "bounds", fixtures / "chain3.lat", "--json"], capsys)
    code, out2 = run(["lattice", "bounds", fixtures / "chain3.lat", "--json"], capsys)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["lower"] == 2 and payload["upper"] == 2


def test_amalgam_command(fixtures, capsys):
    base = fixtures / "base.struct"
    f1 = fixtures / "f1.struct"
    f2 = fixtures / "f2.struct"
    base.write_text("lattice: chain3.lat\npoints: b\n")
    f1.write_text("lattice: chain3.lat\npoints: b x\nd: b x E\n")
    f2.write_text("lattice: chain3.lat\npoints: b y\nd: b y 1\n")
    code, out = run(["space", "amalgam", base, f1, f2, "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert "d: x y 1" in payload["structure"]


def test_amalgam_output_carries_the_base_lattice_reference(fixtures, capsys):
    base, f1, f2 = (fixtures / f"{name}.struct" for name in ("base", "f1", "f2"))
    base.write_text("lattice: chain3.lat\npoints: b\n")
    f1.write_text("lattice: chain3.lat\npoints: b x\nd: b x E\n")
    f2.write_text("lattice: chain3.lat\npoints: b y\nd: b y 1\n")
    out = fixtures / "sub" / "a.struct"
    out.parent.mkdir()
    code, _ = run(["space", "amalgam", base, f1, f2, "--out", out], capsys)
    assert code == 0
    assert out.read_text().startswith("lattice: ../chain3.lat\n")
    code, text = run(["space", "check", out], capsys)
    assert code == 0 and "valid: True" in text


def test_sq_compose_and_split_commands(fixtures, capsys):
    struct = fixtures / "c.struct"
    run(["gen", "--lattice", fixtures / "chain3.lat", "--orders", "0:E,E:1",
         "--size", "10", "--depth", "2", "--seed", "4", "--no-report",
         "--out", struct], capsys)
    composed = fixtures / "composed.struct"
    code, _ = run(["sq", "compose", struct, "--lo", "0", "--hi", "1",
                   "--out", composed], capsys)
    assert code == 0
    space, orders = load_structure(composed)
    assert orders[0].bottom == "0" and orders[0].top == "1"
    code, _ = run(["sq", "split", composed, "--order", "0", "--at", "E",
                   "--out", fixtures / "split.struct"], capsys)
    assert code == 0
    space2, orders2 = load_structure(fixtures / "split.struct")
    assert (orders2[0].bottom, orders2[0].top) == ("0", "E")
    assert (orders2[1].bottom, orders2[1].top) == ("E", "1")


def test_entry_point_runs():
    result = subprocess.run([sys.executable, "-m", "permlat.cli", "--version"],
                            capture_output=True, text=True)
    assert result.returncode == 0


def test_package_runs_as_a_module():
    result = subprocess.run([sys.executable, "-m", "permlat", "profile", "--help"],
                            capture_output=True, text=True)
    assert result.returncode == 0 and "usage: permlat profile" in result.stdout


# -- coded errors -------------------------------------------------------------


@pytest.mark.parametrize("argv, code, err", [
    (["sq", "compose", "{s}", "--lo", "0", "--hi", "5"], 2, "USAGE"),
    (["sq", "split", "{s}", "--order", "5", "--at", "E"], 2, "USAGE"),
    (["sq", "split", "{s}", "--order", "-1", "--at", "E"], 2, "USAGE"),
    (["sq", "split", "{s}", "--order", "0", "--at", "Z"], 2, "USAGE"),
    (["gen", "--lattice", "{lat}", "--orders", "0:Z", "--size", "5", "--out", "{out}"],
     2, "USAGE"),
    (["check", "ext", "--in", "{norank}"], 1, "INVALID_STRUCTURE"),
    (["encode", "--in", "{norank}"], 1, "INVALID_STRUCTURE"),
    (["space", "probe", "{lat}", "--max-base", "5"], 1, "SIZE_CAP"),
    (["space", "probe", "{lat}", "--max-new", "3"], 1, "SIZE_CAP"),
    (["check", "ext", "--in", "{s}", "--k", "-1"], 2, "USAGE"),
    (["check", "hom", "--in", "{s}", "--k", "-1"], 2, "USAGE"),
    (["check", "ext", "--in", "{s}", "--k", "8"], 2, "USAGE"),
    (["check", "hom", "--in", "{s}", "--k", "8"], 2, "USAGE"),
    (["gen", "--lattice", "{lat}", "--orders", "0:E", "--size", "5", "--out", "{nodir}"],
     2, "USAGE"),
    (["encode", "--in", "{s}", "--out", "{nodir}"], 2, "USAGE"),
    (["gen", "--lattice", "{lat}", "--orders", "0:E", "--size", "5", "--out", "{dir}"],
     2, "USAGE"),
    (["lattice", "check", "{bin}"], 1, "FORMAT"),
    (["check", "ext", "--in", "{bin}"], 1, "FORMAT"),
    (["space", "probe", "{lat}", "--max-base", "-1"], 2, "USAGE"),
    (["space", "probe", "{lat}", "--max-new", "-1"], 2, "USAGE"),
    (["gen", "--lattice", "{lat}", "--orders", "0:E", "--size", "0", "--out", "{out}"],
     2, "USAGE"),
    (["gen", "--lattice", "{lat}", "--orders", "0:E", "--size", "5", "--depth", "0",
      "--out", "{out}"], 2, "USAGE"),
    (["profile", "--in", "{perm}", "--k", "-1"], 2, "USAGE"),
    (["profile", "--in", "{perm}", "--k", "5"], 2, "USAGE"),
    (["cameron", "--size", "0"], 2, "USAGE"),
    (["gen", "--lattice", "{lat}", "--orders", "E:0", "--size", "4", "--out", "{out}"],
     2, "USAGE"),
    (["lattice", "enum", "--max-size", "1"], 2, "USAGE"),
    (["lattice", "enum", "--max-size", "0"], 2, "USAGE"),
    (["lattice", "enum", "--max-size", "-1"], 2, "USAGE"),
    (["space", "probe", "{nolat}"], 1, "NOT_A_LATTICE"),
    (["lattice", "bounds", "{nolat}"], 1, "NOT_A_LATTICE"),
    (["gen", "--lattice", "{nolat}", "--orders", "a:b", "--size", "4", "--out", "{out}"],
     1, "NOT_A_LATTICE"),
    (["check", "ext", "--in", "{nolat_s}"], 1, "NOT_A_LATTICE"),
    (["space", "check", "{nolat_s}"], 1, "NOT_A_LATTICE"),
    (["sq", "check", "{nolat_s}"], 1, "NOT_A_LATTICE"),
    (["space", "amalgam", "{nolat_s}", "{nolat_s}", "{nolat_s}"], 1, "NOT_A_LATTICE"),
])
def test_bad_input_is_a_coded_error(fixtures, capsys, argv, code, err):
    struct = fixtures / "s.struct"
    run(["gen", "--lattice", fixtures / "chain3.lat", "--orders", "0:E,E:1",
         "--size", "8", "--depth", "2", "--seed", "1", "--no-report", "--out", struct], capsys)
    norank = fixtures / "norank.struct"
    norank.write_text("".join(line for line in struct.read_text().splitlines(True)
                              if not line.startswith("rank:")))
    perm = fixtures / "s.perm"
    perm.write_text("1 3\na 0\nb 2\nc 1\n")
    # two incomparable elements: no bottom, no top, no meet or join
    (fixtures / "nolat.lat").write_text("elements: a b\n")
    nolat_s = fixtures / "nolat.struct"
    nolat_s.write_text("lattice: nolat.lat\npoints: p0\n")
    binary = fixtures / "bin.lat"
    binary.write_bytes(b"elements: 0 \xff 1\n")
    paths = {"s": struct, "norank": norank, "lat": fixtures / "chain3.lat",
             "out": fixtures / "z.struct", "perm": perm, "nolat": fixtures / "nolat.lat",
             "nolat_s": nolat_s, "nodir": fixtures / "no" / "x.struct", "dir": fixtures,
             "bin": binary}
    assert main([a.format(**paths) for a in argv]) == code
    assert f"error [{err}]" in capsys.readouterr().err


@pytest.mark.parametrize("f1, f2, message", [
    ("points: x\n", "points: b c y\nd: b c 1\nd: b y 1\nd: c y 1\n",
     "base point b missing from factor f1"),
    ("points: b c x\nd: b c E\nd: b x 1\nd: c x 1\n",
     "points: b c y\nd: b c 1\nd: b y 1\nd: c y 1\n",
     "factor f1 does not restrict to the base at (b, c)"),
    ("points: b c x\nd: b c 1\nd: b x 1\nd: c x 1\n",
     "points: b c x\nd: b c 1\nd: b x E\nd: c x 1\n", "point-id collision outside the base"),
], ids=["missing-base-point", "base-not-restricted", "point-id-collision"])
def test_amalgam_factor_mismatch_is_a_coded_error(fixtures, capsys, f1, f2, message):
    paths = []
    for name, body in (("base", "points: b c\nd: b c 1\n"), ("f1", f1), ("f2", f2)):
        path = fixtures / f"{name}.struct"
        path.write_text("lattice: chain3.lat\n" + body)
        paths.append(str(path))
    assert main(["space", "amalgam", *paths]) == 1
    err = capsys.readouterr().err
    assert "error [INVALID_FACTOR]" in err and message in err


def test_amalgam_refuses_a_factor_over_another_lattice(fixtures, capsys):
    (fixtures / "copy.lat").write_text((fixtures / "chain3.lat").read_text())
    base, f1, f2 = (fixtures / f"{name}.struct" for name in ("base", "f1", "f2"))
    base.write_text("lattice: chain3.lat\npoints: b\n")
    f2.write_text("lattice: copy.lat\npoints: b y\nd: b y 1\n")
    # the same lattice read from another file amalgamates
    f1.write_text("lattice: copy.lat\npoints: b x\nd: b x E\n")
    code, out = run(["space", "amalgam", base, f1, f2], capsys)
    assert code == 0 and "d: x y 1" in out
    # B2 also has an element named 1, so the distances alone would parse
    f1.write_text("lattice: b2.lat\npoints: b x\nd: b x 1\n")
    assert main([str(p) for p in ("space", "amalgam", base, f1, f2)]) == 1
    err = capsys.readouterr().err
    assert "error [INVALID_FACTOR]" in err and "f1.struct" in err


@pytest.mark.parametrize("lat, orders, cover, err", [
    ("chain3.lat", "0:E,E:1", "chain: E Q\n", "error [FORMAT]: {cover}:2: unknown"),
    ("b2.lat", "a:1,b:1", "chain: a b\n", "error [FORMAT]: {cover}:2: a and b are incomparable"),
    ("b2.lat", "a:1,b:1", "chain: a\n", "error [MISSING_MEET_IRREDUCIBLE]: cover misses"),
    ("chain3.lat", "0:E,E:1", "chain: E E\n", "error [FORMAT]: {cover}:2: duplicate chain"),
    ("chain3.lat", "0:E,E:1", "chain: 0 E 1\n",
     "error [FORMAT]: {cover}:2: 0 is not an internal meet-irreducible"),
    ("chain3.lat", "0:E,E:1", "chain:\nchain: E\n", "error [FORMAT]: {cover}:2: 'chain:' names no"),
], ids=["unknown-element", "not-a-chain", "misses-a-meet-irreducible", "repeats-an-element",
        "names-the-bottom", "names-no-element"])
def test_bad_cover_file_is_a_coded_error(fixtures, capsys, lat, orders, cover, err):
    struct, path = fixtures / "s.struct", fixtures / "c.cover"
    run(["gen", "--lattice", fixtures / lat, "--orders", orders, "--size", "6", "--depth", "1",
         "--no-report", "--out", struct], capsys)
    path.write_text("# one chain per line\n" + cover)
    assert main(["encode", "--in", str(struct), "--cover", str(path)]) == 1
    assert err.format(cover=path) in capsys.readouterr().err


def test_encode_reads_a_cover_file(fixtures, capsys):
    struct, path = fixtures / "s.struct", fixtures / "c.cover"
    run(["gen", "--lattice", fixtures / "b2.lat", "--orders", "a:1,b:1", "--size", "6",
         "--depth", "1", "--no-report", "--out", struct], capsys)
    path.write_text("chain: a\nchain: b\n")
    code, out = run(["encode", "--in", struct, "--cover", path, "--json"], capsys)
    assert code == 0
    assert [c["credited"] for c in json.loads(out)["chains"]] == [["a"], ["b"]]


def test_cover_chains_may_list_their_elements_in_any_order(fixtures, capsys):
    (fixtures / "chain4.lat").write_text(dump_lattice(chain_lattice(4, ["0", "e", "f", "1"])))
    struct, path = fixtures / "s.struct", fixtures / "c.cover"
    run(["gen", "--lattice", fixtures / "chain4.lat", "--orders", "0:e,e:f,f:1", "--size", "6",
         "--depth", "1", "--no-report", "--out", struct], capsys)
    outs = []
    for chain in ("e f", "f e"):
        path.write_text(f"chain: {chain}\n")
        code, out = run(["encode", "--in", struct, "--cover", path, "--json"], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert all(json.loads(outs[1])["codebook_orders"].values())


def test_encode_auto_takes_the_cheapest_cover(tmp_path, capsys):
    # B2 under a 3-chain: Lambda0 is i1, i2 < i3 < i4; the fewest chains
    # (i1 i4), (i2 i3) cost 6 orders, the cheapest cover (i1 i3 i4), (i2) 5
    lat = tmp_path / "b2c3.lat"
    lat.write_text("elements: i0 i1 i2 i3 i4 i5\n" + "".join(
        f"cover: i{a} < i{b}\n" for a, b in ["01", "02", "13", "23", "34", "45"]))
    struct, perm = tmp_path / "s.struct", tmp_path / "s.perm"
    assert run(["gen", "--lattice", lat, "--orders", "i1:i3,i2:i3,i3:i4,i4:i5", "--size", "40",
                "--depth", "3", "--seed", "1", "--no-report", "--out", struct], capsys)[0] == 0
    code, out = run(["encode", "--in", struct, "--out", perm, "--json"], capsys)
    assert code == 0 and json.loads(out)["bound"] == 5
    assert perm.read_text().split("\n", 1)[0] == "5 40"
    code, out = run(["lattice", "bounds", lat, "--json"], capsys)
    assert json.loads(out)["upper"] == 5


def test_encode_refuses_an_order_over_a_one_element_lattice(tmp_path, capsys):
    (tmp_path / "one.lat").write_text("elements: x0\n")
    struct = tmp_path / "s.struct"
    struct.write_text("lattice: one.lat\npoints: p0\nsq: x0 x0\nrank: p0 0\n")
    assert main(["encode", "--in", str(struct)]) == 1
    err = capsys.readouterr().err
    assert "error [SIZE_CAP]" in err and "one-element lattice" in err


def test_encode_takes_sparse_ranks_on_a_chain_of_one_segment(fixtures, capsys):
    # ranks need only be distinct inside a scale: the lone 0:1 order is the
    # chain's base order, read off in rank order
    struct = fixtures / "s.struct"
    struct.write_text("lattice: chain2.lat\npoints: p0 p1 p2\nd: p0 p1 1\nd: p0 p2 1\n"
                      "d: p1 p2 1\nsq: 0 1\nrank: p0 1\nrank: p1 7\nrank: p2 -3\n")
    code, _ = run(["encode", "--in", struct, "--out", fixtures / "s.perm"], capsys)
    assert code == 0
    assert (fixtures / "s.perm").read_text() == "1 3\np0 1\np1 2\np2 0\n"


@pytest.mark.parametrize("argv, edit, where", [
    # a .struct file read as a .perm file: its header is not two integers
    (["decode", "--in", "{s}"], None, "s.struct:1:"),
    (["profile", "--in", "{s}"], None, "s.struct:1:"),
    (["check", "ext", "--in", "{s}"], ("rank: p0 0", "rank: p0 x"), "s.struct:7:"),
    (["decode", "--in", "{perm}"], ("b 2", "b two"), "s.perm:3:"),
    # the second, conflicting line of a pair's distance is the one named
    (["space", "check", "{s}"], ("d: p0 p1 E", "d: p0 p1 E\nd: p1 p0 1"), "s.struct:4:"),
    # duplicate ids, named at their line
    (["space", "check", "{s}"], ("points: p0 p1 p2", "points: p0 p1 p1"), "s.struct:2:"),
    (["lattice", "check", "{lat}"], ("elements: 0 E 1", "elements: 0 E E 1"), "chain3.lat:1:"),
    (["decode", "--in", "{perm}"], ("b 2", "a 2"), "s.perm:3:"),
    (["profile", "--in", "{perm}"], ("b 2", "a 2"), "s.perm:3:"),
    # a header line may come only once
    (["space", "check", "{s}"], ("d: p0 p1 E", "d: p0 p1 E\npoints: p0 p3"), "s.struct:4:"),
    (["space", "check", "{s}"], ("d: p0 p1 E", "d: p0 p1 E\nlattice: chain3.lat"),
     "s.struct:4:"),
    # rank columns must be permutations of 0..N-1, and counts not negative
    (["decode", "--in", "{perm}"], ("b 2", "b 0"), "s.perm:3:"),
    (["profile", "--in", "{perm}"], ("c 1", "c 3"), "s.perm:4:"),
    (["decode", "--in", "{perm}"], ("1 3", "-1 3"), "s.perm:1:"),
    (["decode", "--in", "{perm}"], ("c 1", "c 1\nd 3"), "s.perm:5:"),
    # a repeated 'elements:' header, differing or identical, and cover faults
    (["lattice", "check", "{lat}"], ("cover: E < 1", "cover: E < 1\nelements: 0 E 2"),
     "chain3.lat:4:"),
    (["lattice", "check", "{lat}"], ("cover: E < 1", "cover: E < 1\nelements: 0 E 1"),
     "chain3.lat:4:"),
    (["lattice", "check", "{lat}"], ("cover: E < 1", "cover: E < Z"), "chain3.lat:3:"),
    (["lattice", "check", "{lat}"], ("cover: E < 1", "cover: E <"), "chain3.lat:3:"),
    # a cycle of covers: the witness pair and the first cover line on the cycle
    (["lattice", "check", "{lat}"], ("cover: E < 1", "cover: E < 1\ncover: 1 < 0"),
     "chain3.lat:2: cover relation is not a partial order: 0 and E lie on a cycle"),
    (["lattice", "check", "{lat}"], ("cover: E < 1", "cover: E < 1\ncover: 1 < E"),
     "chain3.lat:3: cover relation is not a partial order: E and 1 lie on a cycle"),
    # a cover line must name a cover: not a self-loop, not a pair ordered through another
    (["lattice", "check", "{lat}"], ("cover: E < 1", "cover: E < 1\ncover: 1 < 1"),
     "chain3.lat:4: 'cover: 1 < 1' is not a cover: an element does not cover itself"),
    (["lattice", "check", "{lat}"], ("cover: E < 1", "cover: E < 1\ncover: 0 < 1"),
     "chain3.lat:4: 'cover: 0 < 1' is not a cover: E lies between them"),
    # each structure-file fault, its whole message pinned
    (["space", "check", "{s}"], ("d: p0 p2 1", "d: p0 p9 1"),
     "s.struct: distance names unknown point (p0, p9)\n"),
    (["space", "check", "{s}"], ("d: p0 p2 1", "d: p0 p2 X"),
     "s.struct: unknown lattice element 'X'\n"),
    (["space", "check", "{s}"], ("d: p0 p2 1\n", ""),
     "s.struct: missing distances for pairs [('p0', 'p2')]\n"),
    (["space", "check", "{s}"], ("d: p0 p2 1", "d: p0 p0 0"),   # a self-pair is no pair
     "s.struct: missing distances for pairs [('p0', 'p2')]\n"),
    (["space", "check", "{s}"], ("d: p0 p1 E", "d: p0 p1 E\nd: p1 p0 1"),
     "s.struct:4: d(p1,p0) = 1 conflicts with an earlier line that set it to E\n"),
    (["space", "check", "{s}"], ("d: p0 p1 E", "d: p0 p1"), "s.struct:3: expected 'd: x y lambda'\n"),
    (["space", "check", "{s}"], ("sq: 0 E\n", ""), "s.struct:6: 'rank:' before any 'sq:' block\n"),
    (["space", "check", "{s}"], ("d: p0 p1 E", "d: p0 p1 E\nbogus line"),
     "s.struct:4: unrecognized line 'bogus line'\n"),
    (["space", "check", "{s}"], ("d: p0 p1 E", "d p0 p1 E"), "s.struct:3: unrecognized line 'd p0 p1 E'\n"),
])
def test_malformed_file_is_a_format_error_at_its_line(fixtures, capsys, argv, edit, where):
    struct = fixtures / "s.struct"
    lines = ["lattice: chain3.lat", "points: p0 p1 p2", "d: p0 p1 E", "d: p0 p2 1",
             "d: p1 p2 1", "sq: 0 E", "rank: p0 0", "rank: p1 1", "rank: p2 0"]
    perm = fixtures / "s.perm"
    perm.write_text("1 3\na 0\nb 2\nc 1\n")
    struct.write_text("\n".join(lines) + "\n")
    lat = fixtures / "chain3.lat"
    if edit is not None:
        target = {"{perm}": perm, "{lat}": lat}.get(argv[-1], struct)
        target.write_text(target.read_text().replace(*edit))
    code = main([a.format(s=struct, perm=perm, lat=lat) for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert "error [FORMAT]" in err
    assert where in err
    if where.endswith("\n"):  # the whole message
        assert err == f"error [FORMAT]: {fixtures}/{where}"


@pytest.mark.parametrize("argv", [["lattice", "check"], ["lattice", "bounds"],
                                  ["space", "probe"]])
def test_empty_elements_line_is_a_format_error_at_its_line(tmp_path, capsys, argv):
    lat = tmp_path / "e.lat"
    lat.write_text("# no elements\nelements:\n")
    assert main(argv + [str(lat)]) == 1
    err = capsys.readouterr().err
    assert "error [FORMAT]" in err and "e.lat:2:" in err


def test_check_depth_cap_names_the_flag(fixtures, capsys):
    struct = fixtures / "s.struct"
    run(["gen", "--lattice", fixtures / "chain3.lat", "--orders", "0:E,E:1", "--size", "4",
         "--depth", "1", "--no-report", "--out", struct], capsys)
    for kind in ("ext", "hom"):
        assert main(["check", kind, "--in", str(struct), "--k", "8"]) == 2
        assert capsys.readouterr().err == "error [USAGE]: --k must be in 0..7, got 8\n"


def test_gen_depth_cap_names_the_flag(fixtures, capsys):
    # refused before any work is done: the checks could not read the report back
    struct = fixtures / "s.struct"
    assert main(["gen", "--lattice", str(fixtures / "chain3.lat"), "--orders", "0:E,E:1",
                 "--size", "10", "--depth", "8", "--out", str(struct)]) == 2
    assert capsys.readouterr().err == "error [USAGE]: --depth must be in 1..7, got 8\n"
    assert not struct.exists()


def test_check_names_the_file_of_an_invalid_structure(fixtures, capsys):
    struct = fixtures / "s.struct"
    struct.write_text("lattice: chain3.lat\npoints: p0 p1\nd: p0 p1 E\nsq: 0 E\n"
                      "rank: p0 0\nrank: p1 0\n")
    assert main(["check", "hom", "--in", str(struct)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [INVALID_STRUCTURE]: {struct}: invalid structure: order[0].")


def test_gen_refuses_an_out_path_in_a_missing_directory_before_generating(
        fixtures, capsys, monkeypatch):
    monkeypatch.setattr("permlat.cli.generate_generic", lambda *a, **k: pytest.fail("ran"))
    out = fixtures / "no" / "x.struct"
    assert main(["gen", "--lattice", str(fixtures / "chain3.lat"), "--orders", "0:E",
                 "--size", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error [USAGE]: --out {out}: directory {out.parent} does not exist\n")


def test_non_utf8_input_is_a_format_error_naming_the_file(tmp_path, capsys):
    lat = tmp_path / "bin.lat"
    lat.write_bytes(b"elements: 0 1\ncover: 0 < 1\n# caf\xe9\n")
    assert main(["lattice", "check", str(lat)]) == 1
    assert capsys.readouterr().err == f"error [FORMAT]: {lat}:3: not UTF-8 text (byte 32)\n"


def test_lattice_enum_cap_names_the_flag(capsys):
    assert main(["lattice", "enum", "--max-size", "9"]) == 1
    assert capsys.readouterr().err == "error [SIZE_CAP]: --max-size is capped at 8, got 9\n"


def test_lattice_size_cap_names_the_file_and_line(tmp_path, capsys):
    # a 17-element chain is refused at its elements: line, read directly or
    # through a structure file's lattice: header
    lat = tmp_path / "c17.lat"
    lat.write_text("elements: " + " ".join(map(str, range(17))) + "\n"
                   + "".join(f"cover: {i} < {i + 1}\n" for i in range(16)))
    struct = tmp_path / "s.struct"
    struct.write_text("lattice: c17.lat\npoints: a\n")
    for argv in (["lattice", "check", lat], ["lattice", "bounds", lat],
                 ["check", "ext", "--in", struct]):
        assert main([str(a) for a in argv]) == 1
        assert capsys.readouterr().err == (
            f"error [SIZE_CAP]: {lat}:1: lattices are capped at 16 elements, got 17\n")


def test_decode_size_cap_counts_no_closed_sets_past_the_cap(tmp_path, capsys):
    # the random 8-point, 5-order sample of seed 2 has 22 closed unions of
    # orientation types; decode stops at the 17th
    rng = random.Random(2)
    columns = [list(range(8)) for _ in range(5)]
    for column in columns:
        rng.shuffle(column)
    perm = tmp_path / "r2.perm"
    perm.write_text("5 8\n" + "".join(f"p{i} " + " ".join(str(c[i]) for c in columns) + "\n"
                                      for i in range(8)))
    assert main(["decode", "--in", str(perm)]) == 1
    assert capsys.readouterr().err == (
        "error [SIZE_CAP]: lattices are capped at 16 elements, got more than 16 closed "
        "unions of orientation types\n")


@pytest.mark.parametrize("flag, value, cap", [("--max-base", "5", 4), ("--max-new", "3", 2)])
def test_space_probe_caps_name_the_flag_before_reading_the_lattice(tmp_path, capsys, flag,
                                                                   value, cap):
    missing = tmp_path / "missing.lat"
    assert main(["space", "probe", str(missing), flag, value]) == 1
    assert capsys.readouterr().err == f"error [SIZE_CAP]: {flag} is capped at {cap}, got {value}\n"


def test_guards_name_the_file_rule_and_witness(fixtures, capsys):
    (fixtures / "nolat.lat").write_text("elements: a b\n")
    assert main(["lattice", "bounds", str(fixtures / "nolat.lat")]) == 1
    assert "nolat.lat: not a lattice: bottom ('a',)" in capsys.readouterr().err
    assert main(["lattice", "bounds", str(fixtures / "m3.lat")]) == 1
    err = capsys.readouterr().err
    assert "error [NON_DISTRIBUTIVE]" in err and "M3 sublattice ('0', 'p', 'q', 'r', '1')" in err


@pytest.mark.parametrize("exc, err", [
    (OSError(28, "No space left on device"), "error [IO]: [Errno 28] No space left on device\n"),
    (ValueError("no such value"), "error [ERROR]: no such value\n"),
])
def test_an_uncoded_error_exits_1_with_a_stable_code(fixtures, capsys, monkeypatch, exc, err):
    # a disk that fills while gen writes its output, and a ValueError that
    # no coded error covers
    def fail(self, *args, **kwargs):
        raise exc

    monkeypatch.setattr(Path, "write_text", fail)
    assert main(["gen", "--lattice", str(fixtures / "chain3.lat"), "--orders", "0:E,E:1",
                 "--size", "4", "--depth", "1", "--out", str(fixtures / "g.struct")]) == 1
    assert capsys.readouterr().err == err


def test_a_duplicated_order_warns_in_one_line(fixtures, capsys):
    # the warning reads as the errors do, without Python's file:line form
    # and source line, and gen still succeeds
    assert main(["gen", "--lattice", str(fixtures / "chain3.lat"), "--orders", "0:E,0:E,E:1",
                 "--size", "6", "--depth", "2", "--out", str(fixtures / "w.struct")]) == 0
    assert capsys.readouterr().err == ("warning: two subquotient orders share bottom and top; "
                                       "reversal deduplication is not applied\n")


def test_every_error_code_is_documented():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    codes = {cls.code for cls in vars(errors).values()
             if isinstance(cls, type) and issubclass(cls, errors.PermlatError)
             and cls is not errors.PermlatError}
    assert sorted(c for c in codes if f"`{c}`" not in readme) == []


def test_lattice_check_lists_the_violations_of_a_non_lattice(tmp_path, capsys):
    lat = tmp_path / "nolat.lat"
    lat.write_text("elements: a b\n")
    code, out = run(["lattice", "check", lat], capsys)
    assert code == 1
    assert "valid: False" in out and "violation meet-total" in out


# -- fuzzed lattice files --------------------------------------------------------


_CODES = {cls.code for cls in vars(errors).values()
          if isinstance(cls, type) and issubclass(cls, errors.PermlatError)} | {"IO"}


def _main_coded(argv, stdout=None) -> int:
    """``main``'s exit code, after checking that each line it wrote to
    stderr is a coded error or a warning."""
    err = io.StringIO()
    with contextlib.redirect_stdout(stdout or io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    for line in err.getvalue().splitlines():
        match = re.fullmatch(r"error \[(\w+)\]: .*|warning: .*", line)
        assert match and match.group(1) in _CODES | {None}, line
    return code


@st.composite
def lattice_files(draw):
    """A lattice file of 0-5 elements with random covers (cycles, loops and
    non-lattices included) and an order signature over its elements, one
    order given once or twice."""
    names = [f"x{i}" for i in range(draw(st.integers(0, 5)))]
    element = st.sampled_from(names or ["x0"])
    covers = draw(st.lists(st.tuples(element, element), max_size=8)) if names else []
    text = "elements: " + " ".join(names) + "\n"
    text += "".join(f"cover: {a} < {b}\n" for a, b in covers)
    order = f"{draw(element)}:{draw(element)}"
    # now and then the order twice, which gen warns of
    return text, ",".join([order] * draw(st.integers(1, 2)))


@settings(max_examples=60, deadline=None)
@given(lattice_files())
def test_fuzzed_lattice_files_give_an_exit_code_not_a_traceback(case):
    text, orders = case
    with tempfile.TemporaryDirectory() as tmp:
        lat = Path(tmp) / "f.lat"
        lat.write_text(text)
        for argv in (["lattice", "check", lat], ["lattice", "bounds", lat],
                     ["space", "probe", lat, "--max-base", "1", "--max-new", "1"],
                     ["gen", "--lattice", lat, "--orders", orders, "--size", "4",
                      "--depth", "1", "--out", Path(tmp) / "g.struct"]):
            assert _main_coded(argv) in (0, 1, 2)


_FUZZ_LATTICES = {
    "one.lat": "elements: x0\n",
    "chain3.lat": "elements: 0 E 1\ncover: 0 < E\ncover: E < 1\n",
    "b2.lat": "elements: 0 a b 1\ncover: 0 < a\ncover: 0 < b\ncover: a < 1\ncover: b < 1\n",
    "m3.lat": "elements: 0 p q r 1\n" + "".join(f"cover: 0 < {x}\ncover: {x} < 1\n" for x in "pqr"),
    "nolat.lat": "elements: a b\n",
}


@st.composite
def structure_files(draw):
    """A structure file over one of a few small lattices: 0-4 points, every
    pair given a distance, and 0-2 orders with random ends and ranks."""
    ref = draw(st.sampled_from(sorted(_FUZZ_LATTICES)))
    element = st.sampled_from(_FUZZ_LATTICES[ref].split("\n")[0].split()[1:])
    points = [f"p{i}" for i in range(draw(st.integers(0, 4)))]
    lines = [f"lattice: {ref}", "points: " + " ".join(points)]
    lines += [f"d: {x} {y} {draw(element)}" for i, x in enumerate(points) for y in points[i + 1:]]
    for _ in range(draw(st.integers(0, 2))):
        lines.append(f"sq: {draw(element)} {draw(element)}")
        lines += [f"rank: {p} {draw(st.integers(0, 2))}" for p in points if draw(st.booleans())]
    return "\n".join(lines) + "\n", draw(element), draw(st.sampled_from(sorted(_FUZZ_LATTICES)))


@settings(max_examples=60, deadline=None)
@given(structure_files())
def test_fuzzed_structure_files_give_an_exit_code_not_a_traceback(case):
    text, at, other = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, body in _FUZZ_LATTICES.items():
            (Path(tmp) / name).write_text(body)
        s, t = Path(tmp) / "s.struct", Path(tmp) / "t.struct"
        s.write_text(text)
        # the same body under a header that may name another lattice
        t.write_text(f"lattice: {other}\n" + text.split("\n", 1)[1])
        for argv in (["space", "check", s], ["sq", "check", s], ["check", "ext", "--in", s],
                     ["check", "hom", "--in", s], ["encode", "--in", s],
                     ["sq", "compose", s, "--lo", "0", "--hi", "1"],
                     ["sq", "split", s, "--order", "0", "--at", at], ["space", "amalgam", s, s, s],
                     ["space", "amalgam", s, t, t]):
            assert _main_coded(argv) in (0, 1, 2)


# -- fuzzed permutation files ---------------------------------------------------


@st.composite
def perm_files(draw):
    """A ``.perm`` file of 0-3 orders on 0-5 points: rank columns that are
    permutations, now and then with a bad header, ids from a small pool
    (so repeats), a short or extra row, or a rank out of place."""
    n, N = draw(st.integers(0, 3)), draw(st.integers(0, 5))
    columns = [draw(st.permutations(range(N))) for _ in range(n)]
    pool = ["a", "b", "c"] if draw(st.booleans()) else [f"p{i}" for i in range(N)]
    rows = [[draw(st.sampled_from(pool))] + [str(c[i]) for c in columns] for i in range(N)]
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        fault = draw(st.sampled_from(["short", "rank", "drop", "extra"]))
        if fault == "short":
            row.pop()
        elif fault == "rank" and n:
            row[draw(st.integers(1, n))] = str(draw(st.integers(-1, N)))
        elif fault == "drop":
            rows.remove(row)
        else:
            rows.append(list(row))
    header = draw(st.sampled_from([f"{n} {N}", f"{n} {N}", f"{n} {N}", f"-1 {N}", f"{n} -1",
                                   f"{n} x", f"{n}", f"{n} {N} 0"]))
    return header + "\n" + "".join(" ".join(r) + "\n" for r in rows)


@settings(max_examples=60, deadline=None)
@given(perm_files())
def test_fuzzed_perm_files_give_an_exit_code_not_a_traceback(text):
    with tempfile.TemporaryDirectory() as tmp:
        perm = Path(tmp) / "f.perm"
        perm.write_text(text)
        for argv in (["decode", "--in", perm], ["decode", "--in", perm, "--json"],
                     *(["profile", "--in", perm, "--k", k] for k in range(5))):
            assert _main_coded(argv) in (0, 1, 2)


# -- fuzzed cover files -----------------------------------------------------------


_COVER_CASES = {"chain3": (chain_lattice(3, ["0", "E", "1"]), [("0", "E"), ("E", "1")]),
                "b2": (boolean2(), [("a", "1"), ("b", "1")]),
                "chain4": (chain_lattice(4, ["0", "e", "f", "1"]),
                           [("0", "e"), ("e", "f"), ("f", "1")])}


@functools.cache
def _cover_case_files(name):
    """The lattice file and a generated structure file for one cover case."""
    from permlat.generic import GenerationConfig, generate_generic
    lat, signature = _COVER_CASES[name]
    s = generate_generic(lat, signature, GenerationConfig(seed=2, target_size=7,
                                                          saturation_depth=1),
                         with_saturation_report=False).structure
    return dump_lattice(lat), dump_structure(s, lattice_ref="l.lat")


@st.composite
def cover_files(draw):
    """A cover case and 1-3 ``chain:`` lines, each one or more internal
    meet-irreducibles in random order, now and then with a repeat, the
    bottom, the top or an unknown name put in."""
    name = draw(st.sampled_from(sorted(_COVER_CASES)))
    lat = _COVER_CASES[name][0]
    internal = [x for x in lat.elements if x not in (lat.bottom, lat.top)]
    chains = []
    for _ in range(draw(st.integers(1, 3))):
        chain = draw(st.permutations(internal))[:draw(st.integers(1, len(internal)))]
        if draw(st.integers(0, 3)) == 0:
            bad = draw(st.sampled_from(internal + [lat.bottom, lat.top, "Q"]))
            chain.insert(draw(st.integers(0, len(chain))), bad)
        chains.append(chain)
    return name, "".join("chain: " + " ".join(c) + "\n" for c in chains)


@settings(max_examples=60, deadline=None)
@given(cover_files())
def test_fuzzed_cover_files_encode_to_orders_the_codebook_recovers(case):
    name, cover_text = case
    lat_text, struct_text = _cover_case_files(name)
    with tempfile.TemporaryDirectory() as tmp:
        lat, struct, cover, perm = (Path(tmp) / f for f in ("l.lat", "s.struct", "c.cover",
                                                             "s.perm"))
        lat.write_text(lat_text)
        struct.write_text(struct_text)
        cover.write_text(cover_text)
        stdout = io.StringIO()
        code = _main_coded(["encode", "--in", struct, "--cover", cover, "--out", perm, "--json"],
                           stdout)
        assert code in (0, 1, 2)
        if code == 0:
            book = json.loads(stdout.getvalue())["codebook_orders"]
            p = load_perm(perm)
            _, orders = load_structure(struct)
            for idx, order in enumerate(orders):
                vectors = {tuple(v) for v in book[str(idx)]}
                for x, y in itertools.permutations(p.points, 2):
                    assert order.less(x, y) == (p.vector(x, y) in vectors)


# -- fuzzed flags ---------------------------------------------------------------


@pytest.fixture(scope="module")
def flag_files(tmp_path_factory):
    """The fuzzed lattice files, an 8-point B2 structure and its encoding."""
    from permlat.generic import GenerationConfig, generate_generic
    path = tmp_path_factory.mktemp("flags")
    for name, body in _FUZZ_LATTICES.items():
        (path / name).write_text(body)
    s = generate_generic(boolean2(), [("a", "1"), ("b", "1")],
                         GenerationConfig(seed=1, target_size=8, saturation_depth=2),
                         with_saturation_report=False).structure
    (path / "s.struct").write_text(dump_structure(s, lattice_ref="b2.lat"))
    assert main(["encode", "--in", str(path / "s.struct"), "--out", str(path / "s.perm")]) == 0
    return path


_BAD_ORDERS = ["", ",", "a", "a:", ":1", "a:1:b", "a:1,", "q:1", "1:a", "-a:1", "a:1,a:1", "0:1"]
_NON_INTEGERS = ["x", "1.5", ""]


@st.composite
def flag_draws(draw):
    """A command line, its paths under ``{dir}``: integer flags from -1 to
    12 (``--k`` to 4), now and then a value that is no integer, an
    ``--orders`` that is B2's or malformed, and an ``--out`` that is a new
    file, a directory or a file in a missing one. Each value is given in
    its flag's word or as the next word, and the command may be missing or
    unknown."""
    def number(high=12):
        ints = st.integers(-1, high).map(str)
        return draw(st.sampled_from(_NON_INTEGERS) if draw(st.integers(0, 9)) == 0 else ints)

    def flag(name, value):
        return [f"--{name}={value}"] if draw(st.booleans()) else [f"--{name}", value]

    # weighted so that gen, with the most ways to fail, also succeeds
    out = draw(st.sampled_from(["{dir}/new.out"] * 4 + ["{dir}", "{dir}/missing/new.out"]))
    command = draw(st.sampled_from(["gen"] * 4 + ["ext", "hom", "probe", "encode", "profile",
                                                  "cameron", "none", "frob"]))
    if command == "gen":
        depth = number()
        # a report at depth 6 or 7 over 12 points takes 1-17 s (k!
        # labellings per form); keep those depths to 8 points
        size = number(8 if depth in ("6", "7") else 12)
        orders = draw(st.sampled_from(_BAD_ORDERS + ["a:1,b:1"] * len(_BAD_ORDERS)))
        return ["gen", *flag("lattice", "{dir}/b2.lat"), *flag("orders", orders),
                *flag("size", size), *flag("depth", depth), *flag("seed", number()),
                *flag("out", out)]
    if command in ("ext", "hom"):
        return ["check", command, *flag("in", "{dir}/s.struct"), *flag("k", number(4))]
    if command == "probe":
        lat = draw(st.sampled_from(sorted(_FUZZ_LATTICES)))
        return ["space", "probe", f"{{dir}}/{lat}", *flag("max-base", number()),
                *flag("max-new", number())]
    if command == "encode":
        return ["encode", *flag("in", "{dir}/s.struct"), *flag("seed", number()),
                *flag("out", out)]
    if command == "profile":
        return ["profile", *flag("in", "{dir}/s.perm"), *flag("k", number(4))]
    if command == "none":
        return []
    if command == "frob":
        return ["frob", *flag("seed", number())]
    return ["cameron", *flag("size", number()), *flag("seed", number())]


def _out_value(argv):
    # the --out value of a command line, in the flag's word or the next one
    for flag, value in zip(argv, argv[1:] + [None]):
        if flag.startswith("--out="):
            return flag[len("--out="):]
        if flag == "--out":
            return value


@settings(max_examples=150, deadline=None, derandomize=True)
@given(flag_draws())
def test_fuzzed_flags_give_an_exit_code_not_a_traceback(flag_files, argv):
    code = _main_coded([a.format(dir=flag_files) for a in argv])
    assert code in (0, 1, 2)
    # a directory, or a file in a missing one, is never written
    assert code or _out_value(argv) not in ("{dir}", "{dir}/missing/new.out")


# -- golden digests -------------------------------------------------------------


def test_lattice_enum_matches_golden_digest(capsys):
    code, out = run(["lattice", "enum", "--max-size", "8", "--json"], capsys)
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "a7900cf85373828715dc7a4e3d5969ebe33dcca26913c965bdfe21b055788b39")


@pytest.mark.parametrize("lat, sha", [
    (m3(), "4c5486df3824d945cecaee04634973f4e48d145c87003ae5b11ad1994746a12a"),
    (n5(), "cae7326a6b472b52bd4d73e171b6ce1b46a9f4ccf539e77062c459236e075bc7"),
], ids=["m3", "n5"])
def test_space_probe_json_matches_golden_digest(tmp_path, capsys, lat, sha):
    # pins the first instance without an amalgam: its base and both factors
    path = tmp_path / "probe.lat"
    path.write_text(dump_lattice(lat))
    code, out = run(["space", "probe", path, "--max-base", "3", "--json"], capsys)
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == sha


@pytest.mark.parametrize("lat, orders, size, depth, seed, struct_sha, perm_sha", [
    ("chain3.lat", "0:E,E:1", 15, 2, 7,
     "fd68b8d298e3b247856a9c79d2e75c055822527478b8e9f92107c5d623c2208d",
     "affa10dd3a3293c124340a16d2d552f96f1c35f0345873ed36d48fe56bea35e8"),
    ("b2.lat", "a:1,b:1", 12, 2, 3,
     "ced5b0c2e74c39c13d816611616b59c1bb0230a501c3141f68defdd75bca11c2",
     "17278c61b6091b2153a74b16340f14c1942e8dd4f5931708533a36fb0e6cd055"),
])
def test_gen_and_encode_match_golden_digests(fixtures, capsys, lat, orders, size, depth,
                                             seed, struct_sha, perm_sha):
    # pins the seeded stream across refactors, not only within one build
    struct, perm = fixtures / "g.struct", fixtures / "g.perm"
    code, _ = run(["gen", "--lattice", fixtures / lat, "--orders", orders, "--size", size,
                   "--depth", depth, "--seed", seed, "--no-report", "--out", struct], capsys)
    assert code == 0
    code, _ = run(["encode", "--in", struct, "--out", perm], capsys)
    assert code == 0
    assert hashlib.sha256(struct.read_bytes()).hexdigest() == struct_sha
    assert hashlib.sha256(perm.read_bytes()).hexdigest() == perm_sha


@pytest.mark.parametrize("lat, orders, chains, perm_sha", [
    # 0:1 spans the first chain's node E, so it opens a second chain
    ("chain3.lat", "0:E,E:1,0:1", 2,
     "50814feec685339b3b286dc26bbfaacaa1885e893da250739010fc302a4d7198"),
    # 0:f spans the credited e; the second e:f would sit inside the 0:f segment
    ("chain4.lat", "0:f,e:f,e:f,f:1", 3,
     "bd91d8ecd78901008639813e112a1e3b285ae64bf42e1894e0f2ce1b920de155"),
])
@pytest.mark.filterwarnings("ignore:two subquotient orders share bottom and top")
def test_chains_opened_for_unplaceable_orders_encode_as_pinned(fixtures, capsys, lat, orders,
                                                               chains, perm_sha):
    # the chain planner skips a chain with a node strictly inside the new
    # order's span, or a hosted segment with the order's end strictly inside
    (fixtures / "chain4.lat").write_text(dump_lattice(chain_lattice(4, ["0", "e", "f", "1"])))
    struct, perm = fixtures / "g.struct", fixtures / "g.perm"
    code, _ = run(["gen", "--lattice", fixtures / lat, "--orders", orders, "--size", 24,
                   "--depth", 2, "--seed", 3, "--no-report", "--out", struct], capsys)
    assert code == 0
    code, out = run(["encode", "--in", struct, "--out", perm, "--seed", 3, "--json"], capsys)
    assert code == 0
    book = json.loads(out)
    assert (len(book["chains"]), book["orders_emitted"]) == (chains, 2 * chains - 1)
    assert hashlib.sha256(perm.read_bytes()).hexdigest() == perm_sha
    p = load_perm(perm)
    _, inputs = load_structure(struct)
    for idx, order in enumerate(inputs):
        vectors = {tuple(v) for v in book["codebook_orders"][str(idx)]}
        for x, y in itertools.permutations(p.points, 2):
            assert order.less(x, y) == (p.vector(x, y) in vectors)


def test_cameron_json_is_pinned(capsys):
    code, out = run(["cameron", "--size", 12, "--seed", 0, "--json"], capsys)
    assert code == 0
    assert out == ('{"distinct_profiles": 5, "instances": {"2chain/equal": 6, '
                   '"2chain/independent": 36, "2chain/reversed": 6, '
                   '"3chain/between-reversed": 24, "3chain/within-reversed": 24}}\n')


@pytest.mark.parametrize("lat, orders, size, seed, codes, shas", [
    ("chain3.lat", "0:E,E:1", 20, 7, (0, 0, 0), (
        "b4169b9a75fc8985e825edbf93bcc351fb1cce6f03477edf7265d0a01e03111c",
        "c3a4ea2ee288da7ca083a07b2bd2e9b36db9472845fc0c662b0a45047d2038e3",
        "b8607561a56749f11ba3482705a8b3b9af16c6672f2c238e0205e71c0f50df27")),
    # unsaturated at this size: missing pairs, patterns and hom failures
    ("b2.lat", "a:1,b:1", 14, 3, (0, 1, 1), (
        "fd4376fd6481ef8d215696993353f7fd5ebb15ad5ff3e44d7bd4a74e01940e09",
        "1b7f9836cd5c05bdb498bacade589c6608cfe7e6153cde59b57c1f4b44b59f56",
        "e72a3c289e13ec627bc9b1bc304dae7a83371ff9c7cab23c925e64b8085d6351")),
])
def test_gen_and_check_json_match_golden_digests(fixtures, capsys, monkeypatch, lat, orders,
                                                 size, seed, codes, shas):
    # pins the saturation block of gen and both check reports, samples included
    monkeypatch.chdir(fixtures)   # gen --json names its --out path
    runs = [["gen", "--lattice", lat, "--orders", orders, "--size", size, "--depth", 3,
             "--seed", seed, "--out", "g.struct", "--json"],
            ["check", "ext", "--in", "g.struct", "--k", 3, "--json"],
            ["check", "hom", "--in", "g.struct", "--k", 3, "--json"]]
    results = [run(argv, capsys) for argv in runs]
    assert tuple(code for code, _ in results) == codes
    assert tuple(hashlib.sha256(out.encode()).hexdigest() for _, out in results) == shas
    for argv, code, sha in OTHER_DEPTHS.get(lat, ()):
        got, out = run(argv, capsys)
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, sha)


# check reports at other depths on the same structure, where the per-form
# tallies run over subsets of other sizes: (argv, exit code, SHA-256)
OTHER_DEPTHS = {"b2.lat": [
    (["check", "ext", "--in", "g.struct", "--k", 2, "--json"], 0,
     "890374e70b17db175c2f91e96ff25ebe95244c280c20d5234e7b4821a166d77e"),
    (["check", "hom", "--in", "g.struct", "--k", 4, "--json"], 1,
     "d8da2ea9f3d508ebc0f542c2bba790097acd3e4b6ae6bd7ddc3300497faa39e6"),
]}


_NO_TYPES = '{"distinct_types": 0, "k": 3, "profile": {}}\n'


def _one_relation(blocks, convex, N):
    return ('{"distributive": true, "lattice_hasse": [], "relation_count": 1, "relations": '
            f'[{{"blocks": {blocks}, "convex_in_orders": {convex}, "meet_irreducible": false, '
            f'"name": "R0", "vectors": []}}], "sample_size": {N}}}\n')


def _two_relations(convex, vectors):
    return ('{"distributive": true, "lattice_hasse": [["R0", "R1"]], "relation_count": 2, '
            f'"relations": [{{"blocks": 2, "convex_in_orders": {convex}, '
            '"meet_irreducible": true, "name": "R0", "vectors": []}, '
            f'{{"blocks": 1, "convex_in_orders": {convex}, "meet_irreducible": false, '
            f'"name": "R1", "vectors": {vectors}}}], "sample_size": 2}}\n')


@pytest.mark.parametrize("text, decode_out, profile_out", [
    ("0 0\n", _one_relation(0, [], 0), _NO_TYPES),
    ("1 0\n", _one_relation(0, [0], 0), _NO_TYPES),
    ("2 1\np 0 0\n", _one_relation(1, [0, 1], 1), _NO_TYPES),
    ("0 2\np\nq\n", _two_relations([], [[]]), _NO_TYPES),   # no orders: one vector, ()
    ("1 2\np 1\nq 0\n", _two_relations([0], [[0], [1]]), _NO_TYPES),
    # nine orders: two-byte digits in the orientation rows; SHA-256 of the output
    ("9 4\nx0 2 2 1 0 2 1 1 3 0\nx1 0 0 2 1 1 3 3 0 2\n"
     "x2 3 1 3 2 3 0 0 1 3\nx3 1 3 0 3 0 2 2 2 1\n",
     "b9c82c998d3b8d66960ed7c7afb7fdbf03d343eb47a657a6ed4cdd28ea9baf56",
     "5244ec8ca6f0b9cd0037a0f6076465cc48d7a9e7afd10f5935580a6d0af9d828"),
])
def test_degenerate_perm_files_decode_and_profile_as_pinned(tmp_path, capsys, text,
                                                            decode_out, profile_out):
    perm = tmp_path / "f.perm"
    perm.write_text(text)
    for argv, want in ((["decode", "--in", perm, "--json"], decode_out),
                       (["profile", "--in", perm, "--k", 3, "--json"], profile_out)):
        code, out = run(argv, capsys)
        assert code == 0
        assert out == want or hashlib.sha256(out.encode()).hexdigest() == want


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_reader_closing_stdout_early_is_a_quiet_exit_1(fixtures, unbuffered):
    # `permlat check ext ... --json | head -c 10`: the write to the closed
    # pipe is refused, and the command exits 1 with nothing on stderr (no
    # uncoded "Broken pipe" error, no traceback from the flush at exit),
    # whether stdout writes at once or only when flushed
    struct = fixtures / "g.struct"
    assert main(["gen", "--lattice", str(fixtures / "chain3.lat"), "--orders", "0:E,E:1",
                 "--size", "10", "--depth", "2", "--seed", "1", "--no-report",
                 "--out", str(struct)]) == 0
    argv = ["check", "ext", "--in", str(struct), "--k", "2", "--json"]
    assert main(argv) == 0   # read to the end, the check passes
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)   # the reader is gone before the command writes
    try:
        result = subprocess.run([sys.executable, "-m", "permlat", *argv],
                                stdout=write, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (1, "")
