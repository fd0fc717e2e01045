"""Acceptance suite. Each criterion runs at its stated tolerance and prints
one pass/fail line; run with ``pytest -s tests/test_acceptance.py`` to see
the lines as they complete."""

import itertools
import time
import warnings

from permlat.generic import GenerationConfig, extension_property_check, \
    generate_generic, homogeneity_check
from permlat.lattice import (chain_lattice, distributive_law_holds,
                             enumerate_distributive_lattices, enumerate_lattices,
                             is_distributive, lattices_isomorphic, m3,
                             meet_irreducibles, n5)
from permlat.permstruct import (PermStructure, cameron_enumeration, decode_relations,
                                encode_orders, profile, two_order_catalog_parameters,
                                _linear_ranks)
from permlat.spaces import (amalgam_validity_sweep, amalgamation_failure_probe,
                            equivalences_from_space, space_from_equivalences)
from space_helpers import all_spaces


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _cover_signature(lat):
    mi = meet_irreducibles(lat)
    return [(e, mi.cover[e]) for e in mi.elements]


def test_criterion_1_distributivity_oracle_agreement():
    start = time.monotonic()
    disagreements = []
    count = 0
    for lat in enumerate_lattices(7):
        count += 1
        if bool(is_distributive(lat)) != distributive_law_holds(lat):
            disagreements.append(lat)
    m3_result = is_distributive(m3())
    n5_result = is_distributive(n5())
    witnesses_ok = (not m3_result and m3_result.witness is not None
                    and not n5_result and n5_result.witness is not None)
    elapsed = time.monotonic() - start
    ok = not disagreements and witnesses_ok and elapsed < 10.0
    _report(1, ok, f"{count} lattices <= 7 elements, {len(disagreements)} "
                   f"disagreements with the triple-law oracle, M3/N5 witnessed, "
                   f"{elapsed:.1f}s (< 10s)")


def test_criterion_2_amalgamation_iff_distributive():
    start = time.monotonic()
    failures = []
    instances = 0
    for lat in enumerate_distributive_lattices(6):
        report = amalgam_validity_sweep(lat, max_base=3, max_new=2)
        instances += report.instances
        failures.extend(report.failures)
    m3_fail = amalgamation_failure_probe(m3())
    n5_fail = amalgamation_failure_probe(n5())
    elapsed = time.monotonic() - start
    ok = (not failures and m3_fail is not None and n5_fail is not None
          and elapsed < 300.0)
    _report(2, ok, f"{instances} amalgam instances over 12 distributive lattices "
                   f"all validate; M3 and N5 probes found failing instances; "
                   f"{elapsed:.0f}s (< 300s)")


def test_criterion_3_category_round_trip():
    failures = 0
    checked = 0
    for lat in enumerate_lattices(5):
        for n_points in range(1, 5):
            for s in all_spaces(lat, n_points):
                checked += 1
                if space_from_equivalences(equivalences_from_space(s)) != s:
                    failures += 1
    _report(3, failures == 0,
            f"space<->equivalence-system round trip on {checked} spaces "
            f"(<= 4 points, all lattices <= 5 elements): {failures} failures")


def test_criterion_4_generic_saturation():
    lines = []
    ok = True
    for lat in enumerate_distributive_lattices(5):
        sig = _cover_signature(lat)
        start = time.monotonic()
        cfg = GenerationConfig(seed=11, target_size=40, saturation_depth=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = generate_generic(lat, sig, cfg, with_saturation_report=False)
        sat = extension_property_check(result.structure, 3)
        hom = homogeneity_check(result.structure, 3)
        elapsed = time.monotonic() - start
        good = sat.ratio == 1.0 and hom.pattern_failures == 0 and elapsed < 120.0
        ok = ok and good
        lines.append(f"{lat.n}-element/{len(sig)} orders: ratio {sat.ratio:.3f}, "
                     f"hom failures {hom.pattern_failures}, {elapsed:.0f}s")
    _report(4, ok, "size-40 depth-3 saturation over 7 distributive lattices <= 5 "
                   "elements: " + "; ".join(lines))


def test_criterion_5_encode_decode_round_trip():
    eligible = [lat for lat in enumerate_distributive_lattices(6)
                if len(meet_irreducibles(lat).elements) <= 3]
    instances = 0
    failures = []
    for seed in (1, 2, 3):
        for lat in eligible:
            sig = _cover_signature(lat)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = generate_generic(
                    lat, sig, GenerationConfig(seed=seed, target_size=50,
                                               saturation_depth=3),
                    with_saturation_report=False)
            s = res.structure
            enc = encode_orders(s, seed=seed)
            dec = decode_relations(enc.perm)
            instances += 1
            if not lattices_isomorphic(dec.lattice, lat):
                failures.append((lat.n, seed, "lattice not recovered"))
                continue
            if enc.emitted > enc.bound:
                failures.append((lat.n, seed, "order count exceeds the chain-cover bound"))
            for idx, o in enumerate(s.orders):
                vs = enc.codebook.order_vectors[idx]
                if any(o.less(x, y) != (enc.perm.vector(x, y) in vs)
                       for x, y in itertools.permutations(s.space.points, 2)):
                    failures.append((lat.n, seed, f"order {idx} not recovered"))
    ok = instances >= 20 and not failures
    _report(5, ok, f"{instances} catalog instances (7 lattices x 3 seeds, N=50): "
                   f"exact lattice + order recovery, count within bound; "
                   f"failures: {failures if failures else 'none'}")


def _expected_labeled_types(k: int, n_orders: int) -> set:
    expected = set()
    for arrangements in itertools.product(itertools.permutations(range(k)),
                                          repeat=n_orders):
        key = []
        for u in range(k):
            for v in range(k):
                if u == v:
                    continue
                bits = 0
                for t, arr in enumerate(arrangements):
                    if arr[u] < arr[v]:
                        bits |= 1 << t
                key.append(bits)
        expected.add(tuple(key))
    return expected


def test_criterion_6_primitivity_shadow():
    c2 = chain_lattice(2, ["0", "1"])
    lines = []
    ok = True
    for n_orders in (2, 3):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = generate_generic(
                c2, [("0", "1")] * n_orders,
                GenerationConfig(seed=11, target_size=40, saturation_depth=3),
                with_saturation_report=False)
        s = res.structure
        perm = PermStructure(s.space.points,
                             tuple(_linear_ranks(o) for o in s.orders))
        two_types = set(profile(perm, 2))
        three_types = set(profile(perm, 3))
        dec = decode_relations(perm)
        good = (len(two_types) == 2 ** n_orders
                and three_types == _expected_labeled_types(3, n_orders)
                and len(dec.relations) == 2)
        ok = ok and good
        lines.append(f"{n_orders} orders: {len(two_types)}/{2**n_orders} 2-types, "
                     f"{len(three_types)}/{6**n_orders} 3-types, "
                     f"{len(dec.relations) - 2} nontrivial relations")
    _report(6, ok, "generic size-40 samples: " + "; ".join(lines))


def test_criterion_7_cameron_enumeration():
    start = time.monotonic()
    result = cameron_enumeration(40, seed=11)
    expected = len(two_order_catalog_parameters())
    elapsed = time.monotonic() - start
    ok = result.distinct == expected == 5 and elapsed < 60.0
    _report(7, ok, f"{result.distinct} pairwise-distinct profiles vs {expected} "
                   f"catalog parameters for two orders, {elapsed:.0f}s (< 60s)")


def test_criterion_8_determinism(tmp_path):
    from permlat.cli import main
    from permlat.formats import dump_lattice, load_manifest

    lat_file = tmp_path / "chain3.lat"
    lat_file.write_text(dump_lattice(chain_lattice(3, ["0", "E", "1"])))
    gen_args = ["gen", "--lattice", str(lat_file), "--orders", "0:E,E:1",
                "--size", "25", "--depth", "2", "--seed", "7", "--no-report"]
    a, b = tmp_path / "a.struct", tmp_path / "b.struct"
    assert main(gen_args + ["--out", str(a)]) == 0
    assert main(gen_args + ["--out", str(b)]) == 0
    gen_same = a.read_bytes() == b.read_bytes()
    pa, pb = tmp_path / "a.perm", tmp_path / "b.perm"
    assert main(["encode", "--in", str(a), "--seed", "5", "--out", str(pa)]) == 0
    assert main(["encode", "--in", str(a), "--seed", "5", "--out", str(pb)]) == 0
    enc_same = pa.read_bytes() == pb.read_bytes()
    # re-running the manifest's recorded configuration reproduces the bytes
    manifest = load_manifest(str(a) + ".manifest")
    cfg = manifest["config"]
    c = tmp_path / "c.struct"
    assert main(["gen", "--lattice", cfg["lattice"], "--orders", cfg["orders"],
                 "--size", str(cfg["size"]), "--depth", str(cfg["depth"]),
                 "--seed", str(cfg["seed"]), "--no-report", "--out", str(c)]) == 0
    manifest_same = c.read_bytes() == a.read_bytes()
    ok = gen_same and enc_same and manifest_same
    _report(8, ok, f"gen byte-identical: {gen_same}; encode byte-identical: "
                   f"{enc_same}; manifest re-run byte-identical: {manifest_same}")
