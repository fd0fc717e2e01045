#!/usr/bin/env python3
"""Rewrite ``reference.json``: the output digests and counts every benchmark
run is checked against.

    python3 perfbench/make_reference.py

The reference is the byte-identity promise for ``.struct``/``.perm``
artifacts, so rewrite it only when a change is meant to alter program
output, and say so. Every semantic check still runs while the reference is
made; the script refuses to write it if one fails.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import OUT, SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    os.environ["PERMLAT_THREADS"] = "1"
    import workloads

    checks = workloads.Checks()
    OUT.mkdir(exist_ok=True)
    table = {}
    for name, workload in workloads.WORKLOADS.items():
        tmp = Path(tempfile.mkdtemp(prefix=f"ref-{name}-", dir=OUT))
        try:
            table[name] = workload.reference(tmp, checks)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        print(f"{name}: {len(table[name])} entries", flush=True)
    if checks.failed:
        for failure in checks.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        return 1
    workloads.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE} ({checks.attempted} checks passed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
