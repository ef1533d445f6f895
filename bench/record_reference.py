#!/usr/bin/env python3
"""Record bench/reference.json from the program as it stands.

    python3 bench/record_reference.py

For the default seed (0) it stores the SHA-256 digest of every exact output
of the first REFERENCE_CORPUS_PASSES exact-corpus passes and of the ladder,
and the numeric statistics of one sum-bounds and one decay-fits pass.  Every
op must pass its closed-form checks while recording.  Re-record only when an
output is meant to change, and say why in the change that does it.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from run import HERE, ROOT, SRC, _pin_threads
from workloads import REL_TOL, WORKLOADS, Context

REFERENCE_CORPUS_PASSES = 10
SEED = 0


def main() -> int:
    _pin_threads()
    sys.path.insert(0, SRC)
    reference: dict = {"seed": SEED, "rel_tol": REL_TOL}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_rec") as tmp:
        for wl in WORKLOADS.values():
            ctx = Context(wl.modules, reference, tmp, record=True)
            passes = wl.passes(ctx, SEED)
            count = REFERENCE_CORPUS_PASSES if wl.name == "exact-corpus" else 1
            for _ in range(count):
                for op in next(passes):
                    outcome = op.check(op.run())
                    if outcome != "ok":
                        print(f"{op.key}: {outcome}", file=sys.stderr)
            print(f"{wl.name}: recorded", file=sys.stderr)
    path = os.path.join(HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}: {len(reference.get('exact', {}))} digests, "
          f"{len(reference.get('numeric', {}))} numeric records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
