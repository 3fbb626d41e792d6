#!/usr/bin/env python3
"""Regenerates the reference listing of one bound in workloads.json.

    python3 eltbench/make_reference.py BOUND

Run from the repository root. Synthesizes every axiom at BOUND with
`--fences --rmw` twice — on the sequential explicit engine (`--jobs 1`)
and on the relational SAT backend — and records the listing's SHA-256 and
per-axiom ELT counts only when the two `--out` files are identical bytes.
At bound 6 this takes a few minutes.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

import run

ENGINES = {
    "explicit --jobs 1": ["--jobs", "1"],
    "relational --jobs 2": ["--jobs", "2", "--backend", "relational"],
}


def main(argv):
    if len(argv) != 2 or not argv[1].isdigit():
        sys.exit(__doc__)
    bound = argv[1]
    transform, _ = run.build(os.getcwd())
    listings, summaries = {}, {}
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        for engine, flags in ENGINES.items():
            out = os.path.join(tmp, "out.txt")
            cmd = [transform, "synthesize", "--all", "--bound", bound, "--fences", "--rmw", *flags]
            proc = subprocess.run([*cmd, "--out", out], stdout=subprocess.PIPE, text=True, check=True)
            with open(out, "rb") as f:
                listings[engine] = f.read()
            # One summary line per axiom: "suite `A` @ bound N: K ELTs (...".
            summary = re.findall(r"^suite `(.+)` @ bound \d+: (\d+) ELTs", proc.stdout, re.M)
            summaries[engine] = {axiom: int(k) for axiom, k in summary}
    if len(set(listings.values())) != 1 or len({json.dumps(s) for s in summaries.values()}) != 1:
        sys.exit(f"engines disagree at bound {bound}; no reference recorded")
    ref = {
        "sha256": hashlib.sha256(listings["explicit --jobs 1"]).hexdigest(),
        "elts": summaries["explicit --jobs 1"],
    }
    error = run.listing_error(listings["explicit --jobs 1"], ref)
    if error:
        sys.exit(f"the listing disagrees with the per-axiom summaries: {error}")
    path = os.path.join(run.HERE, "workloads.json")
    spec = run.load_json(path)
    spec["references"][bound] = ref
    print(json.dumps(ref))
    with open(path, "w") as f:
        json.dump(spec, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main(sys.argv)
