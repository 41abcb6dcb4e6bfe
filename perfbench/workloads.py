"""
Inputs of the benchmark workloads, as ``lensq`` command lines.

Each workload is a list of (label, argv) commands.  A label names the
exact input, so the reference stdout digest of every command can be
looked up by label in ``reference.json``.

Why each input was chosen:

- ``enum``: the paper's main computation, the square-condition
  fundamental list, at (7,2) and (8,3).  About 90% of it is exact
  kernels of the 3^p pattern submatrices, so it moves with the kernel,
  the ray and the pattern-search code.  (7,2) has a closed-form answer;
  (8,3) has none, and the two together even out the spread of (7,2)
  alone.  (9,2) takes about 50 s and is too long to repeat.
- ``classify-large``: the fixture check and three large surfaces: the
  1254-entry (418,153) worked example, that vector scaled by a seeded
  multiplier near 32 (many disks, same p), and the alternating vector
  at a seeded even p near 1000 (large p, few disks per tetrahedron).
  Disk count and p are separate costs of the surface layer, so each
  shows on its own input.  The windows are narrow so every seed does
  about the same work.
- ``raw-hilbert``: the full (5,2) Hilbert basis (161 elements), one
  wide 15-column completion, where the domination test dominates.  The
  enumeration runs the same completion on small pattern cones, so a
  change to the completion shows here and a change to the kernel shows
  on ``enum``.  (5,1) takes over 300 s and is left out.

Only ``classify-large`` draws from the seed; the other inputs are fixed.
"""

from __future__ import annotations

import random
from math import gcd

WORKLOADS = ("enum", "classify-large", "raw-hilbert")

FIXTURE_FILE = "src/lensq/data/fixtures.txt"

# Seeded windows of classify-large.  reference.json holds a digest for
# every input they can produce.
ALT_P = (996, 998, 1000, 1002, 1004)
ALT_Q = (3, 5, 7, 9, 11, 13)
SCALE = (31, 32, 33)


def alt_qs(p: int):
    return tuple(q for q in ALT_Q if gcd(p, q) == 1)


def alternating_vector(p: int):
    """Blocks alternate one type-3 and one type-2 quad, starting with
    type 3; it solves the matching equations of every (p,q) with even
    p (``lensq.alternating_vector(p, 3)``)."""
    out = []
    for i in range(p):
        out.extend((0, 0, 1) if i % 2 == 0 else (0, 1, 0))
    return out


def fixture_record(p: int, q: int, index: int = 0):
    """(entries, tags) of the index-th fixture record for (p,q)."""
    found = []
    with open(FIXTURE_FILE, encoding="utf-8") as handle:
        for line in handle:
            fields = line.split()
            if fields and fields[:2] == [str(p), str(q)]:
                found.append(([int(x) for x in fields[2].split(",")],
                              fields[3].split(",")))
    return found[index]


def _enum(p, q, raw=False):
    argv = ["enum", "--p", str(p), "--q", str(q), "--format", "json"]
    if raw:
        argv.append("--raw-hilbert")
    return (f"enum-{p}-{q}" + ("-raw" if raw else ""), argv)


def _classify(label, p, q, vector):
    return (label, ["classify", "--p", str(p), "--q", str(q),
                    "--format", "json", "--vector", vector])


def classify_fixture(p, q, index=0):
    return (f"classify-{p}-{q}-fixture{index}",
            ["classify", "--p", str(p), "--q", str(q), "--format", "json",
             "--vector", "@" + FIXTURE_FILE, "--index", str(index)])


def scaled_fixture(m):
    vector = ",".join(str(m * x) for x in fixture_record(418, 153)[0])
    return _classify(f"classify-418-153-x{m}", 418, 153, vector)


def alternating(p, q):
    vector = ",".join(map(str, alternating_vector(p)))
    return _classify(f"classify-alt-{p}-{q}", p, q, vector)


def commands(workload: str, seed: int, quick: bool = False):
    """The (label, argv) list of one workload sample."""
    if workload == "enum":
        return [_enum(5, 2)] if quick else [_enum(7, 2), _enum(8, 3)]
    if workload == "raw-hilbert":
        return [_enum(4, 1, raw=True)] if quick else [_enum(5, 2, raw=True)]
    if workload == "classify-large":
        if quick:
            return [classify_fixture(8, 3)]
        rng = random.Random(seed)
        p = rng.choice(ALT_P)
        q = rng.choice(alt_qs(p))
        m = rng.choice(SCALE)
        return [("verify-fixtures", ["verify", "--fixtures"]),
                classify_fixture(418, 153),
                scaled_fixture(m),
                alternating(p, q)]
    raise ValueError(f"unknown workload {workload!r}")


def all_commands():
    """Every command any seed or the quick mode can produce."""
    out = {}
    for workload in WORKLOADS:
        for label, argv in commands(workload, 0) + commands(workload, 0,
                                                            quick=True):
            out[label] = argv
    out.update(scaled_fixture(m) for m in SCALE)
    out.update(alternating(p, q) for p in ALT_P for q in alt_qs(p))
    return out
