"""
Spans and counters of the traced pass, and the per-layer metrics
computed from them.

A span is (name, start, end, parent, probe, covers).  ``parent`` is the
index of the enclosing span.  A probe span repeats work that a later
span does again inside the library (for example a kernel that the ray
code recomputes); it times a layer on its own and is left out of the
traced total.  ``covers`` lists the probes whose work a span repeats
inside itself, so its self time is its duration minus its children and
minus those probes.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, PROBE, COVERS = range(6)


class Tracer:
    """Records spans and counts in memory."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    @contextmanager
    def span(self, name, probe=False, covers=()):
        """Time the block; yields the span's index."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, probe,
                  list(covers)]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount


def _duration(span):
    return span[END] - span[START]


def _self_times(spans):
    own = [_duration(s) for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= _duration(s)
    for i, s in enumerate(spans):
        own[i] -= sum(_duration(spans[c]) for c in s[COVERS])
    return own


def traced_seconds(spans):
    """Time of the command spans, without probes."""
    return (sum(_duration(s) for s in spans if s[PARENT] is None)
            - sum(_duration(s) for s in spans if s[PROBE]))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counts, wall_s):
    """Per-layer metrics of one traced sample; ``wall_s`` is the wall
    time of the untraced sample it is paired with.

    ``cli.self_s`` is the time of the command spans outside every
    library call (argument and vector parsing), measured in the traced
    process: the difference of two processes' times would be swamped by
    their run-to-run spread.  ``trace.overhead_s`` is such a difference,
    traced total minus ``wall_s``, and shares that spread."""
    total = defaultdict(float)
    own = defaultdict(float)
    cli_self = 0.0
    for s, self_time in zip(spans, _self_times(spans)):
        total[s[NAME]] += _duration(s)
        own[s[NAME]] += self_time
        if s[PARENT] is None:
            cli_self += self_time
    n = Counter(counts)
    return {
        "triangulation.build_s": total["triangulation.build_triangulation"],
        "qsystem.q_matrix_s": total["qsystem.q_matrix"],
        "qsystem.is_q_solution_s": total["qsystem.is_q_solution"],
        "qsystem.decompose_s": total["qsystem.decompose"],
        "exact.kernel_s": total["exact.kernel_basis"],
        "exact.kernel_calls": n["exact.kernel_calls"],
        "exact.full_rank_frac": _ratio(n["exact.full_rank"],
                                       n["exact.kernel_calls"]),
        "rays.extreme_rays_self_s": own["rays.extreme_rays_of_kernel_cone"],
        "rays.rays_found": n["rays.rays_found"],
        "cone.pattern_hilbert_s": total["cone.hilbert_basis/pattern"],
        "cone.patterns": n["cone.patterns"],
        "cone.nonempty_pattern_frac": _ratio(n["cone.nonempty_patterns"],
                                             n["cone.patterns"]),
        "cone.fundamentals": n["cone.fundamentals"],
        "cone.raw_hilbert_s": total["cone.hilbert_basis/raw"],
        "cone.raw_basis_size": n["cone.raw_basis_size"],
        "cone.is_fundamental_s": total["cone.is_fundamental"],
        "surface.reconstruct_s": total["surface.reconstruct_trigons"],
        "surface.haken_matrix_s": total["surface.haken_matrix"],
        "surface.glue_s": total["surface.glue_disks"],
        "surface.classify_self_s": own["surface.classify"],
        "surface.disks": n["surface.disks"],
        "surface.arcs": n["surface.arcs"],
        "catalog.fixtures_s": total["catalog.fixtures"],
        "cli.self_s": cli_self,
        "trace.overhead_s": traced_seconds(spans) - wall_s,
    }
