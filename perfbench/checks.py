"""
Output checks that do not rely on the recorded digests.

``summarize`` reduces a command's stdout to the facts the traced pass
also produces, so the two passes can be compared.  ``problems`` checks
summaries against answers found another way: the closed-form list of
``expected_for(7,2)``, the fixture tags, the raw basis (its
square-condition elements are the fundamental list), linearity of Euler
characteristic, edge weights and coefficients under scaling, and the
core crossings of the alternating vector.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import lensq

import workloads


def summarize(argv, stdout):
    if argv[0] == "verify":
        return {"passed": stdout.rstrip().endswith("verification passed")}
    payload = json.loads(stdout)["payload"]
    if argv[0] == "enum":
        out = {"fundamental": [[f["vector"], f["euler"], f["orientable"],
                                len(f["components"])]
                               for f in payload["fundamental"]]}
        if "hilbert_basis" in payload:
            out["hilbert_basis"] = payload["hilbert_basis"]
        return out
    return {"euler": payload["euler"],
            "orientable": payload["orientable"],
            "components": [[c["euler"], c["orientable"]]
                           for c in payload["components"]],
            "edge_weights": payload["edge_weights"],
            "coefficients": payload["coefficients"],
            "criterion": payload["haken_fundamental_criterion"]}


def tag_holds(tag, summary, fundamental=None):
    """Whether a fixture tag holds for a classify summary; None when
    the tag states nothing checkable here.  ``fundamental`` answers the
    q-fundamental tags when given."""
    components = [tuple(c) for c in summary["components"]]
    if tag == "haken-criterion":
        return summary["criterion"]
    if tag.startswith("euler="):
        return summary["euler"] == int(tag.split("=")[1])
    if tag == "orientable":
        return summary["orientable"]
    if tag == "non-orientable":
        return not summary["orientable"]
    if tag == "klein-bottle":
        return components == [(0, False)]
    if tag == "torus":
        return components == [(0, True)]
    if fundamental is not None and tag == "q-fundamental":
        return fundamental()
    if fundamental is not None and tag == "not-q-fundamental":
        return not fundamental()
    return None


def _square(v):
    return all(sum(1 for x in v[i:i + 3] if x) <= 1
               for i in range(0, len(v), 3))


def _scaled(m, base, got):
    def times(values):
        return [str(m * Fraction(x)) for x in values]
    return (got["euler"] == m * base["euler"]
            and got["edge_weights"] == {k: m * w for k, w in
                                        base["edge_weights"].items()}
            and got["coefficients"] == {k: times(v) for k, v in
                                        base["coefficients"].items()})


def problems(results):
    """Failed independent checks of one sample, as (label, reason)."""
    by_label = {r["label"]: r["summary"] for r in results
                if r["summary"] is not None}
    bad = []
    for label, summary in by_label.items():
        if label == "enum-7-2":
            expected = lensq.expected_for(7, 2)
            want = [[list(v), *expected.reports[v]]
                    for v in expected.vectors]
            if summary["fundamental"] != want:
                bad.append((label, "differs from expected_for(7,2)"))
        elif label.endswith("-raw"):
            square = [v for v in summary["hilbert_basis"] if _square(v)]
            if sorted(square) != sorted(f[0] for f in summary["fundamental"]):
                bad.append((label, "square part of the raw basis is not "
                                   "the fundamental list"))
            if (label == "enum-5-2-raw"
                    and len(summary["hilbert_basis"]) != 161):
                bad.append((label, "raw basis size is not 161"))
        elif label == "verify-fixtures":
            if not summary["passed"]:
                bad.append((label, "verification failed"))
        elif match := re.fullmatch(r"classify-(\d+)-(\d+)-fixture(\d+)",
                                   label):
            _, tags = workloads.fixture_record(*map(int, match.groups()))
            for tag in tags:
                if tag_holds(tag, summary) is False:
                    bad.append((label, f"fixture tag {tag} fails"))
        elif match := re.fullmatch(r"classify-418-153-x(\d+)", label):
            base = by_label.get("classify-418-153-fixture0")
            if base is None or not _scaled(int(match[1]), base, summary):
                bad.append((label, "not the scaled fixture's classification"))
        elif label.startswith("classify-alt-"):
            # One crossing of each core circle makes a connected
            # one-sided surface: a second component would miss both
            # cores, and only the axis torus does that.
            weights = summary["edge_weights"]
            if (weights["Ev"], weights["Eh"]) != (1, 1) or \
               len(summary["components"]) != 1 or summary["orientable"]:
                bad.append((label, "alternating vector does not cross "
                                   "each core once in one one-sided "
                                   "component"))
    return bad
