"""
One benchmark sample, run in a fresh interpreter by ``run.py``.

Reads a job from stdin: ``{"mode": "setup" | "plain" | "traced",
"commands": [[label, argv], ...]}``.  ``plain`` runs each command
through ``lensq.cli.main`` with stdout captured; ``traced`` replays it
through ``traced.run_command``.  Writes one JSON object to stdout: the
monotonic time at which the imports (chiefly ``lensq.cli``) had
finished, the peak RSS of this process, and per command its exit code,
seconds, stdout digest and summary.  The parent runs it with ``src``
on PYTHONPATH.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import lensq.cli

import checks
import traced
from tracing import END, START, Tracer

# Set-up ends here: interpreter start and the imports above.
READY = time.monotonic()


def _plain(label, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = lensq.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
        except Exception:  # a crash fails this command, not the sample
            rc = -1
            traceback.print_exc()
    seconds = time.perf_counter() - start
    text = out.getvalue()
    summary = checks.summarize(argv, text) if rc == 0 else None
    return {"label": label, "rc": rc, "seconds": seconds,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "summary": summary, "stderr": err.getvalue()[-500:]}


def _traced(tr, label, argv):
    start = len(tr.spans)
    try:
        summary = traced.run_command(tr, argv)
        rc, err = 0, ""
    except Exception:  # a crash fails this command, not the sample
        summary, rc, err = None, -1, traceback.format_exc()
    root = tr.spans[start]
    return {"label": label, "rc": rc, "seconds": root[END] - root[START],
            "sha256": None, "summary": summary, "stderr": err[-500:]}


def main():
    src = os.path.realpath("src") + os.sep
    if not os.path.realpath(lensq.cli.__file__).startswith(src):
        sys.exit(f"lensq imported from {lensq.cli.__file__}, not {src}")
    job = json.load(sys.stdin)
    out = {"ready": READY, "commands": [], "spans": [], "counts": {}}
    if job["mode"] == "plain":
        out["commands"] = [_plain(label, argv)
                           for label, argv in job["commands"]]
    elif job["mode"] == "traced":
        tr = Tracer()
        out["commands"] = [_traced(tr, label, argv)
                           for label, argv in job["commands"]]
        out["spans"], out["counts"] = tr.spans, tr.counts
    out["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if job["mode"] == "plain":
        out["problems"] = checks.problems(out["commands"])
    out["versions"] = {"python": sys.version.split()[0],
                       "numpy": sys.modules["numpy"].__version__}
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
