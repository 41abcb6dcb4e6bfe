"""
Record the stdout digest of every command the benchmark can run.

    python3 perfbench/make_reference.py

Run from the root of a source checkout.  The digests in
``reference.json`` were recorded from the sources of commit c1acdf1;
every later run of the benchmark is compared against them, so record
them again only when a change is meant to alter the output bytes.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import workloads

sys.path.insert(0, "src")

from lensq import cli  # noqa: E402


def main():
    digests = {}
    for label, argv in sorted(workloads.all_commands().items()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        if rc != 0:
            sys.exit(f"{label} exited {rc}")
        digests[label] = hashlib.sha256(out.getvalue().encode()).hexdigest()
        print(label, digests[label], file=sys.stderr)
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps({"stdout_sha256": digests}, indent=1,
                               sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
