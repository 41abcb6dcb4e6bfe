"""
The lensq benchmark.

    python3 perfbench/run.py --workload enum --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  Every sample runs the
workload's ``lensq`` commands (see ``workloads.py``) in a fresh
interpreter with ``src`` on PYTHONPATH, one process and one thread.
Samples repeat until the next one would end after ``--seconds``; at
least two run (one untraced-traced pair with ``--trace 1``).

``--trace 0`` reports the end-to-end metrics: ``setup_s``, the median
time from interpreter start to the end of ``import lensq.cli`` over five
set-up-only starts and every sample; ``wall_s``, the median time of the
workload's commands; and ``peak_rss_mib``, the median peak RSS of a
sample process.  ``--trace 1`` alternates an untraced sample with a
traced one (``traced.py``) and reports the per-layer metrics, medians
over the pairs.  ``--quick`` swaps in tiny inputs for the benchmark's
own test.

Every command's stdout is compared with its digest in
``reference.json`` and checked by ``checks.py``; the traced pass must
agree with the untraced one.  A command that exits non-zero (3 is the
budget-exceeded code) or fails a check counts in ``failed``.  The last
line of stdout is the JSON result; metric names and units come from
``BENCHMARK.json``.  Details and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_STARTS = 5
RUN_LIMIT_S = 170.0


class RunFailed(Exception):
    """The run cannot produce a result."""


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def git_revision():
    """HEAD of a git checkout in the current directory, read from
    ``.git`` without running git; None elsewhere."""
    head = _read(".git/HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    found = _read(f".git/{ref}")
    if found:
        return found
    for line in (_read(".git/packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Runner:
    def __init__(self, commands, deadline):
        self.commands = commands
        self.deadline = deadline

    def spawn(self, mode):
        """One sample in a fresh interpreter; returns its record."""
        job = json.dumps({"mode": mode, "commands": self.commands})
        env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "sample.py")], input=job,
                capture_output=True, text=True, env=env,
                timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"{mode} sample passed the run's time limit") \
                from exc
        if proc.returncode:
            raise RunFailed(f"{mode} sample exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-2000:]}")
        record = json.loads(proc.stdout)
        record["setup_s"] = record["ready"] - start
        record["elapsed_s"] = time.monotonic() - start
        return record

    def repeat(self, step, seconds, at_least):
        """Call ``step`` at least ``at_least`` times, then until the next
        call would end after ``seconds`` from now.  Returns the results."""
        start = time.monotonic()
        results, durations = [], []
        while True:
            began = time.monotonic()
            results.append(step())
            durations.append(time.monotonic() - began)
            if len(results) >= at_least and (
                    time.monotonic() - start + statistics.median(durations)
                    > seconds):
                return results


def command_failures(sample, reference):
    """Labels of the plain sample's commands that failed."""
    problems = {label for label, _ in sample["problems"]}
    return [c["label"] for c in sample["commands"]
            if c["rc"] != 0 or c["sha256"] != reference.get(c["label"])
            or c["label"] in problems]


def disagreements(plain, traced):
    """Labels whose traced summary differs from the untraced one."""
    want = {c["label"]: c["summary"] for c in plain["commands"]}
    return [c["label"] for c in traced["commands"]
            if c["rc"] != 0 or c["summary"] != want.get(c["label"])]


def wall_seconds(sample):
    return sum(c["seconds"] for c in sample["commands"])


def median_metrics(rows):
    return {name: statistics.median(row[name] for row in rows)
            for name in rows[0]}


def measure(args, commands, reference, log):
    start = time.monotonic()
    runner = Runner(commands, start + RUN_LIMIT_S)
    setups = [runner.spawn("setup")["setup_s"] for _ in range(SETUP_STARTS)]
    remaining = args.seconds - (time.monotonic() - start)
    failed = []
    if not args.trace:
        # Two samples at least: a run of one slow sample is an outlier.
        samples = runner.repeat(lambda: runner.spawn("plain"), remaining, 2)
        for s in samples:
            failed += command_failures(s, reference)
        log["samples"] = samples
        metrics = {
            "setup_s": statistics.median(
                setups + [s["setup_s"] for s in samples]),
            "wall_s": statistics.median(wall_seconds(s) for s in samples),
            "peak_rss_mib": statistics.median(s["rss_mib"] for s in samples),
        }
        return metrics, len(samples) * len(commands), failed

    pairs = runner.repeat(
        lambda: (runner.spawn("plain"), runner.spawn("traced")), remaining, 1)
    rows = []
    for plain, traced in pairs:
        failed += command_failures(plain, reference)
        failed += disagreements(plain, traced)
        rows.append(tracing.layer_metrics(traced["spans"], traced["counts"],
                                          wall_seconds(plain)))
    if any(t["counts"] != pairs[0][1]["counts"] for _, t in pairs):
        failed.append("counts differ between traced samples")
    log["samples"] = [s for pair in pairs for s in pair]
    return median_metrics(rows), 2 * len(pairs) * len(commands), failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM, so a running sample is killed
    # and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("error: terminated"))

    if not Path("src/lensq/cli.py").is_file():
        sys.exit("error: run from the root of a lensq source checkout")
    spec = json.loads(Path("BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    reference = json.loads(
        (HERE / "reference.json").read_text())["stdout_sha256"]
    commands = workloads.commands(args.workload, args.seed, args.quick)
    env = {"revision": git_revision(), "source_sha256": source_digest(),
           "python": platform.python_version(),
           "platform": platform.platform(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "loadavg_at_start": os.getloadavg()}
    log = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "quick": args.quick, "environment": env,
           "commands": [label for label, _ in commands]}

    try:
        values, attempted, failed = measure(args, commands, reference, log)
    except RunFailed as exc:
        sys.exit(f"error: {exc}")
    if set(values) != set(declared):
        sys.exit(f"error: metrics {sorted(values)} do not match "
                 f"BENCHMARK.json {sorted(declared)}")
    env["numpy"] = log["samples"][0]["versions"]["numpy"]

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            + ("-quick" if args.quick else ""))
    for s in log["samples"]:
        spans = s.pop("spans")
        if spans:
            s["spans"] = [{"name": n, "start": a, "end": b, "parent": p,
                           "probe": probe, "covers": covers,
                           "workload": args.workload}
                          for n, a, b, p, probe, covers in spans]
    log["failed"] = failed
    (out_dir / f"{name}.json").write_text(json.dumps(log))

    print(f"lensq benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} samples={len(log['samples'])} "
          f"commands={','.join(log['commands'])}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for metric, value in values.items():
        print(f"  {metric:28s} {value:14.6f} {declared[metric]}")
    for label in failed:
        print(f"  FAILED: {label}")
    print(json.dumps({
        "correct": not failed, "attempted": attempted,
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": declared[m]}
                    for m, v in values.items()}}))


if __name__ == "__main__":
    main()
