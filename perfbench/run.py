#!/usr/bin/env python3
"""Builds and runs the treecache benchmark (see perfbench/README.md).

One workload, one run:
    python3 perfbench/run.py --workload fib-closed --seed 7 --seconds 10 --trace 0
The last stdout line is the result object {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer ledger with
--trace 1. The line before it carries the run's details and provenance.

Every workload, end-to-end and traced, printed as tables:
    python3 perfbench/run.py
The trace decorators' self-test (wrapped runs equal unwrapped ones):
    python3 perfbench/run.py --selftest

Everything is built from source into .bench_build/ (or $CARGO_TARGET_DIR) at
the root of the checkout, and every file the benchmark writes stays there.
Exits non-zero when the build fails or any correctness check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; everything it starts is killed before that.
RUN_BUDGET_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build():
    """Configures and builds the benchmark; returns the binary path."""
    build_dir = os.path.join(build_root(), "perfbench")
    jobs = str(os.cpu_count() or 1)
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(build_root(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs,
              "--target", "perfbench"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT,
                          env=env).returncode != 0:
            raise SystemExit("perfbench: build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def source_provenance():
    """The git commit when there is one, and a digest of src/ always (the
    benchmark may run in a checkout that is not a git repository)."""
    sha = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            sha = got.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def call(args, deadline):
    """Runs the benchmark binary; one still running at `deadline` is killed
    and waited for."""
    try:
        return subprocess.run(args, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: timed out: " + " ".join(args))


def run_one(binary, spec, workload, seed, seconds, trace):
    """One run of one workload; returns (result, detail, exit code)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=build_root())
    try:
        args = [binary, "run", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
                "--tmpdir", tmpdir]
        if workload == "rib-ingest":
            feed = os.path.join(tmpdir, "feed.mrt")
            gen = call([binary, "gen-feed", "--seed", str(seed),
                        "--out", feed], deadline)
            if gen.returncode != 0:
                raise SystemExit("perfbench: feed generation failed")
            args += ["--feed", feed]
        done = call(args, deadline)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit("perfbench: no result from " + " ".join(args))
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    key = "per_layer" if trace else "end_to_end"
    want = [m["name"] for m in spec[key]]
    if list(result["metrics"]) != want:
        raise SystemExit("perfbench: metrics %s differ from BENCHMARK.json %s"
                         % (list(result["metrics"]), want))
    return result, detail, done.returncode


def print_table(title, names, columns):
    """columns: workload -> {metric: {"value", "unit"}}."""
    workloads = list(columns)
    print("\n" + title)
    header = ["metric", "unit"] + workloads
    rows = []
    for name in names:
        unit = next((c[name]["unit"] for c in columns.values() if name in c),
                    "")
        rows.append([name, unit] + ["%.6g" % columns[w][name]["value"]
                                    if name in columns[w] else "-"
                                    for w in workloads])
    widths = [max(len(r[i]) for r in rows + [header])
              for i in range(len(header))]
    for row in [header, ["-" * w for w in widths]] + rows:
        print("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths))
              + " |")


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()

    binary = build()
    if opts.selftest:
        tmpdir = tempfile.mkdtemp(prefix="selftest-", dir=build_root())
        try:
            return subprocess.run([binary, "selftest", "--tmpdir",
                                   tmpdir]).returncode
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)

    provenance = source_provenance()
    if opts.workload:
        result, detail, code = run_one(binary, spec, opts.workload, opts.seed,
                                       opts.seconds, opts.trace)
        detail["provenance"].update(provenance)
        print(json.dumps({"detail": detail}))
        print(json.dumps(result), flush=True)
        return code

    status = 0
    end_to_end, layers = {}, {}
    for workload in names:
        for trace, table in ((0, end_to_end), (1, layers)):
            log("perfbench: %s, trace %d" % (workload, trace))
            result, detail, code = run_one(binary, spec, workload, opts.seed,
                                           opts.seconds, trace)
            table[workload] = result["metrics"]
            if code != 0 or not result["correct"]:
                status = 1
                log("perfbench: %s failed %d of %d runs: %s"
                    % (workload, result["failed"], result["attempted"],
                       detail["failures"]))
    print("provenance: " + json.dumps(dict(detail["provenance"],
                                           **provenance)))
    print_table("End-to-end metrics (medians over runs, tracing off)",
                [m["name"] for m in spec["end_to_end"]], end_to_end)
    print_table("Per-layer metrics (traced runs)",
                [m["name"] for m in spec["per_layer"]], layers)
    return status


if __name__ == "__main__":
    sys.exit(main())
