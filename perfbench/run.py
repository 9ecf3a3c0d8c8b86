#!/usr/bin/env python3
"""Build and run the fetchvp benchmark, compare its reports, self-test it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload figures_inmem --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py compare OLD NEW     # report files or directories
    python3 perfbench/run.py self-test           # smoke-size run of every metric

A run builds the `fetchvp` CLI and the benchmark package (release, into
$CARGO_TARGET_DIR, default `.bench_build`), runs one workload, writes a
report under `.bench_work/reports/`, and prints one JSON result object as
the last line of standard output. Build output goes to standard error.
See perfbench/README.md.
"""

import glob
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["figures_inmem", "serve_mix"]
WORK = os.path.join(ROOT, ".bench_work")
# Environment fields that name the code under test: a comparison varies
# them, so they never make two reports incomparable.
CODE_IDENTITY = {"git_commit", "source_digest"}
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the CLI and the benchmark; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "fetchvp-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "fetchvp-cli"), os.path.join(release, "fetchvp-perfbench")


def output_of(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for pattern in ("crates/**/*.rs", "crates/**/Cargo.toml", "perfbench/src/*.rs", "perfbench/Cargo.toml"):
        paths += glob.glob(os.path.join(ROOT, pattern), recursive=True)
    for path in sorted(set(paths)):
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def environment_args():
    pairs = {
        "git_commit": output_of(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest(),
        "rustc": output_of(["rustc", "--version"]),
        "profile": "release",
    }
    args = []
    for key, value in pairs.items():
        args += ["--env", f"{key}={value}"]
    return args


def report_path(workload, seed, trace):
    return os.path.join(WORK, "reports", f"{workload}-s{seed}-t{trace}.json")


def run_workload(argv):
    opts = {"--workload": None, "--seed": None, "--seconds": None, "--trace": "0"}
    it = iter(argv)
    for flag in it:
        if flag not in opts:
            fail(f"unknown argument `{flag}`\n{__doc__}", 2)
        value = next(it, None)
        if value is None:
            fail(f"{flag} needs a value", 2)
        opts[flag] = value
    if None in opts.values():
        fail(f"--workload, --seed and --seconds are required\n{__doc__}", 2)
    if opts["--workload"] not in WORKLOADS:
        fail(f"unknown workload `{opts['--workload']}` (one of {', '.join(WORKLOADS)})", 2)
    cli, bench = build()
    cmd = [
        bench,
        "--workload", opts["--workload"],
        "--seed", opts["--seed"],
        "--seconds", opts["--seconds"],
        "--trace", opts["--trace"],
        "--work", WORK,
        "--cli", cli,
        "--report", report_path(opts["--workload"], opts["--seed"], opts["--trace"]),
    ] + environment_args()
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


def load_reports(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    if not files:
        fail(f"no reports in {path}", 2)
    reports = []
    for f in files:
        with open(f) as fh:
            reports.append(json.load(fh))
    return reports


def bench_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def comparable(a, b):
    """The first environment field (other than code identity) that differs."""
    for key in sorted(set(a) | set(b)):
        if key in CODE_IDENTITY:
            continue
        if a.get(key) != b.get(key):
            return key, a.get(key), b.get(key)
    return None


def compare(old_path, new_path):
    old, new = load_reports(old_path), load_reports(new_path)
    key = lambda r: (r["env"]["workload"], r["env"]["traced"], r["env"]["seed"])
    old_by, new_by = {key(r): r for r in old}, {key(r): r for r in new}
    if set(old_by) != set(new_by):
        fail("refusing to compare: the two sides ran different (workload, traced, seed) sets", 2)
    for k in sorted(old_by):
        diff = comparable(old_by[k]["env"], new_by[k]["env"])
        if diff:
            field, a, b = diff
            fail(f"refusing to compare {k[0]} seed {k[2]}: environment field `{field}` differs "
                 f"({json.dumps(a)} vs {json.dumps(b)})", 2)
    bounds = bench_bounds()
    regressions = 0
    for workload in sorted({k[0] for k in old_by}):
        keys = [k for k in sorted(old_by) if k[0] == workload and not k[1]]
        if not keys:
            continue
        print(f"== {workload} ({len(keys)} seed(s))")
        same = all(old_by[k]["sim_digest"] == new_by[k]["sim_digest"] for k in keys)
        print(f"   sim_digest: {'identical' if same else 'DIFFERS'}")
        for name, spec in bounds.items():
            a = [old_by[k]["metrics"][name]["value"] for k in keys]
            b = [new_by[k]["metrics"][name]["value"] for k in keys]
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else math.inf
            worse = change if spec["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > spec["bound"] else "ok"
            regressions += verdict != "ok"
            print(f"   {name:14s} {ma:12.4f} -> {mb:12.4f} {spec['unit']:4s} {change:+8.2%}  "
                  f"(bound {spec['bound']:.0%}) {verdict}")
    return 1 if regressions else 0


def self_test():
    """Smoke-size runs: every named metric is emitted, with its unit and a
    well-formed name, the result line has exactly the contract's keys, and
    traced runs cover at least 90% of their wall time with top-level spans."""
    cli, bench = build()
    catalog = json.loads(subprocess.run([bench, "--catalog"], capture_output=True, text=True, check=True).stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        if declared != catalog[section]:
            problems.append(f"BENCHMARK.json {section} does not match the benchmark's catalog")
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            cmd = [bench, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace,
                   "--smoke", "--work", os.path.join(WORK, "self-test"), "--cli", cli]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr.strip()[-400:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expected = catalog["per_layer" if trace == "1" else "end_to_end"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
                problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
            metrics = result.get("metrics", {})
            if set(metrics) != set(expected):
                problems.append(f"{label}: metrics differ from the catalog: "
                                f"{sorted(set(metrics) ^ set(expected))}")
            for name, m in metrics.items():
                if not NAME_RE.match(name) or m.get("unit") != expected.get(name):
                    problems.append(f"{label}: bad metric {name} {m}")
                if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
                    problems.append(f"{label}: {name} is not a finite number")
            if "sim_digest " not in done.stdout:
                problems.append(f"{label}: no sim_digest line")
            if trace == "1" and metrics.get("trace.coverage_frac", {}).get("value", 0) < 0.9:
                problems.append(f"{label}: top-level spans cover less than 90% of the traced wall time")
            print(f"self-test: {label}: {len(metrics)} metrics", file=sys.stderr)
    for p in problems:
        print(f"self-test FAIL: {p}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare OLD NEW", 2)
        return compare(argv[1], argv[2])
    if argv[:1] == ["self-test"]:
        return self_test()
    return run_workload(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
