#!/usr/bin/env python3
"""ELT-synthesis benchmark: one run of one workload.

    python3 eltbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the release `transform` binary
and the traced-replay tool (`eltbench/trace`) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then:

* `--trace 0` runs the workload's `transform synthesize` command as a
  child process, again and again until `--seconds` have passed (at least
  once), and reports the medians of its wall-clock time, CPU time and peak
  RSS, plus the median time of the workload's untimed set-up;
* `--trace 1` runs the traced in-process replay once and reports its
  per-layer metrics.

Every `--out` listing is checked against the reference in
`workloads.json`, which both the sequential explicit engine and the
relational backend produced byte for byte. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The synthesis
problems are fixed; the seed only decides which of the traced run's two
replays (spans on, spans off) goes first.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Warm-up runs in set-up; set-up time is their median.
SETUP_RUNS = 5


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build(root):
    """Builds both binaries; returns (transform, eltbench-trace) paths."""
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for extra in (["-p", "transform-cli"], ["--manifest-path", "eltbench/trace/Cargo.toml"]):
        cmd = ["cargo", "build", "--release", "--offline", "-q", *extra]
        subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, check=True)
    release = os.path.join(target, "release")
    return os.path.join(release, "transform"), os.path.join(release, "eltbench-trace")


def flag_value(args, flag):
    return args[args.index(flag) + 1]


def with_bound(args, bound):
    out = list(args)
    out[out.index("--bound") + 1] = str(bound)
    return out


def run_cli(transform, args, out, log):
    """Runs `transform synthesize ARGS --out OUT`; returns (wall s, cpu s, peak RSS MiB, exit code)."""
    if os.path.exists(out):
        os.remove(out)  # a run that writes nothing must not pass on an older listing
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [transform, "synthesize", *args, "--out", out], stdout=subprocess.DEVNULL, stderr=err
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def listing_error(data, ref):
    """Why the listing `data` differs from the reference, or None."""
    counts = dict.fromkeys(ref["elts"], 0)
    for axiom in re.findall(rb'^elt "(.+)_\d+" \{$', data, re.M):
        counts[axiom.decode()] = counts.get(axiom.decode(), 0) + 1
    if counts != ref["elts"]:
        return f"per-axiom ELT counts {counts} differ from the reference {ref['elts']}"
    if hashlib.sha256(data).hexdigest() != ref["sha256"]:
        return "listing digest differs from the reference"
    return None


class Tally:
    """Counts checked runs and reports failures on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, what, code, out, ref):
        self.attempted += 1
        if code != 0:
            error = f"exit code {code}"
        elif not os.path.exists(out):
            error = "no listing written"
        else:
            with open(out, "rb") as f:
                error = listing_error(f.read(), ref)
        if error:
            self.failed += 1
            print(f"FAILED {what}: {error}", file=sys.stderr)


def seal_store(transform, workload, work, tally):
    """Set-up of a `sealed` workload: the cold run that seals its store."""
    store = os.path.join(work, "sealed")
    out = os.path.join(work, "seal.txt")
    wall, _, _, code = run_cli(
        transform, [*workload["args"], "--cache", store], out, os.path.join(work, "log")
    )
    tally.check("sealing run", code, out, workload["ref"])
    return store, wall


def untraced(workload, seconds, transform, work):
    tally = Tally()
    log = os.path.join(work, "log")
    out = os.path.join(work, "out.txt")
    cache = workload["cache"]
    if cache == "sealed":
        pristine, setup_wall = seal_store(transform, workload, work, tally)
        setup = [setup_wall]
    else:
        # Warm-up runs of the workload's command at the warm-up bound.
        setup = []
        args = with_bound(workload["args"], workload["warmup_bound"])
        for i in range(SETUP_RUNS):
            extra = ["--cache", os.path.join(work, f"warmup{i}")] if cache == "fresh" else []
            wall, _, _, code = run_cli(transform, [*args, *extra], out, log)
            tally.check(f"warm-up {i}", code, out, workload["warmup_ref"])
            setup.append(wall)

    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        sample_cache = os.path.join(work, "cache")
        extra = []
        if cache == "fresh":
            extra = ["--cache", sample_cache]
        elif cache == "sealed":
            # Every run records a journal in the store, which would make
            # later samples slower; each sample starts from the sealed state.
            shutil.copytree(pristine, sample_cache)
            extra = ["--cache", sample_cache]
        wall, cpu, rss, code = run_cli(transform, [*workload["args"], *extra], out, log)
        tally.check(f"sample {len(samples)}", code, out, workload["ref"])
        samples.append((wall, cpu, rss))
        shutil.rmtree(sample_cache, ignore_errors=True)

    walls, cpus, rsss = zip(*samples)
    return tally, {"wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rsss, "setup_s": setup}


def traced(name, workload, seed, transform, tracer, work, root):
    tally = Tally()
    args = workload["args"]
    spans_dir = os.path.join(root, ".eltbench_work")
    cmd = [
        tracer,
        "--workload", name,
        "--bound", flag_value(args, "--bound"),
        "--jobs", flag_value(args, "--jobs"),
        "--backend", flag_value(args, "--backend") if "--backend" in args else "explicit",
        "--seed", str(seed),
        "--spans-out", os.path.join(spans_dir, f"spans-{name}-{seed}.json"),
        "--listing-out", os.path.join(work, "replay.txt"),
    ]  # fmt: skip
    if workload["cache"] == "sealed":
        store, _ = seal_store(transform, workload, work, tally)
        cmd += ["--read", store]
    elif workload["cache"] == "fresh":
        cmd += ["--seal", os.path.join(work, "replay-stores")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    tally.check("traced replay", proc.returncode, os.path.join(work, "replay.txt"), workload["ref"])
    if proc.returncode != 0:
        return tally, {}
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not report["counts_repeat"]:
        tally.failed += 1
        print(f"FAILED counts differ between the two replays: {report['mismatches']}", file=sys.stderr)
    return tally, report["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    opts = parser.parse_args()

    root = os.getcwd()
    spec = load_json(os.path.join(root, "BENCHMARK.json"))
    workloads = load_json(os.path.join(HERE, "workloads.json"))
    if opts.workload not in workloads["workloads"]:
        sys.exit(f"unknown workload `{opts.workload}`; known: {', '.join(workloads['workloads'])}")
    workload = dict(workloads["workloads"][opts.workload])
    workload["ref"] = workloads["references"][flag_value(workload["args"], "--bound")]
    if "warmup_bound" in workload:
        workload["warmup_ref"] = workloads["references"][str(workload["warmup_bound"])]

    transform, tracer = build(root)
    work = os.path.join(root, ".eltbench_work", f"{opts.workload}-{opts.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if opts.trace:
            tally, measured = traced(opts.workload, workload, opts.seed, transform, tracer, work, root)
            declared = spec["per_layer"]
            for extra in sorted(set(measured) - {m["name"] for m in declared}):
                print(f"note: `{extra}` is measured but not declared in BENCHMARK.json", file=sys.stderr)
            metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}
        else:
            tally, values = untraced(workload, opts.seconds, transform, work)
            metrics = {}
            for m in spec["end_to_end"]:
                v = values[m["name"]]
                q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
                print(
                    f"{m['name']}: median {q[1]:.6g} {m['unit']} (q1 {q[0]:.6g}, q3 {q[2]:.6g}, n={len(v)})",
                    file=sys.stderr,
                )
                metrics[m["name"]] = {"value": statistics.median(v), "unit": m["unit"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
