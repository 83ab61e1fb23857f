#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run (the result is the last line of stdout):

    python3 hicsbench/run.py --workload <fit|serve|route> --seed <n> --seconds <s> --trace <0|1>

Repeat mode: run one workload k times on seeds n, n+1, ... and print each
metric's median, quartiles and spread (the quartile distance as a share of
the median), checked against the bounds in BENCHMARK.json:

    python3 hicsbench/run.py --repeat <k> --workload <w> [--seed <n>] [--seconds <s>] [--trace <0|1>]

Run from the repository root. The benchmark builds from source with cargo
(offline) into $CARGO_TARGET_DIR, default .bench_build.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One run takes under three minutes; a hung run is killed after this.
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"hicsbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the benchmark binary and returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail("the repository's crates/ are missing; run from a full checkout")
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "hicsbench")


def run_once(binary, args, capture):
    """Runs the binary from the repository root; returns (code, stdout)."""
    try:
        proc = subprocess.run(
            [binary] + args,
            cwd=ROOT,
            stdout=subprocess.PIPE if capture else None,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, proc.stdout


def option(argv, flag, default):
    if flag in argv:
        i = argv.index(flag)
        if i + 1 >= len(argv):
            fail(f"{flag} needs a value")
        value = argv[i + 1]
        del argv[i:i + 2]
        return value
    return default


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}
    except (OSError, ValueError, KeyError):
        return {}


def repeat(binary, argv):
    k = int(option(argv, "--repeat", "0"))
    workload = option(argv, "--workload", None)
    if k < 1 or workload is None:
        fail("--repeat needs a count of at least 1 and --workload")
    seed = int(option(argv, "--seed", "1"))
    seconds = option(argv, "--seconds", "10")
    trace = option(argv, "--trace", "0")
    values = {}
    units = {}
    for i in range(k):
        args = ["--workload", workload, "--seed", str(seed + i),
                "--seconds", seconds, "--trace", trace]
        code, out = run_once(binary, args, capture=True)
        last = out.strip().splitlines()[-1] if out.strip() else ""
        if code != 0 or not last.startswith("{"):
            fail(f"run {i + 1} (seed {seed + i}) failed with code {code}")
        result = json.loads(last)
        if not result["correct"] or result["failed"]:
            fail(f"run {i + 1} (seed {seed + i}) was not correct: {last}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"run {i + 1}/{k} seed {seed + i}: "
              + ", ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
              file=sys.stderr)
    limits = bounds() if trace == "0" else {}
    summary = {}
    print(f"{workload}: {k} runs, seeds {seed}..{seed + k - 1}, {seconds} s each")
    print(f"{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else 0.0
        bound = limits.get(name)
        verdict = ""
        if bound is not None and name != "setup_s":
            verdict = "ok" if spread < bound / 3 else ("within" if spread <= bound else "OVER")
        print(f"{name:<28} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} "
              f"{'' if bound is None else bound:>6} {verdict} {units[name]}")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": round(spread, 4)}
    print(json.dumps({"workload": workload, "runs": k, "seconds": float(seconds),
                      "metrics": summary}))


def main():
    argv = sys.argv[1:]
    binary = build()
    if "--repeat" in argv:
        repeat(binary, argv)
        return
    code, _ = run_once(binary, argv, capture=False)
    sys.exit(code)


if __name__ == "__main__":
    main()
