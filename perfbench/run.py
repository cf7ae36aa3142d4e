#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Run from the repository root:

  python3 perfbench/run.py --workload cli_4k --seed 1 --seconds 10 --trace 0
      One run. Prints the binary's report lines, then as the last line the
      JSON result. The exit code is non-zero if any output check failed or
      the result does not carry exactly the metrics BENCHMARK.json lists.

  python3 perfbench/run.py --steadiness [--runs 10] [--workloads a,b] [--first-seed 1]
      Runs every workload once per seed and reports, for each end-to-end
      metric, the spread (q3 - q1) / median of the per-run values against
      the metric's bound in BENCHMARK.json. Exits non-zero if a spread
      exceeds its bound.

  python3 perfbench/run.py --determinism --seed N [--workloads a,b]
      Runs every workload twice with one seed, traced and untraced, and
      checks that every simulated metric and count reads the same, digit
      for digit.

The binary is built with `cargo build --release` into $CARGO_TARGET_DIR
(default .bench_build). Traced runs write their spans as JSON lines under
<target dir>/perfbench-traces/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SPEC = REPO / "BENCHMARK.json"


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return target_dir() / "release" / "perfbench"


def revision():
    """The git commit, or outside git a digest of the sources built."""
    try:
        out = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    skip = {".git", "target", ".bench_build"}
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "shims", "perfbench"]:
        base = REPO / top
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*")
            if p.is_file() and not skip.intersection(p.relative_to(REPO).parts))
        for p in files:
            h.update(str(p.relative_to(REPO)).encode())
            h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def spec():
    with open(SPEC) as f:
        return json.load(f)


def run_once(bench, workload, seed, seconds, trace, echo=True):
    """Runs the binary once; returns (exit code, stdout lines)."""
    work = target_dir() / "perfbench-work"
    traces = target_dir() / "perfbench-traces"
    traces.mkdir(parents=True, exist_ok=True)
    binary, rev = bench
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work), "--revision", rev]
    if trace:
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.jsonl")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    lines = []
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            if echo:
                print(line, end="", flush=True)
    finally:
        proc.stdout.close()
        code = proc.wait()
    return code, lines


def result_of(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def check_names(result, trace):
    """The result must carry exactly the metrics BENCHMARK.json lists."""
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec()[key]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return f"metrics differ from BENCHMARK.json {key}: missing {missing}, extra {extra}, unit {units}"
    return None


def sim_lines(lines):
    """Report lines of simulated metrics and counts: name -> value text."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 5 and parts[0] == "metric" and parts[4] == "sim":
            out[parts[1]] = parts[2]
    return out


def steadiness(bench, args):
    s = spec()
    workloads = args.workloads or [w["name"] for w in s["workloads"]]
    bad = []
    for w in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            code, lines = run_once(bench, w, seed, s["run_seconds"], 0, echo=False)
            res = result_of(lines)
            if code != 0 or res is None or not res["correct"]:
                sys.exit(f"perfbench: {w} seed {seed} failed (exit {code})")
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        for m in s["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            ok = spread <= m["bound"]
            verdict = "ok" if spread < m["bound"] / 3 else ("within bound" if ok else "OVER BOUND")
            print(f"steadiness {w} {m['name']}: n={len(v)} median={med:.6g} "
                  f"q1={q1:.6g} q3={q3:.6g} spread={spread:.4f} bound={m['bound']} {verdict}",
                  flush=True)
            if not ok:
                bad.append(f"{w}/{m['name']}")
    if bad:
        sys.exit("perfbench: spread over bound: " + ", ".join(bad))


def determinism(bench, args):
    s = spec()
    workloads = args.workloads or [w["name"] for w in s["workloads"]]
    bad = []
    for w in workloads:
        for trace in (0, 1):
            runs = []
            for _ in range(2):
                code, lines = run_once(bench, w, args.seed, s["run_seconds"], trace, echo=False)
                if code != 0:
                    sys.exit(f"perfbench: {w} seed {args.seed} trace {trace} failed (exit {code})")
                runs.append(sim_lines(lines))
            same = runs[0] == runs[1]
            diff = sorted(k for k in runs[0].keys() | runs[1].keys()
                          if runs[0].get(k) != runs[1].get(k))
            print(f"determinism {w} seed {args.seed} trace {trace}: {len(runs[0])} simulated "
                  f"metrics {'identical' if same else 'DIFFER: ' + ', '.join(diff)}", flush=True)
            if not same:
                bad.append(f"{w}/trace{trace}")
    if bad:
        sys.exit("perfbench: simulated metrics differ between runs: " + ", ".join(bad))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--determinism", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", type=lambda s: s.split(","))
    args = p.parse_args()
    if not SPEC.is_file():
        sys.exit("perfbench: run from a checkout that holds BENCHMARK.json")
    bench = (build(), revision())
    if args.steadiness:
        return steadiness(bench, args)
    if args.determinism:
        if args.seed is None:
            sys.exit("perfbench: --determinism needs --seed")
        return determinism(bench, args)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        sys.exit("perfbench: --workload, --seed, --seconds and --trace are required")
    code, lines = run_once(bench, args.workload, args.seed, args.seconds, args.trace)
    res = result_of(lines)
    if res is None:
        sys.exit(code or 1)
    problem = check_names(res, args.trace)
    if problem:
        sys.exit("perfbench: " + problem)
    sys.exit(code)


if __name__ == "__main__":
    main()
