#!/usr/bin/env python3
"""Build and run bench_e2e, the end-to-end and per-layer benchmark.

Every workload run is its own bench_e2e process. BENCHMARK.json at the
repository root lists the workloads, the end-to-end metrics with their bounds,
and the per-layer metrics. See README.md next to this file.

One run (prints the driver's metric lines, then one JSON result line):

    python3 bench/e2e/run.py --workload sim-wan-50 --seed 3 --seconds 30 --trace 0

  --trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
  a traced run (spans and 1 Hz registry scrapes go to <build-dir>/traces/).

A set (every workload, --repeat seeds each, medians and quartiles):

    python3 bench/e2e/run.py --repeat 3 --trace --out base.json
    python3 bench/e2e/run.py --smoke              # every duration at 10%

  --trace adds one traced run per workload: its per-layer table, span file
  and obs.trace_overhead_pct (traced minus untraced cpu_us_per_tx).

Compare two sets against the bounds in BENCHMARK.json:

    python3 bench/e2e/run.py --compare base.json candidate.json

The benchmark builds itself into --build-dir (default: $CARGO_TARGET_DIR, else
.bench_build), in a CMake tree of its own under <build-dir>/e2e.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_TIMEOUT_S = 175


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def default_build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def tool_env(build_dir):
    """Keeps compiler and driver temporary files inside the build directory."""
    tmp = (build_dir / "tmp").resolve()
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build(build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    tree = build_dir / "e2e"
    tree.mkdir(parents=True, exist_ok=True)
    env = tool_env(build_dir)
    log_path = build_dir / "e2e-build.log"
    steps = []
    if not any((tree / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(HERE), "-B", str(tree),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(tree), "--target", "bench_e2e", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT, env=env).returncode:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                print(f"run.py: build failed, full log in {log_path}", file=sys.stderr)
                return None
    return tree / "bench_e2e"


def run_driver(binary, build_dir, workload, seed, seconds, scale, trace_path=None,
               echo=True):
    """Runs one workload; returns the driver's JSON result or None."""
    work_dir = build_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--scale", str(scale), "--work-dir", str(work_dir)]
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(trace_path)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=tool_env(build_dir))
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} seed {seed} timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if proc.returncode not in (0, 1) or not lines:
        print(f"run.py: {workload} seed {seed} exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def contract_run(args, bench):
    """One run in the benchmark contract's shape; the result is the last line."""
    build_dir = args.build_dir or default_build_dir()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"run.py: unknown workload {args.workload}", file=sys.stderr)
        return 2
    binary = build(build_dir)
    if binary is None:
        return 3
    trace_path = None
    if args.trace:
        trace_path = (build_dir / "traces" / f"{args.workload}-{args.seed}.json").resolve()
    result = run_driver(binary, build_dir, args.workload, args.seed,
                        args.seconds or bench["run_seconds"], 0.1 if args.smoke else 1,
                        trace_path)
    if result is None:
        return 1
    if result["flags"]:
        print(f"run.py: flags: {', '.join(result['flags'])}", file=sys.stderr)
    section, names = (("per_layer", bench["per_layer"]) if args.trace
                      else ("end_to_end", bench["end_to_end"]))
    metrics = {m["name"]: result[section][m["name"]] for m in names}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def summarize(values):
    values = sorted(values)
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"values": values, "median": med, "q1": q1, "q3": q3}


def spread(summary):
    med = summary["median"]
    return (summary["q3"] - summary["q1"]) / abs(med) if med else 0.0


def run_set(args, bench):
    build_dir = args.build_dir or default_build_dir()
    binary = build(build_dir)
    if binary is None:
        return 3
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    scale = 0.1 if args.smoke else 1
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    out = {"seconds": seconds, "scale": scale, "workloads": {}}
    all_correct = True
    for workload in workloads:
        runs = []
        for i in range(args.repeat):
            seed = args.seed + i
            print(f"== {workload} seed {seed}", flush=True)
            result = run_driver(binary, build_dir, workload, seed, seconds, scale, echo=False)
            if result is None or not result["correct"]:
                all_correct = False
            if result is None:
                continue
            if result["flags"]:
                print(f"   flags: {', '.join(result['flags'])}")
            runs.append(result)
        entry = {"runs": runs, "end_to_end": {}, "info": {}, "per_layer": {}}
        for section in ("end_to_end", "info", "per_layer"):
            names = sorted({n for r in runs for n in r[section]})
            for name in names:
                vals = [r[section][name]["value"] for r in runs if name in r[section]]
                unit = runs[0][section][name]["unit"]
                entry[section][name] = dict(summarize(vals), unit=unit)
        print(f"\n{workload}: {len(runs)} run(s), correct: "
              f"{all(r['correct'] for r in runs) and len(runs) == args.repeat}")
        print(f"  {'metric':<22} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>7}")
        for name in [m["name"] for m in bench["end_to_end"]] + ["failed_pct", "gen.late_p99_ms"]:
            s = (entry["end_to_end"].get(name) or entry["info"].get(name)
                 or entry["per_layer"].get(name))
            if s is None:
                continue
            bound = f"{bounds[name]['bound'] * 100:.1f}%" if name in bounds else "-"
            print(f"  {name:<22} {s['unit']:<6} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {spread(s) * 100:>7.2f}% {bound:>7}")
        if args.trace:
            trace_path = (build_dir / "traces" / f"{workload}-{args.seed}.json").resolve()
            print(f"== {workload} seed {args.seed} traced", flush=True)
            traced = run_driver(binary, build_dir, workload, args.seed, seconds, scale,
                                trace_path, echo=False)
            if traced is None or not traced["correct"]:
                all_correct = False
            if traced is not None:
                layers = {m["name"]: traced["per_layer"][m["name"]] for m in bench["per_layer"]}
                untraced = entry["end_to_end"].get("cpu_us_per_tx", {}).get("median")
                traced_cpu = traced["end_to_end"]["cpu_us_per_tx"]["value"]
                overhead = 100.0 * (traced_cpu - untraced) / untraced if untraced else 0.0
                layers["obs.trace_overhead_pct"] = {"value": overhead, "unit": "%"}
                entry["traced_per_layer"] = layers
                entry["trace_file"] = str(trace_path)
                print(f"  per-layer (traced run, spans in {trace_path}):")
                for name, m in layers.items():
                    print(f"    {name:<32} {m['value']:>14.6g} {m['unit']}")
        out["workloads"][workload] = entry
    out_path = Path(args.out) if args.out else build_dir / "e2e-results.json"
    out_path.write_text(json.dumps(out, indent=1))
    print(f"\nresults: {out_path}")
    return 0 if all_correct else 1


def compare(path_a, path_b, bench):
    """Applies the BENCHMARK.json bounds to set A (base) vs set B (candidate)."""
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    regressions = unresolved = 0
    print(f"{'workload':<20} {'metric':<18} {'base':>11} {'cand':>11} {'change':>8} "
          f"{'spread':>7} {'bound':>7}  verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sa = a.get(workload, {}).get("end_to_end", {}).get(name)
            sb = b.get(workload, {}).get("end_to_end", {}).get(name)
            if sa is None or sb is None:
                print(f"{workload:<20} {name:<18} missing from a set  unresolved")
                unresolved += 1
                continue
            lower = metric["better"] == "lower"
            change = (sb["median"] - sa["median"]) / abs(sa["median"]) if sa["median"] else 0.0
            worse = change if lower else -change
            noise = max(spread(sa), spread(sb))
            b_always_better = (max(sb["values"]) < min(sa["values"]) if lower
                               else min(sb["values"]) > max(sa["values"]))
            if sa["values"] == sb["values"]:
                # Deterministic metrics (sim virtual time) of equal seeds: their
                # spread is between seeds, not between runs of one seed.
                verdict = "identical"
            elif noise > bound and not b_always_better:
                verdict = "unresolved"
                unresolved += 1
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif -worse > bound:
                verdict = "better"
            else:
                verdict = "ok"
            print(f"{workload:<20} {name:<18} {sa['median']:>11.5g} {sb['median']:>11.5g} "
                  f"{change * 100:>7.2f}% {noise * 100:>6.2f}% {bound * 100:>6.1f}%  {verdict}")
    print(f"\n{regressions} regression(s), {unresolved} unresolved")
    return 1 if regressions else (2 if unresolved else 0)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this one workload (contract mode)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured window (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="1 = traced run (per-layer metrics, span file)")
    parser.add_argument("--repeat", type=int, default=1, help="seeds per workload in a set")
    parser.add_argument("--smoke", action="store_true", help="every duration at 10%%")
    parser.add_argument("--build-dir", type=Path)
    parser.add_argument("--out", help="result file of a set")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CANDIDATE"))
    args = parser.parse_args()

    bench = load_benchmark()
    if args.compare:
        return compare(*args.compare, bench)
    if args.workload:
        return contract_run(args, bench)
    return run_set(args, bench)


if __name__ == "__main__":
    sys.exit(main())
