"""Record the benchmark's reference outputs, and measure its spread.

    python3 perfbench/record.py reference
        Run every workload once at the default seed and write the output
        digests to perfbench/reference.json.  Do this only at a commit
        whose outputs are known to be right.

    python3 perfbench/record.py spread --workload extend --seeds 1-10 [--out FILE]
        Run the benchmark once per seed, in a fresh process each, and print
        the median, quartiles and spread (quartile distance over median)
        of every end-to-end metric and of every curated case.  --out also
        stores them under the workload's name in a JSON file.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import run
import workloads


def record_reference() -> None:
    out = {"default_seed": workloads.DEFAULT_SEED, "digests": {}}
    for name in workloads.WORKLOADS:
        with run.scratch_dir() as workdir:
            lib, batch, _ = run.set_up(name, workloads.DEFAULT_SEED, workdir)
            batch.write_files()
            checker = run.Checker(lib, batch, None)
            run.run_pass(lib, batch.tasks, checker)
        if checker.failures:
            raise SystemExit(f"{name}: certificates fail: "
                             f"{checker.failures[:3]}")
        out["digests"][name] = {k: digest for k, (digest, _)
                                in sorted(checker.first.items())}
        print(f"{name}: {len(checker.first)} digests")
    run.REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict, float]:
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
        check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n"
                         + proc.stdout)
    cases = {}
    for line in lines:
        if line.startswith("case "):
            _, task_id, ms, _ = line.split()
            cases[task_id] = float(ms.split("=")[1])
    return ({k: v["value"] for k, v in result["metrics"].items()}, cases,
            perf_counter() - start)


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "runs": len(values)}


def measure_spread(workload: str, seeds: list, out: str | None) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    metrics, cases, walls = {}, {}, []
    for seed in seeds:
        values, case_ms, wall = one_run(workload, seed, spec["run_seconds"])
        walls.append(wall)
        for k, v in values.items():
            metrics.setdefault(k, []).append(v)
        for k, v in case_ms.items():
            cases.setdefault(k, []).append(v)
        print(f"seed {seed}: wall {wall:.1f} s " + " ".join(
            f"{k}={v:.4g}" for k, v in values.items()), flush=True)
    report = {"workload": workload, "seeds": seeds,
              "python": platform.python_version(),
              "run_wall_s": summary(walls),
              "end_to_end": {k: summary(v) for k, v in metrics.items()},
              "cases_ms": {k: summary(v) for k, v in cases.items()}}
    for k, s in report["end_to_end"].items():
        flag = "" if s["spread"] < bounds[k] / 3 else "  <-- over bound/3"
        print(f"{k:16s} median {s['median']:.4g}  spread {s['spread']:.3f}"
              f"  bound {bounds[k]}{flag}")
    for k, s in report["cases_ms"].items():
        print(f"case {k:24s} median {s['median']:.1f} ms  "
              f"spread {s['spread']:.3f}")
    if out:
        path = Path(out)
        data = json.loads(path.read_text()) if path.is_file() else {}
        data[workload] = report
        path.write_text(json.dumps(data, indent=1) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("reference")
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--out", default=None)
    args = parser.parse_args()
    if args.command == "reference":
        record_reference()
    else:
        measure_spread(args.workload, args.seeds, args.out)


if __name__ == "__main__":
    main()
