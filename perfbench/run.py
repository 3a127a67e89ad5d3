"""Benchmark of the zinbiel library: one workload, one seed, one run.

    python3 perfbench/run.py --workload cohomology --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`, so nothing needs installing.  The load is a closed loop with one
client: one process, no threads, and each task starts only after the
previous one returned.  The run

1. sets up (imports `zinbiel` afresh, builds the seeded inputs);
2. warms up on the first task of each kind;
3. runs whole passes over the fixed seeded batch until `--seconds` have
   passed, each pass on fresh copies of the inputs, timing every task;
   between tasks, every few seconds, it times another set-up and throws
   it away, and it reports the median of all set-ups as `setup_s`;
4. checks every output outside the timed region: against the reference
   digests recorded at the seed commit, against the first pass, and by
   exact certificates;
5. prints a summary and, as its last line, one JSON object.

With `--trace 0` the JSON holds the end-to-end metrics.  With `--trace 1`
the run alternates untraced and traced passes (see tracing.py); the JSON
holds the per-layer metrics, per pass of the batch, and the tracing
overhead: the median traced pass minus the median untraced pass.  Spans
are written to perfbench/out/ when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import importlib
import itertools
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SETUP_INTERVAL_S = 2.5   # run time between two set-ups timed during passes
SETUP_MIN = 7            # set-ups timed in a run, at least


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _is_library(name: str) -> bool:
    return name == "zinbiel" or name.startswith("zinbiel.")


def import_library():
    """Import zinbiel afresh from the checkout's src/ and time nothing."""
    if not (SRC / "zinbiel" / "__init__.py").is_file():
        raise BenchError(f"no library source at {SRC / 'zinbiel'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if _is_library(n)]:
        del sys.modules[name]
    modules = {name: importlib.import_module(name)
               for name in workloads.MODULES}
    origin = Path(modules["zinbiel"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"zinbiel imported from {origin}, not {SRC}")
    return workloads.Lib(modules)


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under perfbench/ for the problem files."""
    path = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def set_up(workload: str, seed: int, workdir: Path):
    """One timed set-up: import zinbiel afresh and build the seeded
    batch, naming its files under workdir.  Returns (lib, batch, s)."""
    gc.collect()
    start = perf_counter()
    lib = import_library()
    batch = workloads.build(lib, workload, seed, workdir)
    return lib, batch, perf_counter() - start


class SetupSampler:
    """Times further set-ups spread over the whole run and throws them
    away, so that `setup_s` is taken on the same machine state as the
    passes and not only at the start.  Called between tasks, outside
    their timing.  Afterwards the run's own library modules go back into
    sys.modules."""

    def __init__(self, workload: str, seed: int, workdir: Path,
                 first: float):
        self.args = (workload, seed, workdir)
        self.times = [first]
        self.due = perf_counter() + SETUP_INTERVAL_S

    def __call__(self) -> None:
        if perf_counter() >= self.due:
            self.sample()
            self.due = perf_counter() + SETUP_INTERVAL_S

    def sample(self) -> None:
        own = {n: m for n, m in sys.modules.items() if _is_library(n)}
        self.times.append(set_up(*self.args)[2])
        for name in [n for n in sys.modules if _is_library(n)]:
            del sys.modules[name]
        sys.modules.update(own)
        gc.collect()

    def top_up(self) -> None:
        while len(self.times) < SETUP_MIN:
            self.sample()


def load_reference(workload: str) -> dict:
    """Task id -> output digest, recorded at the default seed."""
    if not REFERENCE.is_file():
        raise BenchError(f"no reference digests at {REFERENCE}")
    data = json.loads(REFERENCE.read_text())
    if data["default_seed"] != workloads.DEFAULT_SEED:
        raise BenchError("reference.json was recorded at another seed")
    return data["digests"][workload]


class Checker:
    """Decides, outside the timed region, whether each output is correct."""

    def __init__(self, lib, batch, reference: dict | None):
        """reference: the recorded digests, or None while recording."""
        self.lib = lib
        self.batch = batch
        self.reference = reference
        self.first = {}       # task id -> (digest, failure reason or None)
        self.attempted = 0
        self.failures = []    # (task id, reason)

    def record(self, task, payload, result, error) -> None:
        self.attempted += 1
        reason = self._judge(task, payload, result, error)
        if reason is not None:
            self.failures.append((task.id, reason))

    def _judge(self, task, payload, result, error):
        if error is not None:
            return f"raised {type(error).__name__}: {error}"
        try:
            digest = workloads.digest(self.batch.workload, result)
        except Exception as e:     # a malformed result is a failure too
            return f"unreadable result: {type(e).__name__}: {e}"
        if task.id in self.first:
            first, reason = self.first[task.id]
            return reason if digest == first else \
                "output differs from the first pass"
        reason = self._verify(task, payload, result, digest)
        self.first[task.id] = (digest, reason)
        return reason

    def _verify(self, task, payload, result, digest):
        # a seeded input has a recorded digest only on the default seed
        if self.reference is not None and (
                not task.seeded or self.batch.seed == workloads.DEFAULT_SEED):
            expected = self.reference.get(task.id)
            if expected is None:
                return "no reference digest for this task"
            if digest != expected:
                return "output differs from the reference"
        try:
            return workloads.certify(self.lib, self.batch.workload, task,
                                     payload, result)
        except Exception as e:
            return f"certificate raised {type(e).__name__}: {e}"


def run_task(lib, task, payload, tracer=None):
    """One timed call; returns (seconds, result, exception)."""
    result = error = None
    if tracer is not None:
        tracer.begin_task(task.id)
    start = perf_counter()
    try:
        result = task.fn(lib, *payload)
    except Exception as e:
        error = e
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.end_task()
    return seconds, result, error


def warm_up(lib, tasks) -> None:
    seen = set()
    for task in tasks:
        if task.kind not in seen:
            seen.add(task.kind)
            run_task(lib, task, copy.deepcopy(task.payload))


def run_pass(lib, tasks, checker, tracer=None, between=None) -> list:
    """All tasks once, on fresh copies; returns [(task, seconds)].
    between(), if given, is called untimed before each task."""
    payloads = copy.deepcopy([t.payload for t in tasks])
    times = []
    for task, payload in zip(tasks, payloads):
        if between is not None:
            between()
        seconds, result, error = run_task(lib, task, payload, tracer)
        times.append((task, seconds))
        checker.record(task, payload, result, error)
    return times


def passes_within(seconds: float, at_least: int = 1):
    """Yield once per pass: at_least times, then while another pass as
    long as the last one is predicted to end within the run."""
    start = perf_counter()
    for count in itertools.count(1):
        begun = perf_counter()
        yield
        now = perf_counter()
        if count >= at_least and now - start + (now - begun) > seconds:
            return


def percentile(samples, q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(passes, setup_times, checker) -> tuple[dict, list]:
    latencies = [s for p in passes for _, s in p]
    out = {"setup_s": statistics.median(setup_times)}
    for field in ("Q", "Fp"):
        count = sum(1 for t, _ in passes[0] if t.field == field)
        busy = statistics.median(sum(s for t, s in p if t.field == field)
                                 for p in passes)
        out[f"tasks_per_s.{field}"] = count / busy
    out["latency_p50_ms"] = statistics.median(latencies) * 1e3
    out["latency_p90_ms"] = percentile(latencies, 90) * 1e3
    ok = checker.attempted - len(checker.failures)
    out["correct_ratio"] = ok / checker.attempted
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    beyond = len(latencies) - int(len(latencies) * 0.9)
    notes = [f"latency samples: {len(latencies)} "
             f"({beyond} beyond p90, {len(latencies) // 2} beyond p50)"]
    if beyond < 10:
        notes.append("warning: fewer than 10 samples beyond p90")
    return out, notes


def case_lines(passes) -> list:
    """Median latency of every curated case, for the baseline table."""
    lines = []
    for i, (task, _) in enumerate(passes[0]):
        if task.meta["case"]:
            ms = statistics.median(p[i][1] for p in passes) * 1e3
            lines.append(f"case {task.id} median_ms={ms:.1f} "
                         f"passes={len(passes)}")
    return lines


def per_layer(lib, batch, tasks, seconds, checker):
    """Untraced and traced passes in turn until the deadline."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    for i, _ in enumerate(passes_within(seconds, at_least=2)):
        if i % 2 == 0:
            plain.append(sum(s for _, s in run_pass(lib, tasks, checker)))
            continue
        tracer.install()
        try:
            traced.append(sum(s for _, s in
                              run_pass(lib, tasks, checker, tracer)))
        finally:
            tracer.uninstall()
    metrics = tracer.metrics(len(traced), {t.id: t.field for t in tasks})
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_ratio"] = overhead / statistics.median(plain)
    notes = [f"passes: {len(plain)} untraced, median "
             f"{statistics.median(plain):.3f} s; {len(traced)} traced, "
             f"median {statistics.median(traced):.3f} s"]
    notes += [f"absent layer function: {name}" for name in tracer.absent]
    _, own = tracer.times(lambda n: n)
    notes.append("self time per traced pass, largest first:")
    for name, s in sorted(own.items(), key=lambda kv: -kv[1]):
        notes.append(f"  {name:40s} {s / len(traced):9.4f} s")
    write_spans(tracer, batch)
    return metrics, notes


def write_spans(tracer, batch) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{batch.workload}-{batch.seed}.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        for name, start, end, book, parent, task in tracer.spans:
            handle.write(json.dumps({"name": name, "start": start,
                                     "end": end, "bookkeeping": book,
                                     "parent": parent, "task": task}) + "\n")


def units() -> dict:
    """Metric name -> unit, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def run(workload: str, seed: int, seconds: float, trace: bool,
        limit: int | None = None) -> tuple[dict, list]:
    """Run one benchmark run; returns (result object, summary lines).
    limit runs only the first tasks of the batch, for the self-tests."""
    unit = units()
    reference = load_reference(workload)
    with scratch_dir() as workdir:
        lib, batch, first = set_up(workload, seed, workdir)
        batch.write_files()
        tasks = batch.tasks[:limit] if limit else batch.tasks
        checker = Checker(lib, batch, reference)
        warm_up(lib, tasks)
        notes = [f"workload {workload} seed {seed}: {len(tasks)} tasks a "
                 f"pass"]
        if trace:
            metrics, more = per_layer(lib, batch, tasks, seconds, checker)
        else:
            sampler = SetupSampler(workload, seed, workdir, first)
            passes = []
            for _ in passes_within(seconds):
                passes.append(run_pass(lib, tasks, checker, between=sampler))
            sampler.top_up()
            metrics, more = end_to_end(passes, sampler.times, checker)
            more = [f"passes: {len(passes)}; set-ups: {len(sampler.times)}, "
                    f"median {metrics['setup_s']:.3f} s, min "
                    f"{min(sampler.times):.3f} s"] + more + case_lines(passes)
    notes += more
    notes += [f"FAILED {tid}: {reason}" for tid, reason in checker.failures[:20]]
    result = {
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {k: {"value": v, "unit": unit[k]}
                    for k, v in metrics.items()},
    }
    return result, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, notes = run(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
