#!/usr/bin/env python3
"""Benchmark of modfield's desk pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 38 --trace 0

Set-up makes every pipeline's inputs from the seed (repeated, and timed
as ``setup_s``).  The timed part then runs rounds of the pipelines until
``--seconds`` have passed, and every output is checked afterwards.  Every
time is scaled to a reference host speed read next to and during each
call (see ``calibrate``).  With ``--trace 1`` the workload's own
pipelines run first untraced, then traced, and the per-layer numbers come
from the traced half.

Standard output ends with a machine record line and then the result line
``{"correct", "attempted", "failed", "metrics"}``; metric names and units
are those in BENCHMARK.json.  The full record of the run (samples,
quartiles, failures, the per-layer reconciliation with ROADMAP.md) is
written to ``.perfbench_out/``.
"""

import os
import sys

# one worker process and one BLAS thread; set before numpy is imported
PINNED_ENV = {"MODFIELD_WORKERS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3


class Results:
    """Timings, kept outputs and failures of the pipeline calls in a run."""

    def __init__(self, ops):
        self.ops = ops
        self.kept = {op.name: [] for op in ops}
        self.last = {}
        self.attempted = 0
        self.failures = []

    def fail(self, what, exc):
        self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
        print(f"FAILED {what}:", *traceback.format_exception(exc),
              file=sys.stderr)


def scaled(timings):
    """The calls' times at the reference host's speed."""
    return [t.scaled for t in timings]


def traced(op, tracer):
    """``op.run`` inside an ``op.<name>`` span."""
    def run():
        span = tracer.open("op." + op.name)
        try:
            return op.run()
        finally:
            tracer.close(span)
    return run


def run_rounds(ops, seconds, results, tracer=None, sample=True):
    """Call every op in turn until ``seconds`` have passed.

    The first round always completes.  Traced runs stop only between
    rounds, so their per-layer numbers are per whole round; untraced runs
    stop at the first call past the deadline.  ``sample`` is passed to
    :func:`calibrate.timed_call`.  Returns the number of complete rounds
    and each op's :class:`calibrate.Timing` list.
    """
    times = {op.name: [] for op in ops}
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        for op in ops:
            if rounds and not tracer and time.perf_counter() >= deadline:
                return rounds, times
            results.attempted += 1
            gc.collect()  # garbage left by the previous call is not this one's
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    out, timing = calibrate.timed_call(
                        traced(op, tracer) if tracer else op.run, op.kind,
                        sample)
                results.kept[op.name].append(op.keep(out))
            except Exception as exc:  # a failed call is counted, not fatal
                results.fail(op.name, exc)
                continue
            results.last[op.name] = out
            times[op.name].append(timing)
        rounds += 1
    return rounds, times


def run_checks(results):
    quality = {}
    for op in results.ops:
        results.attempted += 1
        try:
            if op.name not in results.last:
                raise RuntimeError("no successful call to check")
            quality[op.name] = op.check(results.kept[op.name],
                                        results.last[op.name])
        except Exception as exc:  # a failed check is counted, not fatal
            results.fail(f"check {op.name}", exc)
    return quality


def _quartiles(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 \
        else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2]}


def summary(timings):
    """Count, and median and quartiles of the scaled times, the wall
    times, the host speeds and the kernel readings, of a list of
    :class:`calibrate.Timing`."""
    if not timings:
        return None
    return {"n": len(timings),
            **_quartiles(scaled(timings)),
            "wall": _quartiles([t.wall for t in timings]),
            "speed": _quartiles([t.speed for t in timings]),
            "readings": _quartiles([len(t.readings) for t in timings])}


def end_to_end(ops, times, quality, setup, results):
    values = {"setup_s": statistics.median(scaled(setup))}
    for op in ops:
        if times[op.name]:
            t = statistics.median(scaled(times[op.name]))
            values[op.metric] = op.work / t if op.work else t

    def worst(key, pick=max):
        found = [q[key] for q in quality.values() if key in q]
        return pick(found) if found else None

    values["train.loss_ratio_max"] = worst("loss_ratio")
    values["data.flow_err_max"] = worst("flow_err")
    values["eval.ref_err_max"] = worst("ref_err")
    values["eval.trunc_gain"] = worst("trunc_gain", min)
    values["ok_share"] = 1.0 - len(results.failures) / results.attempted
    return values


# -- machine record ---------------------------------------------------------

def git_sha():
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def source_digest():
    """SHA-256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def blas_threads(np):
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_record(args, np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        **{k.lower(): os.environ[k] for k in PINNED_ENV},
    }


# -- the run ----------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(args, workdir):
    """Set up, time and check one workload; returns the run's record."""
    import layers
    import spans
    import workloads

    repeats = 1 if args.trace else SETUP_REPEATS
    setup = []
    for r in range(repeats):
        gc.collect()
        ops, timing = calibrate.timed_call(
            lambda: workloads.build_ops(args.workload, args.seed,
                                        workdir / f"setup{r}"),
            "mixed", sample=not args.trace)
        setup.append(timing)
    record = {"setup_s": summary(setup)}

    if not args.trace:
        results = Results(ops)
        rounds, times = run_rounds(ops, args.seconds, results)
        quality = run_checks(results)
        metrics = end_to_end(ops, times, quality, setup, results)
    else:
        home = [op for op in ops if op.home == args.workload]
        results = Results(home)
        # no kernel runs inside traced calls, so none in the untraced
        # half either: the overhead ratio compares like with like
        _, plain = run_rounds(home, args.seconds / 2, results, sample=False)
        tracer = spans.Tracer()
        with layers.installed(tracer):
            rounds, times = run_rounds(home, args.seconds / 2, results, tracer,
                                       sample=False)
        tree = tracer.tree()
        quality = run_checks(results)
        metrics = layers.layer_metrics(tree, tracer.counts, rounds)
        metrics["trace.overhead_ratio"] = (
            sum(statistics.median(scaled(t)) for t in times.values() if t)
            / sum(statistics.median(scaled(t)) for t in plain.values() if t))
        results.attempted += 1
        problems = layers.self_check(args.workload, tree, tracer.counts)
        if problems:
            results.fail("span self-check", RuntimeError("; ".join(problems)))
        record["untraced"] = {k: summary(v) for k, v in plain.items()}
        record["reconcile"] = layers.reconcile(tree)
        record["span_count"] = len(tree.spans)
    record.update(rounds=rounds, quality=quality,
                  times={k: scaled(v) for k, v in times.items()},
                  calls={k: [(t.wall, t.readings) for t in v]
                         for k, v in times.items()},
                  samples={k: summary(v) for k, v in times.items()},
                  failures=results.failures)
    return metrics, results, record


def main(argv=None):
    args = parse_args(argv)
    bench = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not (bench.is_file() and (src / "modfield" / "__init__.py").is_file()):
        print(f"error: need {bench} and the modfield sources under {src}",
              file=sys.stderr)
        return 2
    spec = json.loads(bench.read_text())
    sys.path.insert(0, str(src))
    import numpy as np

    import modfield
    if Path(modfield.__file__).resolve().parent != src / "modfield":
        print(f"error: imported modfield from {modfield.__file__}",
              file=sys.stderr)
        return 2

    machine = machine_record(args, np)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        values, results, record = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in wanted}
    missing = [name for name, m in metrics.items() if m["value"] is None]
    if missing:
        print(f"not measured: {missing}", file=sys.stderr)
    result = {"correct": not (results.failures or missing),
              "attempted": results.attempted,
              "failed": len(results.failures), "metrics": metrics}
    record.update(machine=machine, result=result)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"machine": machine}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
