"""Benchmark of covspectra on the paper's Figure-1 and Figure-2 computations
and a QVE sweep: end-to-end times, output checks, failures and, in a traced
run, per-layer figures.

    python3 perfbench/run.py                       # every workload, then a summary
    python3 perfbench/run.py --trace 1             # the same, traced
    python3 perfbench/run.py --workload fig1-diag --seed 1 --seconds 15 --trace 0

One run of one workload: an untimed warm-up; timed set-ups; repetitions of
the workload's operations, starting another while less than --seconds has
passed; timed set-ups again.  setup_s is the median of all set-up times.  Every
output is checked.  An operation that raises or fails its check counts as
failed, with its exception type, iterations, last residual and path index
recorded, and the run goes on.  A failed operation's time stays in run_s,
which is what a user waits, but not in the operation's own timing.

With --trace 1 the repetitions alternate untraced and traced (at least one
of each).  The spans of the traced ones are written to perfbench/out/ when
the run ends, and the per-layer metrics are derived from that file.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.  The lines before it are a
readable table; perfbench/out/ also gets every sample as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time

import env
import tracer as tr

env.pin_threads()

SETUP_SAMPLES = 15
SETUP_SECONDS = 0.5
OUT = env.ROOT / "perfbench" / "out"
REFERENCE = env.ROOT / "perfbench" / "reference.json"
WORKLOAD_NAMES = ("fig1-diag", "fig1-rotated", "fig2-mixture", "qve-sweep")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(env.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _failure(op: str, rep: int, exc: BaseException, kind: str) -> dict:
    return {"op": op, "rep": rep, "kind": kind, "type": type(exc).__name__,
            "message": str(exc),
            **{k: getattr(exc, k, None) for k in ("iterations", "last_residual", "index")}}


def run_rep(workload, ops, index: int, tracer) -> dict:
    """One repetition of every operation; checks run afterwards, untraced."""
    from workloads import CheckFailed

    outputs = {}
    recording = tracer.recording(index) if tracer else contextlib.nullcontext()
    with recording:
        if tracer:
            workload.setup()  # traced so that model.init_s is measured
        for op in ops:
            t0 = time.perf_counter()
            try:
                outputs[op.name] = (op.run(), None)
            except Exception as exc:  # recorded as a failed operation; the run goes on
                outputs[op.name] = (None, exc)
            outputs[op.name] += (time.perf_counter() - t0,)
    times, failures = {}, []
    for op in ops:
        out, exc, elapsed = outputs[op.name]
        if exc is None:
            try:
                op.check(out)
            except CheckFailed as failed:
                exc = failed
        if exc is None:
            times[op.name] = elapsed
        else:
            kind = "check" if isinstance(exc, CheckFailed) else "raised"
            failures.append(_failure(op.name, index, exc, kind))
    return {"traced": tracer is not None, "times": times, "failures": failures,
            "run_s": sum(o[2] for o in outputs.values())}


def time_setups(workload, times: list[float]):
    """Append at least SETUP_SAMPLES set-up times, over at least SETUP_SECONDS,
    to `times`; return the last set-up's state.  Runs sample before and after
    their repetitions, because the host's speed drifts over tens of seconds."""
    until = time.perf_counter() + SETUP_SECONDS
    for k in itertools.count():
        state = None  # one model alive at a time, so peak_rss_mb stays the workload's
        t0 = time.perf_counter()
        state = workload.setup()
        times.append(time.perf_counter() - t0)
        if k + 1 >= SETUP_SAMPLES and time.perf_counter() >= until:
            return state


def tail_text(values: list[float]) -> str:
    t = tr.tail(values)
    return "-" if t is None else f"p{t[0]:.1f}={t[1]:.4g}"


def run_one(args: argparse.Namespace) -> int:
    import covspectra as cs
    import workloads as wl

    units = declared_metrics(args.trace)
    OUT.mkdir(parents=True, exist_ok=True)
    with open(REFERENCE) as fh:
        ref = json.load(fh).get(args.workload, {})
    workload = wl.WORKLOADS[args.workload](args.seed, str(OUT), ref)

    workload.warm_up(workload.setup())
    setup_times: list[float] = []
    state = time_setups(workload, setup_times)
    ops = workload.ops(state)

    tracer = tr.Tracer() if args.trace else None
    if tracer:
        tracer.install(cs)
    reps: list[dict] = []
    start = time.perf_counter()
    try:
        while True:
            traced = tracer is not None and len(reps) % 2 == 1
            reps.append(run_rep(workload, ops, len(reps), tracer if traced else None))
            done = time.perf_counter() - start >= args.seconds
            if done and (tracer is None or len(reps) >= 2):
                break
    finally:
        if tracer:
            tracer.uninstall()
    # before the second set-up batch, which builds models next to the live one
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    time_setups(workload, setup_times)

    plain = [r for r in reps if not r["traced"]]
    failures = [f for r in reps for f in r["failures"]]
    attempted = len(ops) * len(reps)
    e2e = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(r["run_s"] for r in plain),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {"setup": setup_times}
    for op in ops:
        samples[op.name] = [r["times"][op.name] for r in plain if op.name in r["times"]]

    notes: dict = {}
    layers: dict[str, float] = {}
    if tracer:
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.write_jsonl(str(spans_path))
        layers, notes = tr.layer_metrics(tr.read_jsonl(str(spans_path)))
        traced_run_s = statistics.median(r["run_s"] for r in reps if r["traced"])
        layers["trace.overhead"] = traced_run_s / e2e["run_s"]
        notes.update(spans=str(spans_path.relative_to(env.ROOT)), traced_run_s=traced_run_s)

    environment = env.describe()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  repetitions {len(reps)} ({len(plain)} untraced)")
    print("env " + "  ".join(f"{k}={v}" for k, v in environment.items()))
    print(f"{'metric':<16}{'samples':>8}{'median':>12}  tail")
    for name, values in samples.items():
        median = f"{statistics.median(values):.5g}" if values else "-"
        print(f"{name + '_s':<16}{len(values):>8}{median:>12}  {tail_text(values)}")
    print(f"{'run_s':<16}{len(plain):>8}{e2e['run_s']:>12.5g}  {tail_text([r['run_s'] for r in plain])}")
    print(f"{'peak_rss_mb':<16}{'':>8}{e2e['peak_rss_mb']:>12.5g}")
    print(f"failed_ops {len(failures)} of {attempted} attempted")
    for f in failures:
        print(f"  {f['op']} (rep {f['rep']}, {f['kind']}): {f['type']}: {f['message']}")
    if tracer:
        for name in units:
            print(f"  {name:<44}{layers[name]:>14.6g} {units[name]}")
        print(f"  solve_lambda samples {notes['solve_lambda_samples']}, tail percentile "
              f"{notes['solve_lambda_tail_percentile']}; spans in {notes['spans']}")

    values = layers if tracer else e2e
    result = {
        "correct": not any(f["kind"] == "check" for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"args": vars(args), "env": environment, "end_to_end": e2e,
                   "samples": samples, "failures": failures, "layers": layers,
                   "notes": notes, "result": result}, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so that peak_rss_mb is its own."""
    units = declared_metrics(args.trace)
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("\nsummary")
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} failed_ops={res['failed']}/{res['attempted']}")
        for metric, unit in units.items():
            print(f"  {metric:<44}{res['metrics'][metric]['value']:>14.6g} {unit}")
    print(json.dumps(results))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    env.add_source()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
