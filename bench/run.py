"""koheval benchmark: one workload, one closed-loop caller, one process.

    python3 bench/run.py --workload eval-sparse --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The benchmark generates the workload's
cohort from ``--seed`` (set-up, timed on its own, in a child process that
also computes the checks' oracles), then repeats the workload's cycle of
operations in this process until ``--seconds`` have passed, checking every
operation's output. Every timing is reported in reference seconds: the
wall time scaled by how fast the host ran a fixed reference loop right
before and after it (see ``reference_loop``). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``). The lines above it print every metric
measured by name and unit, the environment and the input shape. See
bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUPS = 3  # set-ups per run; setup_s is their median
MIN_CYCLES = 3  # untraced cycles, whatever --seconds says
TIME_LIMIT_S = 150.0  # stop starting cycles after this long, set-up included
# The reference loop's size in items, and about the time it takes on a
# 2-vCPU Xeon (2.0 GHz) VM at the faster of its speeds. A wall time t
# measured between two loops that took a and b seconds is reported as
# t * (REF_LOOP_S / ((a + b) / 2)) ** s: about the time the host would have
# taken at that speed. s is the workload's host sensitivity
# (workloads.Workload): when the host slows the loop by a factor k, the
# workload's operations slow by about k ** s.
REF_LOOP_ITEMS = 60_000
REF_LOOP_S = 0.08
# How far a traced operation's root span may fall short of the wall time
# measured around it: installing and restoring the wrappers, and freeing the
# previous trace, take 1-11 ms.
TRACE_TOLERANCE_S = 0.05

# (name, unit, better). The order is the order printed.
END_TO_END = (
    ("cycle_s", "s", "lower"),
    ("images_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = (
    ("geometry.iou_matrix_calls", "count", "lower"),
    ("geometry.iou_pairs", "count", "lower"),
    ("geometry.iou_redundancy", "ratio", "lower"),
    ("geometry.iou_matrix_s", "s", "lower"),
    ("metrics.match_s", "s", "lower"),
    ("metrics.ap_sweep_s", "s", "lower"),
    ("metrics.pr_curve_calls", "count", "lower"),
    ("metrics.pred_visits_per_pred", "ratio", "lower"),
    ("metrics.evaluate_s", "s", "lower"),
    ("metrics.self_s", "s", "lower"),
    ("dataset.read_s", "s", "lower"),
    ("dataset.files_read", "count", "lower"),
    ("dataset.bytes_read", "bytes", "lower"),
    ("dataset.boxes_parsed", "count", "lower"),
    ("dataset.split_s", "s", "lower"),
    ("dataset.self_s", "s", "lower"),
    ("screening.screen_s", "s", "lower"),
    ("screening.sweep_s", "s", "lower"),
    ("screening.sweep_image_visits", "count", "lower"),
    ("screening.self_s", "s", "lower"),
    ("report.sha256_s", "s", "lower"),
    ("report.bytes_hashed", "bytes", "lower"),
    ("report.build_s", "s", "lower"),
    ("report.render_s", "s", "lower"),
    ("report.identical_reruns", "bool", "higher"),
    ("report.self_s", "s", "lower"),
    ("synth.generate_s", "s", "lower"),
    ("synth.perturbed_preds", "count", "lower"),
    ("synth.write_s", "s", "lower"),
    ("synth.files_written", "count", "lower"),
    ("synth.bytes_written", "bytes", "lower"),
    ("synth.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
    ("bench.spans", "count", "lower"),
)
# Per-layer counts must repeat exactly from one traced cycle to the next.
COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "bytes", "ratio"))


def percentile_summary(samples: list[float]) -> dict:
    """Median, sample count, the highest of a few percentiles that has at
    least ten samples beyond it (None below twenty samples), and the
    samples in the order taken."""
    ordered = sorted(samples)
    n = len(ordered)
    top = None
    for p in (50, 90, 99):
        if n * (100 - p) / 100 >= 10:
            top = {"p": p, "value": ordered[min(n - 1, int(n * p / 100))]}
    return {"samples": n, "median": statistics.median(ordered), "top": top,
            "values": [round(v, 4) for v in samples]}


def reference_loop() -> float:
    """Seconds this process takes to run a fixed piece of Python now.

    The host's speed switches between modes up to 2x apart, in phases of
    seconds to minutes, on both vCPUs and in CPU time as well as in wall
    time. koheval's operations slow down with it, less than this loop
    does, so their wall time scaled by this loop's, timed next to them
    (``at_reference_speed``), reads about the same whichever mode the host
    is in.
    """
    t0 = perf_counter()
    items = [((i * 7919) % (REF_LOOP_ITEMS + 1), i, str(i)) for i in range(REF_LOOP_ITEMS)]
    items.sort()
    return perf_counter() - t0


def at_reference_speed(wall: float, loop_before: float, loop_after: float,
                       sensitivity: float) -> float:
    return wall * (REF_LOOP_S * 2 / (loop_before + loop_after)) ** sensitivity


def cycle_layers(ops: list[tuple[str, list, dict, float]], prepared) -> dict[str, float]:
    """Per-layer metrics of one traced cycle (or set-up, with ``prepared``
    None) from its operations' (name, spans, counts, wall time). Raises
    ValueError if an operation's spans do not tile its wall time."""
    from spans import check_spans, layer_self_times, outermost_time

    counts: dict[str, int] = {}
    for _, _, c, _ in ops:
        for key, value in c.items():
            counts[key] = counts.get(key, 0) + value
    every = [s for _, spans, _, _ in ops for s in spans]  # indices are per op

    def time_in(names, op_name=None) -> float:
        return sum(outermost_time(spans, names) for name, spans, _, _ in ops
                   if op_name in (None, name))

    def calls(name) -> int:
        return sum(1 for s in every if s.name == name)

    layers: dict[str, float] = {}
    for name, spans, _, wall in ops:
        try:
            check_spans(spans, wall, TRACE_TOLERANCE_S)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
        for layer, seconds in layer_self_times(spans).items():
            layers[layer] = layers.get(layer, 0.0) + seconds

    pairs = counts.get("geometry.iou_pairs", 0)
    distinct_pairs = prepared.distinct_pairs if prepared else 0
    predictions = prepared.predictions if prepared else 0
    return {
        "geometry.iou_matrix_calls": calls("geometry.iou_matrix"),
        "geometry.iou_pairs": pairs,
        "geometry.iou_redundancy": pairs / distinct_pairs if distinct_pairs else 0.0,
        "geometry.iou_matrix_s": time_in({"geometry.iou_matrix"}),
        "metrics.match_s": time_in({"metrics.match_image"}),
        "metrics.ap_sweep_s": time_in({"metrics.ap_sweep"}),
        "metrics.pr_curve_calls": calls("metrics.pr_curve"),
        "metrics.pred_visits_per_pred":
            counts.get("metrics.pred_visits", 0) / predictions if predictions else 0.0,
        "metrics.evaluate_s": time_in({"metrics.evaluate_detections"}),
        "metrics.self_s": layers.get("metrics", 0.0),
        "dataset.read_s": time_in({"dataset.load_ground_truth",
                                   "dataset.attach_predictions"}),
        "dataset.files_read": counts.get("dataset.files_read", 0),
        "dataset.bytes_read": counts.get("dataset.bytes_read", 0),
        "dataset.boxes_parsed": counts.get("dataset.boxes_parsed", 0),
        "dataset.split_s": time_in({"dataset.stratified_split"}),
        "dataset.self_s": layers.get("dataset", 0.0),
        "screening.screen_s": time_in({"screening.screen_dataset"}, "screen"),
        "screening.sweep_s": time_in({"screening.threshold_sweep"}, "sweep"),
        "screening.sweep_image_visits": counts.get("screening.sweep_image_visits", 0),
        "screening.self_s": layers.get("screening", 0.0),
        "report.sha256_s": time_in({"report.sha256_path", "report.sha256_file"}),
        "report.bytes_hashed": counts.get("report.bytes_hashed", 0),
        "report.build_s": time_in({"report.build_report"}),
        "report.render_s": time_in({"report.render"}),
        "report.self_s": layers.get("report", 0.0),
        "synth.generate_s": time_in({"synth.generate", "synth.plant_screening_matrix"}),
        "synth.perturbed_preds": calls("synth._perturb_to_iou"),
        "synth.write_s": time_in({"synth.write_cohort"}),
        "synth.files_written": counts.get("synth.files_written", 0),
        "synth.bytes_written": counts.get("synth.bytes_written", 0),
        "synth.self_s": layers.get("synth", 0.0),
        "cli.self_s": layers.get("cli", 0.0),
        "bench.spans": len(every),
    }


def in_child(func: Callable[[], object]):
    """Run ``func`` in a forked child process and return its result.

    The result comes back pickled through a pipe, and this process waits
    until the child has ended. What the child allocates, its peak too,
    never counts towards this process's peak RSS.
    """
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, func()))
            except BaseException:
                payload = pickle.dumps((False, traceback.format_exc()))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    os.waitpid(pid, 0)
    if not payload:
        raise RuntimeError("the set-up process ended without a result")
    ok, value = pickle.loads(payload)
    if not ok:
        raise RuntimeError(f"set-up failed:\n{value}")
    return value


def set_up(workload, seed: int, dest: Path, trace: bool, oracle: bool) -> dict:
    """One timed set-up; traced if ``trace`` (the synth layer works in
    set-up), followed by the untimed oracle if ``oracle``."""
    from spans import Tracer

    tracer = Tracer() if trace else None
    gc.collect()
    loop_before = reference_loop()
    t0 = perf_counter()
    if tracer:
        state = tracer.operation(lambda: workload.setup(seed, dest))
    else:
        state = workload.setup(seed, dest)
    out = {"seconds": perf_counter() - t0}
    out["ref_seconds"] = at_reference_speed(out["seconds"], loop_before, reference_loop(),
                                            workload.host_sensitivity)
    if tracer:
        try:
            out["layers"] = cycle_layers([("setup", tracer.spans, tracer.counts,
                                           out["seconds"])], None)
        except ValueError as exc:
            out["problem"] = str(exc)
    if oracle:
        out["oracle"] = workload.oracle(state, dest, seed)
    return out


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from spans import Tracer

    started = perf_counter()
    tracer = Tracer() if trace else None
    problems: list[str] = []
    setup_times, setup_wall_times = [], []
    for i in range(SETUPS):
        # Each set-up runs in its own process, so the memory it and the
        # oracle use never shows in peak_rss_mb. Spare cohorts are deleted
        # with the work directory at the end, so no deletion runs between
        # timed steps.
        first = i == 0
        result = in_child(lambda: set_up(workload, seed, work / f"cohort-{i}",
                                         trace and first, first))
        setup_times.append(result["ref_seconds"])
        setup_wall_times.append(result["seconds"])
        if first:
            oracle = result["oracle"]
            setup_layers = result.get("layers", {})
            if "problem" in result:
                problems.append(result["problem"])
    prepared = workload.prepare(oracle, work / "cohort-0", work, seed,
                                tracer.counts if tracer else None)
    del oracle
    rss_before_cycles = max_rss_mb()

    op_times: dict[str, list[float]] = {op.name: [] for op in prepared.ops}
    traced_op_times: dict[str, list[float]] = {op.name: [] for op in prepared.ops}
    cycle_times, traced_cycle_times, layer_cycles, trace_gaps = [], [], [], []
    cycle_wall_times, loop_times = [], []
    attempted = failed = 0
    failures: list[str] = []
    first_output: dict[str, bytes] = {}
    identical = True

    loop_before = reference_loop()
    loop_times.append(loop_before)
    deadline = perf_counter() + seconds
    cycle = 0
    # A traced run alternates untraced and traced cycles, so it measures
    # the tracing overhead as well as the layers.
    while True:
        traced = trace and cycle % 2 == 1
        cycle_time = cycle_wall = 0.0
        traced_ops = []
        for op in prepared.ops:
            gc.collect()
            attempted += 1
            t0 = perf_counter()
            try:
                if traced:
                    result = tracer.operation(op.traced_call or op.call)
                else:
                    result = op.call()
            except Exception:  # a crash is a failed operation, not a stop
                elapsed = perf_counter() - t0
                failed += 1
                failures.append(f"{op.name}: {traceback.format_exc(limit=3)}")
                result = None
            else:
                elapsed = perf_counter() - t0
            loop_after = reference_loop()
            loop_times.append(loop_after)
            scaled = at_reference_speed(elapsed, loop_before, loop_after,
                                        workload.host_sensitivity)
            loop_before = loop_after
            cycle_time += scaled
            cycle_wall += elapsed
            if traced:
                traced_op_times[op.name].append(scaled)
                traced_ops.append((op.name, list(tracer.spans), dict(tracer.counts),
                                   elapsed))
                trace_gaps.append(elapsed - tracer.spans[0].duration)
            else:
                op_times[op.name].append(scaled)
            if result is None:
                continue
            try:
                if op.output is not None:
                    output = op.output()
                    identical &= first_output.setdefault(op.name, output) == output
                op.check(result)
            except Exception as exc:
                failed += 1
                failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
        if traced:
            traced_cycle_times.append(cycle_time)
            try:
                layer_cycles.append(cycle_layers(traced_ops, prepared))
            except ValueError as exc:
                problems.append(str(exc))
        else:
            cycle_times.append(cycle_time)
            cycle_wall_times.append(cycle_wall)
        cycle += 1
        enough = len(cycle_times) >= MIN_CYCLES and (not trace or len(traced_cycle_times) >= 2)
        now = perf_counter()
        if (enough and now >= deadline) or now - started > TIME_LIMIT_S:
            break

    rss_after_cycles = max_rss_mb()
    return {
        "prepared": prepared, "setup_times": setup_times,
        "setup_wall_times": setup_wall_times, "setup_layers": setup_layers,
        "op_times": op_times, "traced_op_times": traced_op_times,
        "cycle_times": cycle_times, "traced_cycle_times": traced_cycle_times,
        "cycle_wall_times": cycle_wall_times, "loop_times": loop_times,
        "layer_cycles": layer_cycles, "trace_gaps": trace_gaps,
        "attempted": attempted, "failed": failed, "failures": failures,
        "problems": problems, "identical": identical,
        "rss_mb": {"before_cycles": rss_before_cycles, "after_cycles": rss_after_cycles,
                   "peak_set_by": "cycles" if rss_after_cycles > rss_before_cycles
                   else "imports and preparation"},
    }


def summarize(run: dict, trace: bool) -> tuple[dict, dict, list[str]]:
    """End-to-end metrics, per-layer metrics (empty unless traced), and
    problems that make the run incorrect beyond failed operations."""
    problems = list(run["problems"])
    cycle_s = statistics.mean(run["cycle_times"])
    end_to_end = {
        "cycle_s": cycle_s,
        "images_per_s": sum(op.images for op in run["prepared"].ops) / cycle_s,
        "setup_s": statistics.median(run["setup_times"]),
        "peak_rss_mb": run["rss_mb"]["after_cycles"],
    }
    per_layer: dict[str, float] = {}
    if trace:
        cycles = run["layer_cycles"] or [{}]
        if not run["layer_cycles"]:
            problems.append("no traced cycle completed")
        for name, _, _ in PER_LAYER:
            if name.startswith("synth."):
                per_layer[name] = run["setup_layers"].get(name, 0)
            elif name in COUNTS:
                values = {c[name] for c in cycles if name in c}
                if len(values) > 1:
                    problems.append(f"{name} differs between traced cycles: {values}")
                per_layer[name] = cycles[-1].get(name, 0)
            elif name in cycles[-1]:
                per_layer[name] = statistics.median(c[name] for c in cycles)
            else:
                per_layer[name] = 0.0
        per_layer["report.identical_reruns"] = int(run["identical"])
        per_layer["bench.trace_overhead_s"] = (
            statistics.mean(run["traced_cycle_times"]) - cycle_s)
    return end_to_end, per_layer, problems


def environment(seed: int, sensitivity: float) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "page_cache": "warm: the cohort is read right after set-up wrote it; "
                      "caches are never dropped, so cold-cache reads are not measured",
        "load": "one closed-loop caller in one single-threaded process",
        "timings": f"reference seconds: wall time x ({REF_LOOP_S} s / the mean of the "
                   f"{REF_LOOP_ITEMS}-item reference loop's times just before and "
                   f"after) ** {sensitivity}; *_wall_s are the wall times",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "koheval" / "__init__.py").is_file():
        sys.stderr.write(f"error: no koheval sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import koheval
    if Path(koheval.__file__).resolve().parent != SRC / "koheval":
        sys.stderr.write(f"error: koheval imported from {koheval.__file__}, "
                         f"not from {SRC}\n")
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}\n")
        return 2

    work = ROOT / ".bench-work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    end_to_end, per_layer, problems = summarize(run, bool(args.trace))
    prepared = run["prepared"]
    detail = {
        "workload": workload.name,
        "why": workload.why,
        "environment": environment(args.seed, workload.host_sensitivity),
        "input": prepared.shape,
        "setup_s": percentile_summary(run["setup_times"]),
        "setup_wall_s": percentile_summary(run["setup_wall_times"]),
        "cycles_s": percentile_summary(run["cycle_times"]),
        "cycles_wall_s": percentile_summary(run["cycle_wall_times"]),
        "reference_loop_s": percentile_summary(run["loop_times"]),
        "operations_s": {name: percentile_summary(times)
                         for name, times in run["op_times"].items()},
        "peak_rss_mb": run["rss_mb"],
        "failed_ops": run["failed"] / run["attempted"],
        "failures": run["failures"][:5],
        "problems": problems,
    }
    if args.trace:
        detail["traced_operations_s"] = {
            name: percentile_summary(times)
            for name, times in run["traced_op_times"].items()}
        detail["trace_overhead_s"] = {
            name: detail["traced_operations_s"][name]["median"]
            - detail["operations_s"][name]["median"]
            for name in run["op_times"]}
        detail["trace_gap_s"] = {"max": max(run["trace_gaps"], default=None),
                                 "tolerance": TRACE_TOLERANCE_S}
    print(json.dumps(detail, indent=1))
    measured = {**end_to_end, **per_layer}
    for name, unit, _ in END_TO_END + PER_LAYER:
        if name in measured:
            print(f"{name:<32} {measured[name]:>16.6g} {unit}")

    shown = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": run["failed"] == 0 and not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit, _ in shown},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
