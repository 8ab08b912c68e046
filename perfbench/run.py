"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload {fit,query,serve,stream} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run sets up the workload several times, before
the window and again after its checks (the median is ``setup_s``),
measures it for ``--seconds`` and prints every end-to-end metric.
With ``--trace 1`` it measures half the time untraced and half traced,
and prints the per-layer metrics, including the tracing overhead
between the two halves; the spans go to
``.perfbench/trace-<workload>-seed<N>.json``.  Either way the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``BENCHMARK.json`` at the repository root lists the metrics printed,
with their units.  Outputs are checked after each window (see each
workload's ``verify`` and ``quality``).  A failed check exits with
status 1.  A run that does not finish within :data:`DEADLINE_S`
seconds stops its worker processes and exits with status 3 without a
result.  Without the program's
sources or ``BENCHMARK.json`` next to the benchmark the run exits with
status 2.
"""

from __future__ import annotations

import argparse
import faulthandler
import gc
import json
import multiprocessing
import os
import signal
import sys
import tempfile
import threading
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
#: Wall-clock budget of one run, set-up and checks included.
DEADLINE_S = 170.0
#: Set-ups per untraced run, before the window and again after the
#: checks, so they sample the host at two times; ``setup_s`` is their
#: median.  Cheap set-ups repeat more often, up to the maximum or the
#: time budget of each phase.
SETUP_REPEATS = (2, 4)
SETUP_BUDGET_S = 1.5
WORKLOADS = ("fit", "query", "serve", "stream")


def _workload(name: str, seed: int):
    from perfbench.fit import FitWorkload
    from perfbench.query import QueryWorkload
    from perfbench.serve import ServeWorkload
    from perfbench.stream import StreamWorkload

    classes = {
        "fit": FitWorkload,
        "query": QueryWorkload,
        "serve": ServeWorkload,
        "stream": StreamWorkload,
    }
    return classes[name](seed, WORKDIR)


def _setup(workload, repeats: tuple[int, int], tracer, *, fresh: bool) -> list[float]:
    """Time ``workload.setup`` repeatedly; a set-up replaces the one before."""
    from perfbench.common import now

    least, most = repeats
    times: list[float] = []
    while len(times) < least or (len(times) < most and sum(times) < SETUP_BUDGET_S):
        if times or not fresh:
            workload.teardown()
        # Start each timed set-up, like each window, from a collected heap,
        # so garbage left by the one before is not collected inside it.
        gc.collect()
        began = now()
        if tracer is None:
            workload.setup()
        else:
            with tracer.installed(), tracer.span("bench.setup"):
                workload.setup()
        times.append(now() - began)
    return times


def _end_to_end(workload, seconds: float):
    """Set up, measure one window, check it, set up again; every e2e metric."""
    from perfbench.common import median, peak_rss_mb

    setup_times = _setup(workload, SETUP_REPEATS, None, fresh=True)
    gc.collect()
    window = workload.window(seconds, None)
    # Before any check: the checks build reference fits of their own.
    rss = peak_rss_mb()

    p50, tail, percentile, samples = window.latency_summary()
    print(
        f"{workload.name}: {window.ops} ops, {samples} latency samples in "
        f"{len(window.latency_chunks)} chunks, tail = p{percentile:.2f} (median over chunks)"
    )
    workload.verify(window)
    f1, error = workload.quality(window)
    invocations = workload.model_invocations()
    setup_times += _setup(workload, SETUP_REPEATS, None, fresh=False)
    return window, {
        "setup_s": median(setup_times),
        "frames_per_s": median(window.frame_rates),
        "ops_per_s": median(window.op_rates),
        "latency_p50_ms": p50 * 1e3,
        "latency_tail_ms": tail * 1e3,
        "ok_rate": 1.0 - window.failed / max(window.attempted, 1),
        "model_invocations": invocations,
        "retrieval_f1": f1,
        "agg_error": error,
        "peak_rss_mb": rss,
    }


def _rate(workload, window) -> float:
    from perfbench.common import median

    return median(window.frame_rates if workload.primary == "frames" else window.op_rates)


def _per_layer(workload, seconds: float, tracer, seed: int):
    """Untraced half, traced half; per-layer metrics from the traced one."""
    from perfbench.base import ratio
    from perfbench.common import Window
    from perfbench.tracing import LAYERS

    gc.collect()
    base = workload.window(seconds / 2, None)
    before = workload.snapshot()
    sim_before = workload.sim_model_s
    gc.collect()
    with tracer.installed():
        traced = workload.window(seconds / 2, tracer)
    after = workload.snapshot()
    checked = Window(
        attempted=base.attempted + traced.attempted,
        failed=base.failed + traced.failed,
        failures=base.failures + traced.failures,
    )
    workload.verify(checked)
    workload.quality(checked)

    table = tracer.layer_table()
    counters = tracer.snapshot()
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        for field, value in table.get(layer, {}).items():
            metrics[f"{layer}.{field}"] = value
    for key in (
        "inference.detect_wave.frames",
        "inference.store.hits",
        "inference.store.misses",
        "geometry.matching.hungarian.cells",
        "spatial.n_rows",
        "spatial.n_leaves",
        "core.index.count_cache_lookups",
        "spatial.rows_total",
        "streaming.pump.events",
    ):
        metrics[key] = counters.get(key, 0)
    visited = sum(
        counters.get(f"spatial.tiles_{kind}", 0) for kind in ("pruned", "contained", "boundary")
    )
    _, _, percentile, samples = base.latency_summary()
    metrics.update(
        {
            "core.index.count_cache_hit_ratio": ratio(
                counters.get("core.index.count_cache_hits", 0),
                counters.get("core.index.count_cache_lookups", 0),
            ),
            "spatial.tiles_visited": visited,
            "spatial.tile_prune_rate": ratio(counters.get("spatial.tiles_pruned", 0), visited),
            "spatial.row_scan_fraction": ratio(
                counters.get("spatial.rows_scanned", 0), counters.get("spatial.rows_total", 0)
            ),
            "serving.dispatcher.mean_batch": ratio(
                counters.get("serving.mp.execute_entries", 0),
                counters.get("serving.mp.execute_requests", 0),
            ),
            "utils.timing.ledger.sim_model_s": workload.sim_model_s - sim_before,
            "bench.latency_tail_pct": percentile,
            "bench.latency_samples": samples,
            "trace.overhead_pct": 100.0 * (1.0 - _rate(workload, traced) / _rate(workload, base)),
            **tracer.accounting(),
            **workload.layer_metrics(before, after),
        }
    )
    print(f"{'layer':<34} {'calls':>9} {'busy_s':>9} {'self_s':>9}")
    for layer, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        print(f"{layer:<34} {row['calls']:>9} {row['busy_s']:>9.4f} {row['self_s']:>9.4f}")
    tracer.dump(
        WORKDIR / f"trace-{workload.name}-seed{seed}.json",
        {"workload": workload.name, "seed": seed, "metrics": metrics},
    )
    return checked, metrics


def _measure(args, manifest: dict) -> dict:
    from perfbench.tracing import Tracer

    workload = _workload(args.workload, args.seed)
    try:
        if args.trace:
            tracer = Tracer()
            _setup(workload, (1, 1), tracer, fresh=True)
            window, metrics = _per_layer(workload, args.seconds, tracer, args.seed)
            # A layer the workload never reaches reads 0.
            listed = manifest["per_layer"]
            metrics = {entry["name"]: metrics.get(entry["name"], 0.0) for entry in listed}
        else:
            window, metrics = _end_to_end(workload, args.seconds)
            listed = manifest["end_to_end"]
    finally:
        workload.close()
    for reason in window.failures:
        print(f"check failed: {reason}", file=sys.stderr)
    return {
        "correct": window.failed == 0,
        "attempted": int(window.attempted),
        "failed": int(window.failed),
        "metrics": {
            entry["name"]: {"value": float(metrics[entry["name"]]), "unit": entry["unit"]}
            for entry in listed
        },
    }


def _stop_children() -> None:
    """Kill and reap every worker process, then multiprocessing's resource tracker.

    Spawning a worker starts the tracker as a child of this process.  Left
    alone it ends only after this process has exited, so the run would
    leave it behind; closing its pipe stops it, and it is reaped here.
    """
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join(timeout=10.0)
    tracker = resource_tracker._resource_tracker
    pid, fd = tracker._pid, tracker._fd
    if pid is None:
        return
    tracker._pid = tracker._fd = None
    os.close(fd)
    for _ in range(100):
        if os.waitpid(pid, os.WNOHANG)[0] == pid:
            return
        threading.Event().wait(0.05)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Everything the run writes stays in the checkout, and the
    # interpreter leaves no bytecode behind (worker processes included).
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    (WORKDIR / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(WORKDIR / "tmp")
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    manifest_path = ROOT / "BENCHMARK.json"
    if not manifest_path.is_file():
        print(f"perfbench: no metric list at {manifest_path}", file=sys.stderr)
        return 2
    manifest = json.loads(manifest_path.read_text())

    outcome: dict = {}

    def guarded() -> None:
        try:
            outcome["result"] = _measure(args, manifest)
        except BaseException:
            outcome["error"] = traceback.format_exc()

    worker = threading.Thread(target=guarded, name="perfbench-workload", daemon=True)
    worker.start()
    worker.join(timeout=DEADLINE_S)
    if worker.is_alive():
        print(f"perfbench: {args.workload} ran past {DEADLINE_S:.0f} s", file=sys.stderr)
        faulthandler.dump_traceback(all_threads=True)
        _stop_children()
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(3)  # the hung workload thread cannot be joined
    _stop_children()
    if "error" in outcome:
        print(outcome["error"], file=sys.stderr)
        return 1
    result = outcome["result"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # Import the benchmark as the ``perfbench`` package, not its files as
    # top-level modules.
    sys.path[0] = str(ROOT)
    raise SystemExit(main())
