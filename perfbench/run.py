"""The repository benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload city --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the workload twice (untraced, then with every layer's
entry points wrapped from ``bench_trace``) and reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the run's metadata.  The exit code is 0 only when every
correctness check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import sys
import time
from array import array

import bench_common as common
from bench_common import ROOT, WARMUP, log, median, percentile

WORKLOADS = ("city", "city-chaos", "serve")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Measured instants whose full spans the traced run writes out.
KEEP_SPAN_INSTANTS = 2

#: The end-to-end metrics and their units, in report order.
END_TO_END = (
    ("tick_ms_p50", "ms"),
    ("tick_ms_p90", "ms"),
    ("readings_per_s", "1/s"),
    ("deliveries_per_s", "1/s"),
    ("delivery_ms_p50", "ms"),
    ("delivery_ms_p90", "ms"),
    ("setup_s", "s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Put ``src/`` on the path and import the program; exit 2 when the
    checkout holds no program to measure."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        log(f"perfbench: no program under {source} (expected src/repro)")
        sys.exit(2)
    sys.path.insert(0, str(source))
    try:
        import repro  # noqa: F401
    except ImportError as error:
        log(f"perfbench: cannot import the program: {error}")
        sys.exit(2)


# -- measuring one phase ----------------------------------------------------------


class Phase:
    """Per-instant samples of one measured stretch of instants, with the
    host probe timed before each instant."""

    def __init__(self, probe: common.HostProbe):
        self.probe = probe
        self.first_probe = len(probe.samples)
        self.ticks: list[float] = []
        self.latencies: list[array] = []
        self.instants: list[float] = []
        self.rows = 0
        self.messages = 0

    def add(self, sample, rows: int, messages: int) -> None:
        tick, latencies, instant = sample
        self.ticks.append(tick)
        self.latencies.append(array("d", latencies))
        self.instants.append(instant)
        self.rows += rows
        self.messages += messages

    def __len__(self) -> int:
        return len(self.ticks)

    def factors(self) -> list[float]:
        """The host factor of every instant (see ``HostProbe``)."""
        first = self.first_probe
        return [self.probe.factor(first + i) for i in range(len(self))]

    def figures(self) -> tuple[dict, dict]:
        """The end-to-end figures, host-normalized and raw."""
        factors = self.factors()

        def summary(ticks, latencies, instants):
            return {
                "tick_ms_p50": percentile(ticks, 0.5) * 1000.0,
                "tick_ms_p90": percentile(ticks, 0.9) * 1000.0,
                "readings_per_s": self.rows / sum(ticks),
                "deliveries_per_s": self.messages / sum(instants),
                "delivery_ms_p50": percentile(latencies, 0.5) * 1000.0,
                "delivery_ms_p90": percentile(latencies, 0.9) * 1000.0,
            }

        raw = summary(
            self.ticks,
            [x for xs in self.latencies for x in xs],
            self.instants,
        )
        normalized = summary(
            [t * f for t, f in zip(self.ticks, factors)],
            [x * f for xs, f in zip(self.latencies, factors) for x in xs],
            [t * f for t, f in zip(self.instants, factors)],
        )
        return normalized, raw


class Runner:
    """Runs one workload's instants synchronously, whatever its kind."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.serve = workload == "serve"
        self.loop = asyncio.new_event_loop() if self.serve else None
        self.run = None
        #: Warm-up and measurement end on a multiple of this instant: on
        #: ``serve``, right after the slow subscribers' flush, so every
        #: run's memory is read at the same phase of their cycle.
        if self.serve:
            from bench_serve import SLOW_CADENCE

            self.cycle = SLOW_CADENCE
        else:
            self.cycle = 1
        # Correctness totals over every workload instance of the run.
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metadata: dict = {}
        #: ``serve`` queue spans dropped for netting to no change.
        self.net_zero_drops = 0

    def _await(self, coroutine):
        return self.loop.run_until_complete(coroutine)

    def build(self):
        """Construct the workload and finish its first instant."""
        if self.serve:
            from bench_serve import ServeRun

            async def build():
                run = ServeRun(self.seed)
                await run.subscribe_all()
                await run.instant()
                return run

            self.run = self._await(build())
        else:
            from bench_city import CityRun

            self.run = CityRun(self.workload, self.seed)
            self.run.instant()
        return self.run

    @property
    def at_cycle_end(self) -> bool:
        return self.run.pems.clock.now % self.cycle == 0

    def instant(self, recorder=None):
        if self.serve:
            roots = recorder.root if recorder is not None else None
            return self._await(self.run.instant(roots))
        tick_root = (lambda: recorder.root("tick")) if recorder is not None else None
        return self.run.instant(tick_root)

    def close(self) -> None:
        """Finish the current instance's correctness checks, add them to
        the run's totals and tear the instance down."""
        run = self.run
        if run is None:
            return
        if self.serve:
            self._await(run.finish())
        self.attempted += run.attempted
        self.failed += run.failed
        self.errors.extend(run.errors)
        self.net_zero_drops += getattr(run, "dropped", 0)
        self.metadata = run.metadata()
        if self.serve:
            self._await(run.close())
        else:
            run.close()
        self.run = None
        gc.collect()

    def shutdown(self) -> None:
        self.close()
        if self.loop is not None:
            self.loop.close()


def timed_setup(runner: Runner, probe: common.HostProbe) -> tuple[float, float]:
    """One set-up: ``(host-normalized seconds, raw seconds)``; the host
    factor is that of the probes right before and after it."""
    before = probe()
    started = time.perf_counter()
    runner.build()
    elapsed = time.perf_counter() - started
    after = probe()
    return elapsed * common.PROBE_REFERENCE_MS * 2.0 / (before + after), elapsed


def measure(
    runner: Runner,
    seconds: float,
    probe: common.HostProbe,
    recorder=None,
    on_instant=None,
) -> Phase:
    """Closed loop for ``seconds`` of wall time (at least three instants,
    ending at a cycle end), timing the host probe before each instant."""
    phase = Phase(probe)
    rows, messages = counters(runner)
    deadline = time.perf_counter() + seconds
    while (
        time.perf_counter() < deadline or len(phase) < 3 or not runner.at_cycle_end
    ):
        probe()
        sample = runner.instant(recorder)
        now_rows, now_messages = counters(runner)
        phase.add(sample, now_rows - rows, now_messages - messages)
        rows, messages = now_rows, now_messages
        if on_instant is not None:
            on_instant(len(phase))
    return phase


def warm_up(runner: Runner, recorder=None) -> None:
    for _ in range(WARMUP):
        runner.instant(recorder)
    while not runner.at_cycle_end:
        runner.instant(recorder)


def counters(runner: Runner) -> tuple[int, int]:
    """Rows ingested and messages delivered so far."""
    return runner.run.ingested_rows(), runner.run.messages


# -- the two kinds of run ---------------------------------------------------------


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    probe = common.HostProbe()
    setups = [timed_setup(runner, probe)]
    warm_up(runner)
    gc.collect()
    rss_before = common.rss_kb()
    phase = measure(runner, seconds, probe)
    gc.collect()
    rss_growth = (common.rss_kb() - rss_before) / len(phase)
    # The other set-ups come after the measured stretch: memory freed by
    # a torn-down instance would otherwise absorb the RSS growth.
    for _ in range(SETUP_REPEATS - 1):
        runner.close()
        setups.append(timed_setup(runner, probe))
    values, raw = phase.figures()
    values["setup_s"] = median(normalized for normalized, _ in setups)
    raw["setup_s"] = median(elapsed for _, elapsed in setups)
    extra = {
        # Metadata, not a metric: on ``serve`` the growth is small next to
        # the steps in which the heap grows, and ten runs spread 0.1-0.36.
        "rss_growth_kb_per_tick": rss_growth,
        "instants": len(phase),
        "delivery_samples": sum(map(len, phase.latencies)),
        "raw": raw,
        "host_factor_median": median(phase.factors()),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}, extra


def traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    import bench_trace
    from bench_layers import LayerProbe

    host = common.HostProbe()
    # Untraced half: the baseline for the trace overhead.
    runner.build()
    warm_up(runner)
    baseline = measure(runner, seconds / 2.0, host)
    runner.close()

    recorder = bench_trace.SpanRecorder()
    patches = bench_trace.install(recorder)
    try:
        runner.build()
        warm_up(runner, recorder)
        layers = LayerProbe(runner.run, recorder)
        recorder.reset()
        recorder.keep = True

        def stop_keeping(count):
            if count >= KEEP_SPAN_INSTANTS:
                recorder.keep = False

        phase = measure(runner, seconds / 2.0, host, recorder, stop_keeping)
        values = layers.finish(len(phase))
        runner.close()
    finally:
        patches.undo()
    # Both sides host-normalized, like the end-to-end tick figures.
    traced_ticks = [t * f for t, f in zip(recorder.roots["tick"], phase.factors())]
    tick_traced = percentile(traced_ticks, 0.5)
    tick_untraced = baseline.figures()[0]["tick_ms_p50"] / 1000.0
    values["obs.trace_overhead"] = (tick_traced / tick_untraced, "ratio")
    values["traced_tick_ms_p50"] = (tick_traced * 1000.0, "ms")
    values["untraced_tick_ms_p50"] = (tick_untraced * 1000.0, "ms")
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    trace_file = out / f"{runner.workload}-seed{runner.seed}.trace.jsonl"
    recorder.write_jsonl(trace_file)
    extra = {
        "instants": len(phase),
        "baseline_instants": len(baseline),
        "host_factor_median": median(phase.factors()),
        "spans_file": str(trace_file.relative_to(ROOT)),
        "spans_kept": len(recorder.spans),
    }
    return values, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        log("perfbench: --seconds must be positive")
        return 2
    import_program()
    calib_before = common.calib_ms()
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            values, extra = traced(runner, args.seconds)
        else:
            values, extra = end_to_end(runner, args.seconds)
    finally:
        runner.shutdown()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **runner.metadata,
        **({"net_zero_drops": runner.net_zero_drops} if runner.serve else {}),
        **common.host_metadata(),
        **extra,
    }
    attempted, failed, errors = runner.attempted, runner.failed, runner.errors
    calib = (calib_before + common.calib_ms()) / 2.0
    meta["host_calib_ms"] = calib
    if args.trace:
        values["host.calib_ms"] = (calib, "ms")
    meta["failed_ratio"] = failed / attempted if attempted else None
    for error in errors:
        log(f"perfbench: FAILED {error}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()
        },
    }
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
