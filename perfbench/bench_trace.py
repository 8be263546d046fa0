"""Outside-in span tracing of the program's public entry points.

The traced run installs wrappers on the classes and modules of
``src/repro`` from here; nothing under ``src/`` knows it is traced.
Each wrapper records one span (name, start, end, parent).  Self time —
the span's time minus the time its child spans cover — is summed per
layer as the spans close, so a whole run costs O(layers) memory; full
spans are kept only for the first few measured instants and written out
as JSONL at the end.

Spans are recorded only inside a root span (one per phase of an
instant: the tick, and on ``serve`` the delivery round and the
subscription churn), so the layer self times of an instant plus its
unattributed root self time add up to the instant exactly.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import update_wrapper

#: Layers whose self times add up (with ``unattributed``) to the traced
#: instant, in report order.
LAYERS = (
    "city.devices.sim",
    "city.devices.feeder",
    "workload.source",
    "model.services.invoke",
    "model.services.providers",
    "pems.table_manager.insert",
    "pems.erm.tick",
    "pems.local_erm.tick",
    "pems.sources",
    "pems.query_processor.discovery",
    "exec.scheduler.plan",
    "continuous.continuous_query.evaluate",
    "continuous.continuous_query.carry",
    "fed.zone.advance",
    "fed.gather.merge",
    "server.service.subscribe",
    "server.service.publish",
    "server.delivery.enqueue",
    "server.session.pump",
    "unattributed",
)

#: Layer groups for the predicted split (shares of the traced instant).
GROUPS = {
    "ingest": (
        "city.devices.sim",
        "city.devices.feeder",
        "workload.source",
        "model.services.invoke",
        "model.services.providers",
        "pems.table_manager.insert",
        "pems.sources",
    ),
    "evaluate": (
        "exec.scheduler.plan",
        "continuous.continuous_query.evaluate",
        "continuous.continuous_query.carry",
        "fed.zone.advance",
        "fed.gather.merge",
    ),
    "server": (
        "server.service.subscribe",
        "server.service.publish",
        "server.delivery.enqueue",
        "server.session.pump",
    ),
}


class SpanRecorder:
    """Span stack, per-layer self-time sums and a bounded span sample."""

    def __init__(self):
        self._stack: list[list] = []  # frames: [child_seconds, id, layer]
        self._next_id = 0
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Per-key self seconds of keyed layers (per-query evaluate time).
        self.keyed: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        self.counts: Counter = Counter()
        #: (id, parent, name, start, end) of the kept spans.
        self.spans: list[tuple] = []
        self.keep = False
        #: Durations of root spans by name (seconds).
        self.roots: dict[str, list[float]] = defaultdict(list)

    def reset(self) -> None:
        """Forget every sum (the end of warm-up)."""
        self.self_seconds.clear()
        self.calls.clear()
        self.keyed.clear()
        self.counts.clear()
        self.roots.clear()

    def wrap(self, layer: str, name: str, fn, key=None, after=None):
        """``fn`` wrapped in a span of ``layer``.  ``key(args)`` splits
        the layer's self time by key; ``after(args, result)`` updates
        :attr:`counts` from the call."""
        recorder = self
        stack = self._stack
        perf = time.perf_counter
        self_seconds = self.self_seconds
        calls = self.calls

        def wrapper(*args, **kwargs):
            if not stack:  # outside any instant: not part of the trace
                return fn(*args, **kwargs)
            frame = [0.0, recorder._next_id, layer]
            recorder._next_id += 1
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                self_seconds[layer] += own
                calls[name] += 1
                stack[-1][0] += duration
                if key is not None:
                    recorder.keyed[layer][key(args)] += own
                if recorder.keep:
                    recorder.spans.append(
                        (frame[1], stack[-1][1], name, start, end)
                    )
            if after is not None:
                after(args, result)
            return result

        update_wrapper(wrapper, fn)
        return wrapper

    def current_layer(self) -> str | None:
        """The layer of the innermost open span (in an ``after`` hook:
        the caller's)."""
        return self._stack[-1][2] if self._stack else None

    @contextmanager
    def root(self, name: str, layer: str = "unattributed"):
        """One phase of an instant; its own self time goes to ``layer``."""
        frame = [0.0, self._next_id, layer]
        self._next_id += 1
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.self_seconds[layer] += duration - frame[0]
            self.roots[name].append(duration)
            if self.keep:
                self.spans.append((frame[1], None, name, start, end))

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


_MISSING = object()


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, owner, attribute: str, value) -> None:
        """Replace ``owner.attribute``; an inherited attribute is
        shadowed on ``owner`` and the shadow removed on undo."""
        self._undo.append((owner, attribute, owner.__dict__.get(attribute, _MISSING)))
        setattr(owner, attribute, value)

    def undo(self) -> None:
        while self._undo:
            owner, attribute, value = self._undo.pop()
            if value is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, value)


def _listener_layer(listener) -> str:
    owner = type(getattr(listener, "__self__", None)).__name__
    if owner == "EnvironmentResourceManager":
        return "pems.erm.tick"
    if owner.endswith("LocalEnvironmentResourceManager") or owner.endswith(
        "LocalERM"
    ):
        return "pems.local_erm.tick"
    if owner.endswith("PEMS"):
        return "pems.sources"
    if owner.endswith("QueryProcessor"):
        return "pems.query_processor.discovery"
    return "unattributed"


def install(recorder: SpanRecorder) -> Patches:
    """Wrap every traced entry point; returns the undo handle.

    Must run before the workload is built: clock listeners are wrapped
    as they register.
    """
    from bench_serve import ReadingsSource
    from repro.city import devices
    from repro.continuous.continuous_query import ContinuousQuery
    from repro.continuous.time import VirtualClock
    from repro.exec.scheduler import TickScheduler
    from repro.fed.gather import GatherExec
    from repro.fed.zone import Zone
    from repro.model.services import ServiceRegistry
    from repro.pems.table_manager import ExtendedTableManager
    from repro.server import protocol, session
    from repro.server.delivery import DeliveryQueue
    from repro.server.service import SubscriptionServer

    patches = Patches()
    wrap = recorder.wrap
    counts = recorder.counts

    def method(owner, attribute, layer, key=None, after=None):
        name = f"{owner.__name__}.{attribute}"
        original = owner.__dict__[attribute]
        patches.set(owner, attribute, wrap(layer, name, original, key, after))

    # Clock listeners: ERM, sources and query-processor phases.
    on_tick = VirtualClock.on_tick
    wrapped_listeners: dict = {}

    def traced_on_tick(clock, listener):
        layer = _listener_layer(listener)
        name = getattr(listener, "__qualname__", type(listener).__name__)
        traced = wrap(layer, name, listener)
        wrapped_listeners[listener] = traced
        return on_tick(clock, traced)

    remove_listener = VirtualClock.remove_listener

    def traced_remove_listener(clock, listener):
        return remove_listener(clock, wrapped_listeners.pop(listener, listener))

    patches.set(VirtualClock, "on_tick", traced_on_tick)
    patches.set(VirtualClock, "remove_listener", traced_remove_listener)

    # Ingest: feeders, registry, device simulators, table writes.
    method(devices.FleetTelemetryFeeder, "__call__", "city.devices.feeder")
    method(ReadingsSource, "__call__", "workload.source")
    method(ServiceRegistry, "invoke", "model.services.invoke")
    method(ServiceRegistry, "providers", "model.services.providers")
    for owner, attributes in (
        (devices.SmartMeter, ("load",)),
        (devices.GridRelay, ("throughput", "status")),
        (devices.Substation, ("utilization",)),
        (devices.SpareStation, ("frequency",)),
        (devices.WeatherStation, ("temperature", "wind")),
    ):
        for attribute in attributes:
            method(owner, attribute, "city.devices.sim")

    def count(name):
        def after(args, result):
            counts[name] += result
            if recorder.current_layer() == "pems.query_processor.discovery":
                counts["discovery_rows"] += result

        return after

    def count_mapping_rows(args, result):
        counts["rows_inserted"] += result
        counts["mapping_rows"] += len(args[2])

    method(
        ExtendedTableManager,
        "insert",
        "pems.table_manager.insert",
        after=count_mapping_rows,
    )
    method(
        ExtendedTableManager,
        "insert_tuples",
        "pems.table_manager.insert",
        after=count("rows_inserted"),
    )
    method(
        ExtendedTableManager,
        "delete_tuples",
        "pems.table_manager.insert",
        after=count("rows_deleted"),
    )

    # Scheduling and evaluation.
    method(TickScheduler, "plan", "exec.scheduler.plan")

    def delta_rows(args, result):
        query = args[0]
        delta = query.last_reported_delta
        counts["delta_rows_out"] += len(delta.inserted) + len(delta.deleted)

    method(
        ContinuousQuery,
        "evaluate_at",
        "continuous.continuous_query.evaluate",
        key=lambda args: id(args[0]),
        after=delta_rows,
    )
    method(ContinuousQuery, "carry_forward", "continuous.continuous_query.carry")

    # Federation.
    method(Zone, "advance", "fed.zone.advance")
    patches.set(
        GatherExec,
        "tick",
        wrap("fed.gather.merge", "GatherExec.tick", GatherExec.tick),
    )

    # Server.
    method(SubscriptionServer, "subscribe", "server.service.subscribe")
    method(SubscriptionServer, "_publish", "server.service.publish")
    method(DeliveryQueue, "publish", "server.delivery.enqueue")
    encode = wrap("server.session.pump", "protocol.encode", protocol.encode)
    patches.set(protocol, "encode", encode)
    patches.set(session, "encode", encode)
    delta_message = session.ClientSession.__dict__["_delta_message"].__func__
    patches.set(
        session.ClientSession,
        "_delta_message",
        staticmethod(
            wrap(
                "server.session.pump",
                "ClientSession._delta_message",
                delta_message,
            )
        ),
    )
    return patches
