"""Per-layer metrics of the traced run.

Times come from the span recorder (self time per layer, ms per measured
instant).  Counts come from the program's own public counters — the
``serena_*`` series of the PEMS metrics registry, the shared-plan
registry, the delivery queues — read at the start and the end of the
measured window, plus the call counts of the wrapped entry points.
"""

from __future__ import annotations

from bench_trace import GROUPS, LAYERS

#: Metrics-registry series read at both ends of the window:
#: metric name → (series name, labels or None for the family total).
SERIES = {
    "invocations": ("serena_invocation_outcomes_total", None),
    "memo_hits": ("serena_invocation_outcomes_total", {"outcome": "memo_hit"}),
    "failed": ("serena_invocation_outcomes_total", {"outcome": "failed"}),
    "fast_fail": ("serena_invocation_outcomes_total", {"outcome": "fast_failed"}),
    "failovers": ("serena_substitution_failovers_total", None),
    "erm_events": ("serena_discovery_events_total", None),
    "quarantined": ("serena_discovery_events_total", {"kind": "quarantined"}),
    "rebinds": ("serena_substitution_rebinds_total", None),
    "query_failures": ("serena_query_failures_total", None),
    "evaluations": ("serena_query_evaluations_total", None),
    "skips": ("serena_query_skips_total", None),
    "deltas_published": ("serena_server_deltas_published_total", None),
    "messages_sent": ("serena_server_messages_sent_total", None),
    "coalesced": ("serena_server_coalesced_total", None),
    "dropped": ("serena_server_dropped_total", None),
}


def journal_rows(pems) -> int:
    """Rows held in the journals of every relation of the environment
    (inserted plus deleted, over every journaled instant)."""
    environment = pems.environment
    total = 0
    for name in environment.relation_names:
        stored = environment.relation(name)
        changes = getattr(stored, "changes_between", None)
        if changes is None:
            continue
        for _, inserted, deleted in changes(0, stored.last_instant):
            total += len(inserted) + len(deleted)
    return total


class LayerProbe:
    """Reads every counter at the start of the window and turns the
    window's spans and counter deltas into the per-layer metrics."""

    def __init__(self, run, recorder):
        self.run = run
        self.recorder = recorder
        self.pems = run.pems
        self.registry = self.pems.obs.metrics
        self.start = self._series()
        self.journal_start = journal_rows(self.pems)
        self.delivery_start = self._delivery()
        if hasattr(run, "lag_max"):
            run.track_lag = True
            run.lag_max = 0

    def _series(self) -> dict[str, float]:
        registry = self.registry
        values = {}
        for name, (series, labels) in SERIES.items():
            if labels is None:
                values[name] = registry.family_total(series)
            else:
                values[name] = registry.value(series, **labels)
        return values

    def _delivery(self) -> tuple[int, int, int]:
        delivery = getattr(self.run, "delivery", None)
        if delivery is None:
            return (0, 0, 0)
        return delivery.messages, delivery.batches, delivery.bytes

    def finish(self, instants: int) -> dict:
        recorder = self.recorder
        per = 1.0 / instants
        end = self._series()
        moved = {name: end[name] - self.start[name] for name in SERIES}
        counts = recorder.counts
        calls = recorder.calls

        def ms(layer):
            return recorder.self_seconds.get(layer, 0.0) * 1000.0 * per

        def per_tick(value):
            return (value * per, "count/tick")

        def ratio(num, den):
            return (num / den if den else 0.0, "ratio")

        out: dict[str, tuple] = {}
        layer_ms = {layer: ms(layer) for layer in LAYERS}
        instant_ms = sum(layer_ms.values())
        for layer in LAYERS:
            if layer != "unattributed":
                out[f"{layer}_ms"] = (layer_ms[layer], "ms")
        out["unattributed_ms"] = (layer_ms["unattributed"], "ms")
        out["traced_instant_ms"] = (instant_ms, "ms")
        for group, layers in GROUPS.items():
            share = sum(layer_ms[layer] for layer in layers)
            out[f"{group}.share"] = (share / instant_ms, "ratio")

        out["city.devices.rows"] = per_tick(counts["mapping_rows"])
        out["model.services.invoke_calls"] = per_tick(calls["ServiceRegistry.invoke"])
        out["model.services.providers_calls"] = per_tick(
            calls["ServiceRegistry.providers"]
        )
        out["model.services.memo_hit_ratio"] = ratio(
            moved["memo_hits"], moved["invocations"]
        )
        out["model.services.failed"] = per_tick(moved["failed"])
        out["model.services.fast_fail"] = per_tick(moved["fast_fail"])
        out["model.services.failover_served"] = per_tick(moved["failovers"])
        out["pems.table_manager.rows_inserted"] = per_tick(counts["rows_inserted"])
        out["pems.table_manager.rows_deleted"] = per_tick(counts["rows_deleted"])
        out["continuous.xdrelation.journal_rows"] = per_tick(
            journal_rows(self.pems) - self.journal_start
        )
        out["pems.erm.events"] = per_tick(moved["erm_events"])
        out["pems.erm.rebinds"] = per_tick(moved["rebinds"])
        out["pems.erm.quarantined"] = per_tick(moved["quarantined"])
        out["pems.query_processor.discovery_rows"] = per_tick(counts["discovery_rows"])
        out["pems.query_processor.failures"] = per_tick(moved["query_failures"])
        out["exec.scheduler.evaluated"] = per_tick(moved["evaluations"])
        out["exec.scheduler.skipped"] = per_tick(moved["skips"])
        out["exec.scheduler.evaluated_ratio"] = ratio(
            moved["evaluations"], moved["evaluations"] + moved["skips"]
        )
        out["continuous.continuous_query.evaluate_calls"] = per_tick(
            calls["ContinuousQuery.evaluate_at"]
        )
        out["continuous.continuous_query.delta_rows_out"] = per_tick(
            counts["delta_rows_out"]
        )
        per_query = recorder.keyed.get("continuous.continuous_query.evaluate", {})
        out["continuous.continuous_query.evaluate_ms_max_query"] = (
            max(per_query.values(), default=0.0) * 1000.0 * per,
            "ms",
        )
        shared = self.pems.queries.shared
        hits = self.registry.family_total("serena_shared_lease_hits_total")
        misses = self.registry.family_total("serena_shared_lease_misses_total")
        out["exec.shared.plans"] = (len(shared), "count")
        out["exec.shared.refcount"] = (shared.total_refcount, "count")
        out["exec.shared.sharing_ratio"] = ratio(hits, hits + misses)
        out["server.service.subscribe_calls"] = per_tick(
            calls["SubscriptionServer.subscribe"]
        )
        out["server.service.deltas_published"] = per_tick(moved["deltas_published"])
        out["server.delivery.enqueued"] = per_tick(calls["DeliveryQueue.publish"])
        out["server.delivery.coalesced"] = per_tick(moved["coalesced"])
        out["server.delivery.dropped"] = per_tick(moved["dropped"])
        out["server.delivery.lag_max"] = (getattr(self.run, "lag_max", 0), "count")
        messages, batches, written = self._delivery()
        out["server.session.messages"] = per_tick(messages - self.delivery_start[0])
        out["server.session.batches"] = per_tick(batches - self.delivery_start[1])
        out["server.session.bytes_written"] = (
            (written - self.delivery_start[2]) * per,
            "B/tick",
        )
        out["server.protocol.encode_calls"] = per_tick(calls["protocol.encode"])
        out["fed.zone.advance_calls"] = per_tick(calls["Zone.advance"])
        return out
