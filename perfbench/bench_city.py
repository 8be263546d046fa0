"""The ``city`` and ``city-chaos`` workloads.

Both build a generated city with :func:`repro.city.scenario.build_city`
and drive it in a closed loop: an instant is one ``PEMS.tick`` followed
by the delivery of its results to one consumer, the benchmark itself,
which reads every standing query's reported delta and encodes it with
the server's wire format (``repro.server.protocol``).  The next instant
starts when that is done.
"""

from __future__ import annotations

import time

from bench_common import WARMUP
from repro.city.cascade import CascadeSpec
from repro.city.config import CityConfig
from repro.city.scenario import build_city
from repro.server.protocol import encode, render_rows

#: (zones, meters, relays, stations, spares, weather) per workload.
SHAPES = {
    "city": (8, 240, 8, 2, 1, 1),
    "city-chaos": (8, 60, 4, 2, 1, 1),
}

ENGINES = {"city": "shared", "city-chaos": "federated"}

#: Meter failure probability per instant on ``city-chaos``.
CHAOS_CHURN = 0.2

#: Instants after the end of warm-up at which the chaos cascade crashes
#: its substation.
CRASH_AFTER_WARMUP = 10


def city_config(workload: str, seed: int) -> CityConfig:
    zones, meters, relays, stations, spares, weather = SHAPES[workload]
    chaos = workload == "city-chaos"
    return CityConfig(
        name=f"perfbench-{workload}",
        seed=f"perfbench-{workload}-{seed}",
        zones=zones,
        meters_per_zone=meters,
        relays_per_zone=relays,
        stations_per_zone=stations,
        spare_stations_per_zone=spares,
        weather_per_zone=weather,
        alert_sinks=1,
        churn_rate=CHAOS_CHURN if chaos else 0.0,
        cascade=(
            CascadeSpec(
                zone=seed % zones,
                station=seed % stations,
                crash_at=1 + WARMUP + CRASH_AFTER_WARMUP,
                flicker_ticks=8,
                stagger=1,
            )
            if chaos
            else None
        ),
    )


class CityRun:
    """One built city, its consumer and its correctness gate."""

    def __init__(self, workload: str, seed: int, engine: str | None = None):
        self.workload = workload
        self.config = city_config(workload, seed)
        self.engine = engine or ENGINES[workload]
        self.scenario = build_city(
            self.config, engine=self.engine, backend="row", observe="metrics"
        )
        self.pems = self.scenario.pems
        self.queries = dict(sorted(self.scenario.queries.items()))
        self.stations = frozenset(
            spec.reference for spec in self.scenario.topology.stations
        )
        self.metrics = self.pems.obs.metrics
        self.streams = [
            self.pems.environment.relation(name)
            for name in (
                "load_readings",
                "station_telemetry",
                "relay_telemetry",
                "weather_telemetry",
            )
        ]
        # Counters of the closed loop.
        self.attempted = 0
        self.failed = 0
        self.failures_seen = 0
        self.messages = 0
        self.errors: list[str] = []

    # -- the closed loop --------------------------------------------------------

    def instant(self, tick_root=None):
        """One instant: tick, then deliver every changed result.

        Returns ``(tick_seconds, delivery_latencies, instant_seconds)``;
        ``tick_root`` is an optional context-manager factory wrapping the
        tick (the traced run's root span).
        """
        started = time.perf_counter()
        if tick_root is None:
            now = self.pems.tick()
        else:
            with tick_root():
                now = self.pems.tick()
        ticked = time.perf_counter()
        latencies = []
        for name, continuous in self.queries.items():
            result = continuous.last_result
            if result is None or result.instant != now:
                continue
            delta = continuous.last_reported_delta
            if not delta:
                continue
            encode(
                {
                    "type": "delta",
                    "name": name,
                    "first": now,
                    "last": now,
                    "inserted": render_rows(delta.inserted),
                    "deleted": render_rows(delta.deleted),
                    "coalesced": 0,
                }
            )
            self.messages += 1
            latencies.append(time.perf_counter() - started)
        finished = time.perf_counter()
        self.check(now)
        return ticked - started, latencies, finished - started

    def ingested_rows(self) -> int:
        """Telemetry rows ever inserted into the four streams."""
        return sum(len(stream) for stream in self.streams)

    # -- the correctness gate ---------------------------------------------------

    def check(self, now: int) -> None:
        """Every query evaluated without failure, every station read, and
        each zone's ``zone-load`` equal to the recomputation from this
        instant's ``load_readings`` rows."""
        self.attempted += len(self.queries) + len(self.stations)
        failures = int(self.metrics.value("serena_query_failures_total"))
        if failures != self.failures_seen:
            count = failures - self.failures_seen
            self.fail(f"{count} query failures at {now}", count)
            self.failures_seen = failures
        health = self.queries["station-health"].last_result
        seen = {row[0] for row in health.relation} if health else set()
        missed = len(self.stations - seen)
        if missed:
            self.fail(f"{missed} station readings missed at {now}", missed)
        self.check_zone_load(now)

    def check_zone_load(self, now: int) -> None:
        readings = self.pems.environment.relation("load_readings")
        names = readings.schema.names
        zone_at, load_at = names.index("zone"), names.index("load")
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        for row in readings.inserted_at(now):
            zone = row[zone_at]
            sums[zone] = sums.get(zone, 0.0) + row[load_at]
            counts[zone] = counts.get(zone, 0) + 1
        expected = {
            zone: (sums[zone] / counts[zone], counts[zone]) for zone in sums
        }
        result = self.queries["zone-load"].last_result
        got = {
            row["zone"]: (row["avg_load"], row["readings"])
            for row in result.relation.to_mappings()
        }
        if got != expected:
            self.fail(f"zone-load differs from its recomputation at {now}")

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(reason)

    # -- reporting --------------------------------------------------------------

    def metadata(self) -> dict:
        return {
            "config_digest": self.config.digest(),
            "devices": self.config.device_count,
            "queries": len(self.queries),
            "engine": self.engine,
            "backend": "row",
            "observe": "metrics",
        }

    def close(self) -> None:
        self.pems.close()
