"""The ``serve`` workload: a subscription server over slowly changing state.

A :class:`~repro.server.service.SubscriptionServer` wraps a shared-engine
PEMS holding ``readings(device, zone, value)`` (20k rows, 0.5% of them
rewritten each instant by a stream source) and a static
``limits(zone, cap)`` table.  A thousand subscribers — each a real
:class:`~repro.server.session.ClientSession` on an in-memory reader and
writer — share a bank of 20 distinct SQL queries.  Every tenth
subscriber is slow: its writer blocks ``drain()`` until every 16th
instant, so its delivery queue overflows and coalesces.  Each instant,
1% of the subscriptions (fast ones) deregister and register again under
a new name.

The closed loop per instant is: tick, delivery round (every fast
subscriber has received the instant's messages), subscription churn.
Between instants, outside the measured time, the benchmark decodes what
each writer received into per-subscription replicas; at the end every
replica must equal the benchmark's own recomputation of its query.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from contextlib import nullcontext

from repro.model.attributes import Attribute
from repro.model.types import DataType
from repro.model.xschema import ExtendedRelationSchema
from repro.pems.pems import PEMS
from repro.server.service import SubscriptionServer
from repro.server.session import ClientSession

DEVICES = 20_000
ZONES = 40
CHANGES_PER_TICK = 100  # 0.5% of the rows
SUBSCRIBERS = 1000
SLOW_EVERY = 10
SLOW_CADENCE = 16
QUEUE_DEPTH = 8
CHURN_PER_TICK = 10  # 1% of the subscriptions
LATENCY_SAMPLE = 10  # every tenth fast subscriber's deliveries are timed

ZONE_NAMES = tuple(f"z{i}" for i in range(ZONES))


def quarter(rng: random.Random) -> float:
    """A value in [0, 100) on quarter steps: exact binary fractions, so
    sums and averages do not depend on summation order."""
    return rng.randrange(400) / 4.0


def zone_cap(zone_index: int) -> float:
    return 97.0 + 0.5 * (zone_index % 5)


def _threshold(t):
    return lambda state, caps: frozenset(
        (d, z, v) for d, (z, v) in state.items() if v > t
    )


def _zone_hot(zone):
    return lambda state, caps: frozenset(
        (d, v) for d, (z, v) in state.items() if z == zone and v > 75.0
    )


def _over_cap(state, caps):
    return frozenset(
        (d, z, v, caps[z]) for d, (z, v) in state.items() if v > caps[z]
    )


def _over_cap_zone_device(state, caps):
    return frozenset((z, d) for d, (z, v) in state.items() if v > caps[z])


def _grouped(values_of, fold):
    def expected(state, caps):
        groups: dict[str, list] = {}
        for d, (z, v) in state.items():
            value = values_of(z, v, caps)
            if value is not None:
                groups.setdefault(z, []).append(value)
        return frozenset((z, fold(vs)) for z, vs in groups.items())

    return expected


def _avg(values):
    return sum(values) / len(values)


#: The distinct SQL queries the subscribers share, with the benchmark's
#: own recomputation of each from the ``readings`` state and the caps.
QUERY_BANK = (
    *(
        (f"SELECT device, zone, value FROM readings WHERE value > {t}", _threshold(t))
        for t in (97.0, 97.5, 98.0, 98.5, 99.0)
    ),
    *(
        (
            f"SELECT device, value FROM readings WHERE zone = '{zone}' "
            "AND value > 75.0",
            _zone_hot(zone),
        )
        for zone in ZONE_NAMES[:6]
    ),
    (
        "SELECT device, zone, value, cap FROM readings NATURAL JOIN limits "
        "WHERE value > cap",
        _over_cap,
    ),
    (
        "SELECT zone, device FROM readings NATURAL JOIN limits WHERE value > cap",
        _over_cap_zone_device,
    ),
    (
        "SELECT zone, avg(value) AS avg_value FROM readings GROUP BY zone",
        _grouped(lambda z, v, caps: v, _avg),
    ),
    (
        "SELECT zone, max(value) AS max_value FROM readings GROUP BY zone",
        _grouped(lambda z, v, caps: v, max),
    ),
    (
        "SELECT zone, avg(value) AS hot_avg FROM readings WHERE value > 50.0 "
        "GROUP BY zone",
        _grouped(lambda z, v, caps: v if v > 50.0 else None, _avg),
    ),
    (
        "SELECT zone, count(*) AS n FROM readings WHERE value > 90.0 GROUP BY zone",
        _grouped(lambda z, v, caps: 1 if v > 90.0 else None, len),
    ),
    (
        "SELECT zone, max(value) AS top FROM readings NATURAL JOIN limits "
        "WHERE value > cap GROUP BY zone",
        _grouped(lambda z, v, caps: v if v > caps[z] else None, max),
    ),
    (
        "SELECT device, value FROM readings WHERE value < 0.75",
        lambda state, caps: frozenset(
            (d, v) for d, (z, v) in state.items() if v < 0.75
        ),
    ),
    (
        "SELECT zone, device FROM readings WHERE value >= 99.75",
        lambda state, caps: frozenset(
            (z, d) for d, (z, v) in state.items() if v >= 99.75
        ),
    ),
)

EXPECTED = dict(QUERY_BANK)


def readings_schema() -> ExtendedRelationSchema:
    return ExtendedRelationSchema(
        "readings",
        [
            Attribute("device", DataType.STRING),
            Attribute("zone", DataType.STRING),
            Attribute("value", DataType.REAL),
        ],
    )


def limits_schema() -> ExtendedRelationSchema:
    return ExtendedRelationSchema(
        "limits",
        [Attribute("zone", DataType.STRING), Attribute("cap", DataType.REAL)],
    )


class ReadingsSource:
    """The per-instant stream source: rewrites ``CHANGES_PER_TICK``
    random devices' values (seeded), one delete and one insert batch."""

    def __init__(self, pems: PEMS, seed: int):
        self.tables = pems.tables
        self.rng = random.Random(f"perfbench-serve-source-{seed}")
        names = [f"d{i:05d}" for i in range(DEVICES)]
        self.names = names
        self.state = {
            names[i]: (ZONE_NAMES[i % ZONES], quarter(self.rng))
            for i in range(DEVICES)
        }
        self.caps = {zone: zone_cap(i) for i, zone in enumerate(ZONE_NAMES)}
        self.rows = 0
        self.tables.insert_tuples(
            "readings", [(d, z, v) for d, (z, v) in self.state.items()]
        )
        self.tables.insert_tuples("limits", list(self.caps.items()))

    def __call__(self, instant: int) -> None:
        rng = self.rng
        state = self.state
        old, new = [], []
        for device in rng.sample(self.names, CHANGES_PER_TICK):
            zone, value = state[device]
            fresh = quarter(rng)
            if fresh == value:
                fresh = (value + 0.25) % 100.0
            old.append((device, zone, value))
            new.append((device, zone, fresh))
            state[device] = (zone, fresh)
        self.rows += self.tables.delete_tuples("readings", old)
        self.rows += self.tables.insert_tuples("readings", new)


def build_pems(seed: int, engine: str = "shared") -> tuple[PEMS, ReadingsSource]:
    pems = PEMS(engine=engine, observe="metrics", backend="row")
    pems.tables.create_relation(readings_schema())
    pems.tables.create_relation(limits_schema())
    source = ReadingsSource(pems, seed)
    pems.add_stream_source(source)
    return pems, source


class Delivery:
    """What every in-memory writer reports to the loop."""

    def __init__(self):
        self.gate = asyncio.Event()  # open: slow writers' drain returns
        self.stamps: list[float] = []
        self.messages = 0
        self.batches = 0
        self.bytes = 0


class MemoryWriter:
    """The ``StreamWriter`` surface a session uses, kept in memory.

    ``writelines`` is the delivery pump's batch write: its lines are
    encoded as they are consumed here, which is when the subscriber
    counts as having received them.  Sampled writers (a fixed tenth of
    the fast subscribers) stamp that moment for the delivery latency.
    """

    def __init__(self, delivery: Delivery, slow: bool, sampled: bool):
        self.delivery = delivery
        self.slow = slow
        self.sampled = sampled
        self.chunks: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.chunks.append(bytes(data))

    def writelines(self, lines) -> None:
        batch = list(lines)
        self.chunks.extend(batch)
        delivery = self.delivery
        delivery.messages += len(batch)
        delivery.batches += 1
        delivery.bytes += sum(map(len, batch))
        if self.sampled:
            delivery.stamps.append(time.perf_counter())

    async def drain(self) -> None:
        if self.slow:
            await self.delivery.gate.wait()

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


class Client:
    """One subscriber: its session, writer and decoded replicas."""

    __slots__ = (
        "index",
        "slow",
        "sql",
        "reader",
        "writer",
        "session",
        "task",
        "name",
        "generation",
        "replica",
    )

    def __init__(self, index: int, server, delivery: Delivery):
        self.index = index
        self.slow = index % SLOW_EVERY == 0
        self.sql = QUERY_BANK[index % len(QUERY_BANK)][0]
        self.reader = asyncio.StreamReader()
        self.writer = MemoryWriter(
            delivery, self.slow, not self.slow and index % LATENCY_SAMPLE == 1
        )
        self.session = ClientSession(
            server, self.reader, self.writer, f"bench{index}"
        )
        self.task = asyncio.ensure_future(self.session.run())
        self.generation = 0
        self.name = f"s{index}.0"
        #: The decoded result of the current subscription.
        self.replica: set = set()

    def send(self, message: dict) -> None:
        self.reader.feed_data((json.dumps(message) + "\n").encode("utf-8"))

    def register(self) -> None:
        self.send({"op": "register", "sql": self.sql, "name": self.name})

    def reregister(self) -> None:
        """Drop the current subscription and register the same query
        under a fresh name (the old pump may still flush after the
        deregistration; the decoder ignores every name but the current
        one)."""
        self.send({"op": "deregister", "name": self.name})
        self.generation += 1
        self.name = f"s{self.index}.{self.generation}"
        self.register()

    @property
    def subscription(self):
        return self.session.subscriptions.get(self.name)

    def decode(self) -> tuple[int, list[str]]:
        """Apply every message received since the last call; returns
        ``(failures, reasons)``."""
        failures = 0
        reasons = []
        for chunk in self.writer.chunks:
            message = json.loads(chunk)
            kind = message["type"]
            if kind == "error":
                failures += 1
                reasons.append(f"bench{self.index}: {message.get('detail')}")
            elif message.get("name") != self.name:
                continue  # hello, or the previous subscription's traffic
            elif kind == "registered":
                self.replica = set()
            elif kind == "delta":
                replica = self.replica
                deleted = {tuple(row) for row in message["deleted"]}
                inserted = {tuple(row) for row in message["inserted"]}
                if not deleted <= replica or inserted & replica:
                    failures += 1
                    reasons.append(f"{self.name}: delta breaks the replica")
                replica -= deleted
                replica |= inserted
        self.writer.chunks.clear()
        return failures, reasons


class ServeRun:
    """One server, its subscribers, and the closed loop driving them."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"perfbench-serve-churn-{seed}")
        self.pems, self.source = build_pems(seed)
        self.server = SubscriptionServer(self.pems, queue_depth=QUEUE_DEPTH)
        self.delivery = Delivery()
        self.clients: list[Client] = []
        self.requested = 0
        #: Entries published to the queues of subscriptions already
        #: counted (replaced by the churn, or checked at the end), and
        #: coalesced spans those queues dropped because they netted to no
        #: change.  A drop loses no state — the replica check proves it —
        #: so it is reported, not failed.
        self.owed = 0
        self.dropped = 0
        #: The traced run records the deepest delivery queue after each tick.
        self.track_lag = False
        self.lag_max = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @property
    def messages(self) -> int:
        return self.delivery.messages

    def ingested_rows(self) -> int:
        return self.source.rows

    # -- set-up -------------------------------------------------------------------

    async def subscribe_all(self) -> None:
        self.delivery.gate.set()
        for index in range(SUBSCRIBERS):
            client = Client(index, self.server, self.delivery)
            client.register()
            self.clients.append(client)
        self.requested += SUBSCRIBERS
        await self._settle(self.clients)

    async def _settle(self, clients) -> None:
        """Let the sessions process what was fed to them: every client
        holds its current subscription and has nothing queued."""
        for _ in range(10_000):
            await asyncio.sleep(0)
            if all(self._settled(client) for client in clients):
                break
        else:
            self.fail("subscriptions did not settle")

    @staticmethod
    def _settled(client: Client) -> bool:
        subscription = client.subscription
        return subscription is not None and subscription.queue.lag == 0

    # -- the closed loop ----------------------------------------------------------

    async def instant(self, roots=None):
        """tick → delivery round → churn; returns ``(tick_seconds,
        delivery_latencies, instant_seconds)``."""
        root = roots if roots is not None else (lambda name, layer=None: nullcontext())
        delivery = self.delivery
        upcoming = self.pems.clock.now + 1
        if upcoming % SLOW_CADENCE == 0:
            delivery.gate.set()
        else:
            delivery.gate.clear()
        started = time.perf_counter()
        with root("tick"):
            now = self.server.tick()
        ticked = time.perf_counter()
        if self.track_lag:
            for client in self.clients:
                subscription = client.subscription
                if subscription is not None:
                    self.lag_max = max(self.lag_max, subscription.queue.lag)
        delivery.stamps.clear()
        with root("deliver", "server.session.pump"):
            await self._deliver(delivery.gate.is_set())
        latencies = [stamp - started for stamp in delivery.stamps]
        with root("churn"):
            await self._churn()
        finished = time.perf_counter()
        self.decode()
        return ticked - started, latencies, finished - started

    async def _deliver(self, slow_too: bool) -> None:
        clients = [c for c in self.clients if slow_too or not c.slow]
        for _ in range(10_000):
            await asyncio.sleep(0)
            if all(
                (s := c.subscription) is None or s.queue.lag == 0 for c in clients
            ):
                return
        self.fail("delivery round did not complete")

    async def _churn(self) -> None:
        fast = [c for c in self.clients if not c.slow]
        moved = self.rng.sample(fast, CHURN_PER_TICK)
        for client in moved:
            self._retire(client.subscription)
            client.reregister()
        self.requested += len(moved)
        await self._settle(moved)

    # -- verification -------------------------------------------------------------

    def _retire(self, subscription) -> None:
        """Count a subscription's deliveries before it is replaced (fast
        queues are empty between instants, so nothing is left owed)."""
        if subscription is None:
            return
        queue = subscription.queue
        self.owed += queue.published
        self.dropped += queue.dropped
        if queue.lag:
            self.fail(f"{subscription.name}: {queue.lag} undelivered", queue.lag)

    def decode(self) -> None:
        for client in self.clients:
            failures, reasons = client.decode()
            if failures:
                self.failed += failures
                self.errors.extend(reasons[: max(0, 20 - len(self.errors))])

    async def finish(self) -> None:
        """Final flush (every writer open), then the replica check."""
        self.delivery.gate.set()
        await self._deliver(True)
        self.decode()
        self.check()

    def check(self) -> None:
        state, caps = self.source.state, self.source.caps
        expected: dict[str, frozenset] = {}
        for client in self.clients:
            subscription = client.subscription
            if subscription is None:
                self.fail(f"bench{client.index}: no live subscription")
                continue
            self._retire(subscription)
            if client.sql not in expected:
                expected[client.sql] = EXPECTED[client.sql](state, caps)
            if client.replica != expected[client.sql]:
                self.fail(f"{client.name}: replica differs from its query")
        self.attempted += self.requested + self.owed

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(reason)

    async def close(self) -> None:
        self.delivery.gate.set()
        for client in self.clients:
            client.reader.feed_eof()
        await asyncio.gather(*(c.task for c in self.clients), return_exceptions=True)
        await self.server.shutdown()

    def metadata(self) -> dict:
        return {
            "devices": DEVICES,
            "queries": len(QUERY_BANK),
            "subscribers": SUBSCRIBERS,
            "engine": "shared",
            "backend": "row",
            "observe": "metrics",
        }
