"""Tests for services and the invocation function (Definition 1)."""

from collections import Counter

import pytest

from repro.devices.faults import FaultInjector, FaultScript
from repro.devices.prototypes import (
    GET_ENV_READING,
    GET_TEMPERATURE,
    SEND_MESSAGE,
    STANDARD_PROTOTYPES,
)
from repro.devices.scenario import temperatures_schema
from repro.devices.sensors import SensorStreamFeeder, TemperatureSensor
from repro.errors import (
    InvocationError,
    PrototypeNotImplementedError,
    SchemaError,
    ServiceError,
    UnknownServiceError,
)
from repro.model.invocation_policy import InvocationPolicy
from repro.model.services import Service, ServiceRegistry
from repro.model.substitution import SubstitutionRule
from repro.pems.pems import PEMS


def ok_sender(inputs, instant):
    return [{"sent": True}]


def thermometer(value):
    def handler(inputs, instant):
        return [{"temperature": value}]

    return handler


class TestService:
    def test_prototypes_set(self):
        service = Service("email", {SEND_MESSAGE: ok_sender})
        assert service.prototypes == frozenset({SEND_MESSAGE})
        assert service.prototype_names == frozenset({"sendMessage"})

    def test_implements(self):
        service = Service("email", {SEND_MESSAGE: ok_sender})
        assert service.implements(SEND_MESSAGE)
        assert not service.implements(GET_TEMPERATURE)

    def test_handler_lookup_missing(self):
        service = Service("email", {SEND_MESSAGE: ok_sender})
        with pytest.raises(PrototypeNotImplementedError):
            service.handler(GET_TEMPERATURE)

    def test_invalid_reference(self):
        with pytest.raises(SchemaError):
            Service("", {SEND_MESSAGE: ok_sender})

    def test_properties(self):
        service = Service(
            "sensor01", {GET_TEMPERATURE: thermometer(20.0)},
            properties={"location": "corridor"},
        )
        assert service.properties["location"] == "corridor"


class TestRegistry:
    def test_register_and_get(self):
        registry = ServiceRegistry()
        service = Service("email", {SEND_MESSAGE: ok_sender})
        registry.register(service)
        assert registry.get("email") is service
        assert "email" in registry
        assert len(registry) == 1

    def test_get_unknown(self):
        with pytest.raises(UnknownServiceError):
            ServiceRegistry().get("ghost")

    def test_unregister_is_idempotent(self):
        registry = ServiceRegistry()
        registry.register(Service("email", {SEND_MESSAGE: ok_sender}))
        registry.unregister("email")
        registry.unregister("email")  # no error: dynamic envs double-reap
        assert "email" not in registry

    def test_providers_sorted(self):
        registry = ServiceRegistry()
        for ref in ("sensorB", "sensorA", "sensorC"):
            registry.register(Service(ref, {GET_TEMPERATURE: thermometer(1.0)}))
        registry.register(Service("mail", {SEND_MESSAGE: ok_sender}))
        providers = registry.providers(GET_TEMPERATURE)
        assert [s.reference for s in providers] == ["sensorA", "sensorB", "sensorC"]

    def test_replace_service(self):
        registry = ServiceRegistry()
        registry.register(Service("s", {GET_TEMPERATURE: thermometer(1.0)}))
        registry.register(Service("s", {GET_TEMPERATURE: thermometer(2.0)}))
        result = registry.invoke(GET_TEMPERATURE, "s", {}, 0)
        assert result == [(2.0,)]


class TestInvocation:
    """invoke_psi(s, t) — Definition 1."""

    def test_basic_invocation(self):
        registry = ServiceRegistry([Service("email", {SEND_MESSAGE: ok_sender})])
        result = registry.invoke(
            SEND_MESSAGE, "email", {"address": "a@b.c", "text": "hi"}, 0
        )
        assert result == [(True,)]

    def test_multi_tuple_result(self):
        """Invocation results are relations: 0, 1 or several tuples."""

        def multi(inputs, instant):
            return [{"temperature": 1.0}, {"temperature": 2.0}]

        registry = ServiceRegistry([Service("s", {GET_TEMPERATURE: multi})])
        assert sorted(registry.invoke(GET_TEMPERATURE, "s", {}, 0)) == [
            (1.0,),
            (2.0,),
        ]

    def test_empty_result(self):
        registry = ServiceRegistry(
            [Service("s", {GET_TEMPERATURE: lambda i, t: []})]
        )
        assert registry.invoke(GET_TEMPERATURE, "s", {}, 0) == []

    def test_unknown_service(self):
        with pytest.raises(UnknownServiceError):
            ServiceRegistry().invoke(GET_TEMPERATURE, "ghost", {}, 0)

    def test_prototype_not_implemented(self):
        registry = ServiceRegistry([Service("email", {SEND_MESSAGE: ok_sender})])
        with pytest.raises(PrototypeNotImplementedError):
            registry.invoke(GET_TEMPERATURE, "email", {}, 0)

    def test_input_mismatch(self):
        registry = ServiceRegistry([Service("email", {SEND_MESSAGE: ok_sender})])
        with pytest.raises(InvocationError, match="do not match"):
            registry.invoke(SEND_MESSAGE, "email", {"address": "a@b.c"}, 0)

    def test_extra_input_rejected(self):
        registry = ServiceRegistry([Service("email", {SEND_MESSAGE: ok_sender})])
        with pytest.raises(InvocationError):
            registry.invoke(
                SEND_MESSAGE,
                "email",
                {"address": "a", "text": "b", "extra": 1},
                0,
            )

    def test_handler_exception_wrapped(self):
        def broken(inputs, instant):
            raise RuntimeError("device on fire")

        registry = ServiceRegistry([Service("s", {GET_TEMPERATURE: broken})])
        with pytest.raises(InvocationError, match="device on fire"):
            registry.invoke(GET_TEMPERATURE, "s", {}, 0)

    def test_bad_output_schema_rejected(self):
        def bad(inputs, instant):
            return [{"wrong_column": 1.0}]

        registry = ServiceRegistry([Service("s", {GET_TEMPERATURE: bad})])
        with pytest.raises(InvocationError, match="invalid output tuple"):
            registry.invoke(GET_TEMPERATURE, "s", {}, 0)

    def test_output_type_coerced(self):
        registry = ServiceRegistry(
            [Service("s", {GET_TEMPERATURE: lambda i, t: [{"temperature": 21}]})]
        )
        result = registry.invoke(GET_TEMPERATURE, "s", {}, 0)
        assert result == [(21.0,)]
        assert isinstance(result[0][0], float)

    def test_invocation_counter(self):
        registry = ServiceRegistry([Service("email", {SEND_MESSAGE: ok_sender})])
        assert registry.invocation_count == 0
        registry.invoke(SEND_MESSAGE, "email", {"address": "a", "text": "b"}, 0)
        registry.invoke(SEND_MESSAGE, "email", {"address": "a", "text": "b"}, 0)
        assert registry.invocation_count == 2
        registry.reset_invocation_count()
        assert registry.invocation_count == 0


def scan_providers(registry, prototype):
    """The provider answer by full scan and sort (the index's reference)."""
    return sorted(
        (s for s in registry if s.implements(prototype)), key=lambda s: s.reference
    )


def assert_index_fresh(registry):
    for prototype in (GET_TEMPERATURE, SEND_MESSAGE):
        got = registry.providers(prototype)
        expected = scan_providers(registry, prototype)
        assert [id(s) for s in got] == [id(s) for s in expected]


class TestProviderIndex:
    def test_register_and_unregister(self):
        registry = ServiceRegistry()
        assert_index_fresh(registry)
        for ref in ("t2", "t1", "t3"):
            registry.register(Service(ref, {GET_TEMPERATURE: thermometer(1.0)}))
            assert_index_fresh(registry)
        registry.register(Service("mail", {SEND_MESSAGE: ok_sender}))
        assert_index_fresh(registry)
        registry.unregister("t1")
        assert_index_fresh(registry)
        registry.unregister("ghost")
        assert_index_fresh(registry)
        assert [s.reference for s in registry.providers(GET_TEMPERATURE)] == [
            "t2",
            "t3",
        ]

    def test_reregistering_another_object_under_a_reference(self):
        registry = ServiceRegistry()
        registry.register(Service("t1", {GET_TEMPERATURE: thermometer(1.0)}))
        assert_index_fresh(registry)
        replacement = Service("t1", {SEND_MESSAGE: ok_sender})
        registry.register(replacement)
        assert_index_fresh(registry)
        assert registry.providers(GET_TEMPERATURE) == []
        assert registry.providers(SEND_MESSAGE) == [replacement]
        same = Service("t1", {GET_TEMPERATURE: thermometer(2.0)})
        registry.register(same)
        registry.register(same)  # idempotent: no topology change
        assert registry.providers(GET_TEMPERATURE) == [same]
        assert_index_fresh(registry)

    def test_mutating_the_returned_list_leaves_the_index_intact(self):
        registry = ServiceRegistry()
        for ref in ("t1", "t2"):
            registry.register(Service(ref, {GET_TEMPERATURE: thermometer(1.0)}))
        first = registry.providers(GET_TEMPERATURE)
        first.clear()
        second = registry.providers(GET_TEMPERATURE)
        assert second is not first
        second.append(Service("intruder", {GET_TEMPERATURE: thermometer(0.0)}))
        second.reverse()
        assert_index_fresh(registry)

    def test_quarantine_park_and_readmit(self):
        """The core ERM parks a quarantined sensor out of the registry and
        readmits it after the backoff; the index follows both moves."""
        pems = PEMS(policy=InvocationPolicy(failure_threshold=1, quarantine_backoff=3))
        for prototype in STANDARD_PROTOTYPES:
            pems.environment.declare_prototype(prototype)
        pems.tables.create_relation(temperatures_schema(), infinite=True)
        field = pems.create_local_erm("field")
        field.register(TemperatureSensor("s1", "office").as_service())
        faulty = FaultInjector(
            TemperatureSensor("s2", "kitchen").as_service(),
            FaultScript(crash_windows=((3, 5),)),
            seed="index",
        )
        field.register(faulty.as_service())
        registry = pems.environment.registry
        pems.add_stream_source(
            SensorStreamFeeder(
                registry, lambda rows: pems.tables.insert("temperatures", rows)
            )
        )
        seen = []
        for _ in range(12):
            pems.tick()
            assert_index_fresh(registry)
            seen.append(
                (
                    [s.reference for s in registry.providers(GET_TEMPERATURE)],
                    pems.erm.parked,
                )
            )
        assert (["s1"], frozenset({"s2"})) in seen
        assert seen[-1] == (["s1", "s2"], frozenset())


def fleet(calls: Counter) -> ServiceRegistry:
    """A traced registry under a fault policy: a steady sensor, one that
    crashes at 2 (then quarantined, backed off and re-probed), one that
    flickers, one answering an invalid row, one durably bound to a spare
    by a ``specializes`` binding, and one failing from 1 on that a
    failover plan serves from the same spare.  ``calls`` counts device
    contacts per reference."""
    registry = ServiceRegistry(
        policy=InvocationPolicy(backoff=1, failure_threshold=2, quarantine_backoff=3),
        observe="full",
    )

    def device(reference, fails=lambda instant: False, row=None):
        def read(inputs, instant):
            calls[reference] += 1
            if fails(instant):
                raise RuntimeError(f"{reference} is down")
            return [row or {"temperature": float(len(reference) + instant)}]

        return read

    for reference, read in (
        ("steady", device("steady")),
        ("crash", device("crash", lambda instant: instant >= 2)),
        ("flicker", device("flicker", lambda instant: instant % 3 == 1)),
        ("garbled", device("garbled", row={"temperature": "hot"})),
        ("bound", device("bound")),
        ("covered", device("covered", lambda instant: instant >= 1)),
    ):
        registry.register(Service(reference, {GET_TEMPERATURE: read}))

    def spare(inputs, instant):
        calls["spare"] += 1
        return [{"temperature": 9.5, "humidity": 40.0}]

    registry.register(Service("spare", {GET_ENV_READING: spare}))
    subs = registry.substitutions
    subs.declare(
        SubstitutionRule.specializes(
            "getTemperature", "spare", "getEnvReading", reference="bound"
        )
    )
    subs.declare(
        SubstitutionRule.specializes(
            "getTemperature", "spare", "getEnvReading", reference="covered"
        )
    )
    (binding,) = subs.resolve(registry, GET_TEMPERATURE, "bound")
    subs.install(binding, 0, "quarantine")
    subs.failover = {
        ("getTemperature", "covered"): tuple(
            subs.resolve(registry, GET_TEMPERATURE, "covered")
        )
    }
    return registry


def invoke_each(registry, services, instant):
    answered = []
    for service in services:
        try:
            rows = registry.invoke(GET_TEMPERATURE, service.reference, {}, instant)
        except ServiceError:
            continue
        answered.append((service, rows))
    return answered


def invoke_batch(registry, services, instant):
    return list(registry.invoke_many(GET_TEMPERATURE, services, {}, instant))


def run_fleet(invoke):
    """Ten instants of two batches each (the even instants inside the
    per-instant memo); returns everything the two paths must agree on."""
    calls = Counter()
    registry = fleet(calls)
    answers = []
    most_contacts = 0
    for instant in range(10):
        if instant % 2 == 0:
            registry.begin_instant_memo(instant)
        for _ in range(2):
            before = Counter(calls)
            services = registry.providers(GET_TEMPERATURE)
            answers.append(
                [(s.reference, rows) for s, rows in invoke(registry, services, instant)]
            )
            contacts = calls - before
            most_contacts = max(
                most_contacts, *(contacts[s.reference] for s in services)
            )
        registry.end_instant_memo()
    counters = {
        (instrument.name, instrument.labels): instrument.value
        for instrument in registry.obs.metrics
        if instrument.kind == "counter"
    }
    events = [
        (span.name, span.instant, span.attributes)
        for span in registry.obs.tracer.spans
    ]
    return answers, registry.health.snapshot(), counters, events, calls, most_contacts


class TestInvokeMany:
    def test_batch_equals_per_call_invoke(self):
        each = run_fleet(invoke_each)
        batch = run_fleet(invoke_batch)
        answers, health, counters, events, calls, most_contacts = batch
        assert answers == each[0]
        assert health == each[1]
        assert counters == each[2]
        assert events == each[3]
        assert calls == each[4]
        assert most_contacts == 1  # no batch member is contacted twice
        # The fleet really exercised every outcome.
        outcomes = {
            labels: value
            for (name, labels), value in counters.items()
            if name == "serena_invocation_outcomes_total"
        }
        assert all(outcomes.values()), outcomes
        assert counters[("serena_substitution_failovers_total", ())] > 0
        assert counters[("serena_invocations_total", ())] == sum(
            count for reference, count in calls.items()
        )

    def test_mismatched_inputs_contact_nothing(self):
        calls = Counter()
        registry = fleet(calls)
        batch = registry.invoke_many(
            GET_TEMPERATURE, registry.providers(GET_TEMPERATURE), {"extra": 1}, 0
        )
        with pytest.raises(InvocationError, match="do not match"):
            next(batch)
        assert not calls

    def test_unknown_and_unimplementing_services_are_left_out(self):
        registry = ServiceRegistry([Service("t1", {GET_TEMPERATURE: thermometer(3.0)})])
        ghost = Service("ghost", {GET_TEMPERATURE: thermometer(1.0)})
        mail = Service("mail", {SEND_MESSAGE: ok_sender})
        registry.register(mail)
        t1 = registry.get("t1")
        batch = registry.invoke_many(GET_TEMPERATURE, [ghost, mail, t1], {}, 0)
        assert list(batch) == [(t1, [(3.0,)])]

    def test_abandoned_batch_still_counts(self):
        registry = ServiceRegistry(
            [Service(ref, {GET_TEMPERATURE: thermometer(1.0)}) for ref in ("a", "b")]
        )
        batch = registry.invoke_many(
            GET_TEMPERATURE, registry.providers(GET_TEMPERATURE), {}, 0
        )
        assert next(batch)[0].reference == "a"
        batch.close()
        assert registry.invocation_count == 1
