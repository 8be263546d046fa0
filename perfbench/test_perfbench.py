"""Self-tests of the benchmark: the naive oracle and the span arithmetic.

The oracle tests replay the first instants of every workload on
``engine="naive"`` — the executable form of the paper's semantics — and
compare per-query result digests with the engine the benchmark measures,
instant by instant.  Run from the repository root::

    python3 -m pytest perfbench -q

They are not part of the repository's tier-1 suite (``testpaths`` is
``tests``); they take about 15 seconds.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from bench_city import CityRun  # noqa: E402
from bench_serve import EXPECTED, QUERY_BANK, build_pems  # noqa: E402
from bench_trace import SpanRecorder  # noqa: E402

#: Instants replayed on the city workloads: past the chaos cascade's
#: crash (instant 16) and into its relay flicker.
CITY_INSTANTS = 20

#: Instants replayed on ``serve`` (the naive engine re-evaluates every
#: query over the 20k rows each instant).
SERVE_INSTANTS = 4


def digest_result(result) -> str:
    """Order-independent digest of one query result relation."""
    rows = sorted(repr(row) for row in result.relation)
    return hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()


def digests(queries) -> dict[str, str]:
    return {
        name: digest_result(continuous.last_result)
        for name, continuous in queries.items()
    }


@pytest.mark.parametrize("workload", ["city", "city-chaos"])
def test_city_workload_matches_naive_oracle(workload):
    measured = CityRun(workload, seed=7)
    oracle = CityRun(workload, seed=7, engine="naive")
    assert measured.engine != "naive"
    for _ in range(CITY_INSTANTS):
        measured.instant()
        oracle.instant()
        assert digests(measured.queries) == digests(oracle.queries)
    assert measured.failed == 0, measured.errors
    assert oracle.failed == 0, oracle.errors


def test_serve_workload_matches_naive_oracle():
    runs = {}
    for engine in ("shared", "naive"):
        pems, source = build_pems(seed=7, engine=engine)
        queries = {
            sql: pems.queries.register_continuous_sql(sql, name=f"q{i}")
            for i, (sql, _) in enumerate(QUERY_BANK)
        }
        runs[engine] = (pems, source, queries)
    for _ in range(SERVE_INSTANTS):
        for pems, _, _ in runs.values():
            pems.tick()
        assert digests(runs["shared"][2]) == digests(runs["naive"][2])
    _, source, queries = runs["shared"]
    for sql, continuous in queries.items():
        expected = EXPECTED[sql](source.state, source.caps)
        assert frozenset(continuous.last_result.relation) == expected, sql


def test_layer_self_times_add_up_to_the_root():
    recorder = SpanRecorder()

    def leaf():
        return sum(range(2000))

    traced_leaf = recorder.wrap("leaf", "leaf", leaf)

    def middle():
        leaf_total = traced_leaf() + traced_leaf()
        return leaf_total + sum(range(1000))

    traced_middle = recorder.wrap("middle", "middle", middle)
    assert traced_middle() == middle()  # outside a root: not recorded
    assert not recorder.calls
    with recorder.root("tick"):
        traced_middle()
        traced_leaf()
    total = sum(recorder.self_seconds.values())
    assert total == pytest.approx(recorder.roots["tick"][0], rel=1e-9)
    assert recorder.calls == {"leaf": 3, "middle": 1}
    assert all(seconds >= 0 for seconds in recorder.self_seconds.values())
