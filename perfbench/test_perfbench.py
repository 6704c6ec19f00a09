"""Tests of the benchmark harness itself (not of COMA).

Run with ``python3 -m pytest perfbench -q`` from the checkout root.
"""

from __future__ import annotations

import itertools

import pytest

from perfbench.common import (
    HostSpeed,
    Op,
    Phase,
    bootstrap,
    closed_loop,
    error_rate,
    percentile,
    steady_throughput,
)

bootstrap()

from perfbench import tracing, workloads  # noqa: E402
from repro.exceptions import ComaError, ServiceError  # noqa: E402


def _ticking_clock():
    """A clock that advances by one unit per reading."""
    counter = itertools.count()
    return lambda: float(next(counter))


class TestSelfTimes:
    def test_nested_matcher_spans(self):
        # op -> Children -> TypeName -> Name, as the default strategy nests them.
        recorder = tracing.SpanRecorder(clock=_ticking_clock())
        with recorder.op(7, "match"):                        # t=0 .. 9
            children = recorder.begin("matchers.Children")   # t=1 .. 8
            type_name = recorder.begin("matchers.TypeName")  # t=2 .. 5
            name = recorder.begin("matchers.Name")           # t=3 .. 4
            recorder.end(name)
            recorder.end(type_name)
            select = recorder.begin("combination.select")    # t=6 .. 7
            recorder.end(select)
            recorder.end(children)
        spans = recorder.spans()
        durations = {span[0]: span[2] - span[1] for span in spans}
        assert durations == {
            "op.match": 9.0, "matchers.Children": 7.0, "matchers.TypeName": 3.0,
            "matchers.Name": 1.0, "combination.select": 1.0,
        }
        own = dict(zip((span[0] for span in spans), tracing.self_times(spans)))
        assert own == {
            "op.match": 2.0, "matchers.Children": 3.0, "matchers.TypeName": 2.0,
            "matchers.Name": 1.0, "combination.select": 1.0,
        }
        assert sum(own.values()) == durations["op.match"]

    def test_layer_totals_split_on_path_and_background_spans(self):
        recorder = tracing.SpanRecorder(clock=_ticking_clock())
        with recorder.op(1, "rematch"):
            recorder.end(recorder.begin("store.flush"))
        recorder.end(recorder.begin("store.write"))  # no op open: background
        totals = tracing.layer_totals(recorder.spans())
        assert totals["ops"] == {1: ("rematch", 3.0)}
        assert totals["self"][("store.flush", "rematch")] == 1.0
        assert totals["self"][("store.write", "*")] == 1.0
        assert totals["root_self"] == {"rematch": 2.0}

    def test_graft_hangs_remote_request_under_the_client_op(self):
        local = [("op.match", 0.0, 10.0, -1, 5, None)]
        remote = [
            ("service.http", 100.0, 108.0, -1, 5, None),
            ("service.handle", 101.0, 106.0, 0, 5, None),
            ("service.http", 200.0, 201.0, -1, None, None),  # warm-up request
        ]
        merged = tracing.graft(local, remote)
        assert merged[1][3] == 0 and merged[2][3] == 1
        own = tracing.self_times(merged)
        assert own[0] == 2.0  # client wall minus the server's request span
        assert merged[3][4] is None

    def test_install_is_transparent_and_restores(self):
        from repro.datasets.figure1 import load_po1, load_po2
        from repro.matchers.hybrid.structural import _StructuralMatcherBase
        from repro.session import MatchSession

        original = _StructuralMatcherBase.__dict__["compute_batch"]
        expected = MatchSession().match(load_po1(), load_po2()).result.as_tuples()
        recorder = tracing.SpanRecorder()
        uninstall = tracing.install(recorder)
        try:
            with recorder.op(0, "match"):
                got = MatchSession().match(load_po1(), load_po2()).result.as_tuples()
        finally:
            uninstall()
        assert got == expected
        assert _StructuralMatcherBase.__dict__["compute_batch"] is original
        names = {span[0] for span in recorder.spans()}
        assert {"matchers.Children", "matchers.Leaves", "matchers.TypeName",
                "matchers.Name", "combination.select"} <= names


class TestPercentiles:
    def test_median_needs_ten_samples_beyond_it(self):
        assert percentile(list(range(19)), 0.5) is None
        assert percentile(list(range(20)), 0.5) == 9.5

    def test_p90_needs_a_hundred_samples(self):
        assert percentile(list(range(99)), 0.9) is None
        assert percentile(list(range(100)), 0.9) == 89
        assert percentile(list(range(1, 201)), 0.9) == 180


class TestErrors:
    def test_typed_error_counts_as_failed(self):
        def execute(op):
            if op.op_id == 1:
                raise ServiceError("refused", status=429)

        cycles = iter([[Op(0, "match", ()), Op(1, "match", ()), Op(2, "match", ())]])
        loop = closed_loop(cycles, execute, 0.0, expected_errors=(ComaError,))
        assert (loop.attempted, loop.failed) == (3, 1)
        assert len(loop.latencies_ms["match"]) == 2
        assert error_rate(loop.attempted, loop.failed) == pytest.approx(1 / 3)

    def test_refused_http_request_counts_as_failed(self):
        class Response:
            def __init__(self, status):
                self.status = status

            def read(self):
                return b"{}"

        class Connection:
            statuses = iter([200, 429])

            def request(self, *args, **kwargs):
                pass

            def getresponse(self):
                return Response(next(self.statuses))

            def close(self):
                pass

        key = ("A", "B", "spec")
        client = workloads.HttpClient(Connection, {key: b"{}"})
        cycles = iter([[Op(0, "match", (key,)), Op(1, "match", (key,))]])
        loop = closed_loop(cycles, client.send, 0.0,
                           expected_errors=(workloads.RefusedRequest,))
        assert (loop.attempted, loop.failed) == (2, 1)
        assert len(loop.latencies_ms["match"]) == 1
        assert error_rate(loop.attempted, loop.failed) == 0.5


class TestSteadyThroughput:
    def test_bursts_leave_the_median(self):
        # Two strata of 10 and 100 ms; a burst slows three ops of each.
        quiet = [("a", 10.0)] * 8 + [("b", 100.0)] * 8
        burst = [("a", 10.0)] * 5 + [("a", 30.0)] * 3 + [("b", 100.0)] * 5 + [("b", 300.0)] * 3
        assert steady_throughput(quiet) == pytest.approx(16 / 0.88)
        assert steady_throughput(burst) == steady_throughput(quiet)

    def test_strata_are_weighted_by_their_ops(self):
        costs = [("a", 10.0)] * 3 + [("b", 40.0)]
        assert steady_throughput(costs) == pytest.approx(4 / 0.07)

    def test_op_stratum_defaults_to_its_kind(self):
        cycles = iter([[Op(0, "query", ()), Op(1, "write", ()), Op(2, "match", (), stratum=7)]])
        loop = closed_loop(cycles, lambda op: None, 0.0)
        assert [stratum for stratum, _ms, _scale in loop.costs] == ["query", "write", 7]
        assert {scale for _stratum, _ms, scale in loop.costs} == {1.0}

    def test_host_scale_divides_op_times(self):
        # Ops timed while the host ran at half speed count at their nominal cost.
        phase = Phase(0.5, {}, 3, 0, [("a", 20.0, 2.0)] * 3, 1.0, "")
        assert phase.raw_throughput == pytest.approx(50.0)
        assert phase.throughput == pytest.approx(100.0)
        assert phase.host_scale == 2.0

    def test_every_op_gets_the_kernel_times_around_it(self):
        host = HostSpeed()
        cycles = iter([[Op(0, "match", ()), Op(1, "match", ())]])
        loop = closed_loop(cycles, lambda op: None, 0.0, host=host)
        assert all(scale > 0.0 for _stratum, _ms, scale in loop.costs)
        seconds, result = host.timed(lambda: "built")
        assert result == "built" and seconds >= 0.0


class TestStreams:
    @pytest.mark.parametrize("make", [
        lambda seed: workloads.stream_digest(
            workloads.cold_cycles(seed), workloads._describe_pair, count=1),
        lambda seed: workloads.stream_digest(
            workloads.evolve_cycles(seed, workloads.evolve_inputs()[0]),
            lambda op: [list(op.args[2]), workloads.schema_document(op.args[1])], count=1),
        lambda seed: workloads.stream_digest(
            workloads.warm_cycles(seed, workloads.warm_mix(seed)[1]),
            lambda op: list(op.args[0]), count=1),
    ], ids=["cold_match", "evolve_rematch", "warm_http"])
    def test_same_seed_same_stream(self, make):
        assert make(3) == make(3)
        assert make(3) != make(4)

    def test_search_stream(self):
        def make(seed):
            inputs = workloads.search_inputs()
            return workloads.stream_digest(
                workloads.search_cycles(seed, *inputs),
                lambda op: workloads.schema_document(op.args[0]), count=1)

        assert make(3) == make(3)
        assert make(3) != make(4)

    def test_edits_keep_the_path_band(self):
        initial, _ = workloads.evolve_inputs()
        for cycle in itertools.islice(workloads.evolve_cycles(5, initial), 6):
            for op in cycle:
                old, new, _edit = op.args
                assert workloads.schema_document(old) != workloads.schema_document(new)
                low, high = workloads.EVOLVE_BAND
                assert low - 1 <= len(new.paths()) <= high + 1

