"""Tests for the ns-format trace writer/parser."""

import io

import pytest

from repro.core.cov import bin_counts, coefficient_of_variation
from repro.net.packet import PacketFactory
from repro.net.queues import DropTailQueue
from repro.net.tracefile import (
    NsTraceWriter,
    arrival_times,
    parse_trace_lines,
    read_trace,
)


def traced_queue(capacity=2):
    stream = io.StringIO()
    queue = DropTailQueue(capacity)
    writer = NsTraceWriter(stream).attach(queue)
    return stream, queue, writer


def test_enqueue_dequeue_drop_ops():
    stream, queue, writer = traced_queue(capacity=1)
    factory = PacketFactory()
    queue.enqueue(factory.data(0, "a", "b", 1000, seqno=0, now=0.0), 0.5)
    queue.enqueue(factory.data(0, "a", "b", 1000, seqno=1, now=0.0), 0.6)  # drop
    queue.dequeue(0.7)
    ops = [line.split()[0] for line in stream.getvalue().splitlines()]
    assert ops == ["+", "d", "-"]
    assert writer.lines_written == 3


def test_line_format_round_trips():
    stream, queue, _writer = traced_queue()
    factory = PacketFactory()
    queue.enqueue(factory.data(7, "a", "b", 1000, seqno=42, now=0.0), 1.25)
    record = next(parse_trace_lines(stream.getvalue().splitlines()))
    assert record.op == "+"
    assert record.time == pytest.approx(1.25)
    assert record.flow_id == 7
    assert record.seqno == 42
    assert record.ptype == "tcp"
    assert record.size == 1000


def test_ack_packets_typed_ack():
    stream, queue, _writer = traced_queue()
    factory = PacketFactory()
    queue.enqueue(factory.ack(3, "b", "a", ackno=5, now=0.0), 0.1)
    record = next(parse_trace_lines(stream.getvalue().splitlines()))
    assert record.ptype == "ack"


def test_parser_skips_comments_and_blanks():
    lines = ["# comment", "", "+ 1.0 g s tcp 1000 ------- 0 0.0 0.1 3 9"]
    records = list(parse_trace_lines(lines))
    assert len(records) == 1


def test_parser_rejects_malformed():
    with pytest.raises(ValueError):
        list(parse_trace_lines(["+ 1.0 too short"]))


def test_read_trace_file(tmp_path):
    path = tmp_path / "out.tr"
    with open(path, "w") as handle:
        queue = DropTailQueue(5)
        NsTraceWriter(handle).attach(queue)
        factory = PacketFactory()
        for i in range(3):
            queue.enqueue(factory.data(0, "a", "b", 1000, seqno=i, now=0.0), float(i))
    records = read_trace(str(path))
    assert [r.seqno for r in records] == [0, 1, 2]


def test_arrival_times_filtering():
    stream, queue, _writer = traced_queue(capacity=10)
    factory = PacketFactory()
    queue.enqueue(factory.data(0, "a", "b", 1000, seqno=0, now=0.0), 0.5)
    queue.enqueue(factory.data(1, "a", "b", 1000, seqno=0, now=0.0), 1.5)
    queue.enqueue(factory.ack(0, "b", "a", ackno=0, now=0.0), 2.5)
    queue.dequeue(3.0)
    records = list(parse_trace_lines(stream.getvalue().splitlines()))
    assert arrival_times(records) == [0.5, 1.5]
    assert arrival_times(records, flow_id=1) == [1.5]
    assert arrival_times(records, data_only=False) == [0.5, 1.5, 2.5]


def test_trace_drives_cov_pipeline_end_to_end(tmp_path):
    """The ns-2 workflow: run, write a trace, compute c.o.v. offline."""
    from repro.experiments.config import paper_config
    from repro.experiments.scenario import Scenario

    config = paper_config(protocol="reno", n_clients=4, duration=8.0)
    scenario = Scenario(config)
    path = tmp_path / "gateway.tr"
    with open(path, "w") as handle:
        NsTraceWriter(handle).attach(scenario.network.bottleneck_queue)
        result = scenario.run()

    records = read_trace(str(path))
    times = arrival_times(records)
    offline_cov = coefficient_of_variation(
        bin_counts(times, config.effective_bin_width, 0.0, config.duration)
    )
    assert offline_cov == pytest.approx(result.cov, rel=1e-9)
