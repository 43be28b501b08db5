"""Unit tests for packets and the packet factory."""

from repro.net.packet import ACK_SIZE_BYTES, PacketFactory, PacketType


def test_factory_assigns_unique_increasing_uids():
    factory = PacketFactory()
    packets = [
        factory.data(0, "a", "b", 1000, seqno=i, now=0.0) for i in range(5)
    ]
    uids = [p.uid for p in packets]
    assert uids == sorted(set(uids))


def test_data_packet_fields():
    factory = PacketFactory()
    packet = factory.data(3, "client-0", "server", 1000, seqno=7, now=1.5)
    assert packet.is_data and not packet.is_ack
    assert packet.ptype is PacketType.DATA
    assert packet.flow_id == 3
    assert packet.src == "client-0"
    assert packet.dst == "server"
    assert packet.size == 1000
    assert packet.seqno == 7
    assert packet.ackno == -1
    assert packet.created_at == 1.5
    assert not packet.is_retransmit


def test_data_packet_retransmit_flag_and_custom_ts():
    factory = PacketFactory()
    packet = factory.data(0, "a", "b", 1000, seqno=1, now=2.0, is_retransmit=True)
    assert packet.is_retransmit


def test_ack_packet_fields():
    factory = PacketFactory()
    ack = factory.ack(2, "server", "client-0", ackno=9, now=3.0)
    assert ack.is_ack and not ack.is_data
    assert ack.size == ACK_SIZE_BYTES
    assert ack.ackno == 9
    assert ack.seqno == -1


def test_ack_ecn_echo_and_ts_echo():
    factory = PacketFactory()
    ack = factory.ack(0, "s", "c", ackno=1, now=1.0, ecn_echo=True)
    assert ack.ecn_echo


def test_ecn_capable_data():
    factory = PacketFactory()
    packet = factory.data(0, "a", "b", 1000, seqno=0, now=0.0, ecn_capable=True)
    assert packet.ecn_capable
    assert not packet.ecn_ce


def test_independent_factories_reuse_uids():
    # uids are per-simulation, not global: two factories may collide.
    a = PacketFactory().data(0, "a", "b", 1, seqno=0, now=0.0)
    b = PacketFactory().data(0, "a", "b", 1, seqno=0, now=0.0)
    assert a.uid == b.uid == 0


def test_repr_mentions_kind_and_flow():
    factory = PacketFactory()
    text = repr(factory.data(4, "a", "b", 1000, seqno=2, now=0.0))
    assert "DATA" in text and "flow=4" in text
