"""Per-flow TCP probes and queue probes.

These are the protocol-layer publishers of the flight recorder:

* :class:`FlowProbe` attaches to one :class:`~repro.transport.tcp_base.
  TcpSender` and records congestion-window/ssthresh changes, RTT
  estimator updates, and congestion-control state transitions -- the
  per-flow trajectories behind the paper's Figures 5-12 and the
  validation targets of the mean-field TCP/RED literature.
* :class:`QueueProbe` attaches to any :class:`~repro.net.queues.
  PacketQueue` via its enqueue/dequeue/drop hooks and records occupancy
  (with the RED average, when the queue keeps one) and per-cause drop
  events.

Each records only the trace categories (:data:`TRACE_CATEGORIES`) it
was built with; the series of any other category stays empty.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Collection, Iterable, Optional

from repro.obs.series import TimeSeries

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.net.packet import Packet
    from repro.net.queues import PacketQueue

#: The trace categories the experiment layer understands (the valid
#: values of ``ScenarioConfig.obs_trace`` and the CLI's ``--trace``).
TRACE_CATEGORIES = ("cwnd", "rtt", "state", "queue", "drops")


class FlowProbe:
    """Flight recorder for one TCP sender.

    The sender calls the ``on_*`` methods from its window/RTT/state
    machinery (guarded by an ``is not None`` check, so unprobed senders
    pay nothing).  Each series is named after its trace category, which
    decides whether it records: an enabled one's column appends are
    bound here, a disabled one's are ``()``.
    """

    def __init__(self, flow_id: int, categories: Iterable[str]) -> None:
        self.flow_id = flow_id
        categories = frozenset(categories)
        self.cwnd = TimeSeries(f"cwnd.flow.{flow_id}", ("cwnd", "ssthresh"), "ddd")
        self.rtt = TimeSeries(
            f"rtt.flow.{flow_id}", ("sample", "srtt", "rttvar"), "dddd"
        )
        self.states = TimeSeries(f"state.flow.{flow_id}", ("state",), "dO")
        self._cwnd = self.cwnd.appenders() if "cwnd" in categories else ()
        self._rtt = self.rtt.appenders() if "rtt" in categories else ()
        self._states = self.states.appenders() if "state" in categories else ()

    # ------------------------------------------------------------------
    # Publisher interface (called by TcpSender)
    # ------------------------------------------------------------------
    def on_cwnd(self, time: float, cwnd: float, ssthresh: float) -> None:
        """Record one congestion-window (or ssthresh) change."""
        if self._cwnd:
            at, cwnds, ssthreshes = self._cwnd
            at(time)
            cwnds(cwnd)
            ssthreshes(ssthresh)

    def on_rtt(
        self, time: float, sample: float, srtt: float, rttvar: float
    ) -> None:
        """Record one Jacobson/Karels estimator update."""
        if self._rtt:
            at, samples, srtts, rttvars = self._rtt
            at(time)
            samples(sample)
            srtts(srtt)
            rttvars(rttvar)

    def on_state(self, time: float, state: str) -> None:
        """Record one congestion-control state transition."""
        if self._states:
            at, states = self._states
            at(time)
            states(state)


class QueueProbe:
    """Flight recorder for one packet queue.

    Registers itself on the queue's hooks for the categories it records:
    under ``"queue"`` an occupancy sample on every queue-length change,
    under ``"drops"`` one row per drop, labeled with the queue's
    :attr:`~repro.net.queues.PacketQueue.last_drop_cause`.
    """

    def __init__(self, queue: PacketQueue, categories: Collection[str]) -> None:
        self.queue = queue
        self._length = queue.read_length
        self.occupancy = TimeSeries(
            f"queue.occupancy.{queue.name}", ("length", "red_avg"), "dqd"
        )
        self.drops = TimeSeries(
            f"drops.events.{queue.name}", ("flow_id", "seqno", "cause"), "dqqO"
        )
        self._occupancy = self.occupancy.appenders()
        self._drops = self.drops.appenders()
        if "queue" in categories:
            queue.add_enqueue_hook(self._on_change)
            queue.add_dequeue_hook(self._on_change)
        if "drops" in categories:
            queue.add_drop_hook(self._on_drop)

    # ------------------------------------------------------------------
    # Hook bodies
    # ------------------------------------------------------------------
    def _on_change(self, packet: Packet, now: float) -> None:
        length = self._length()
        at, lengths, averages = self._occupancy
        at(now)
        lengths(length)
        # The RED average where the queue keeps one, else the length
        # (the "d" column stores either as a float).
        averages(getattr(self.queue, "avg", length))

    def _on_drop(self, packet: Packet, now: float) -> None:
        at, flow_ids, seqnos, causes = self._drops
        at(now)
        flow_ids(packet.flow_id)
        seqnos(packet.seqno)
        causes(self.queue.last_drop_cause)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def drop_causes(self) -> dict:
        """``{cause: count}`` over every drop seen so far."""
        return dict(Counter(self.drops.column("cause")))


def parse_trace_spec(spec: Optional[str]) -> tuple:
    """Parse a CLI ``--trace`` value (comma list) into category names.

    Raises ValueError on unknown categories; ``"all"`` expands to every
    category.
    """
    if not spec:
        return ()
    parts = [part.strip() for part in spec.split(",") if part.strip()]
    if "all" in parts:
        return tuple(TRACE_CATEGORIES)
    unknown = [part for part in parts if part not in TRACE_CATEGORIES]
    if unknown:
        raise ValueError(
            f"unknown trace categories {unknown}; "
            f"choose from {', '.join(TRACE_CATEGORIES)} (or 'all')"
        )
    return tuple(dict.fromkeys(parts))
