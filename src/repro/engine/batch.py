"""The fused-event batch scenario driver (``engine="batch"``).

:class:`BatchScenario` runs the same physics as
:class:`repro.experiments.scenario.Scenario` -- the same dumbbell
arithmetic, the same bottleneck queue objects, the same sinks, monitors
and probes -- but collapses the object engine's per-hop event graph into
a handful of fused events per delivered packet:

* **Access-hop fusion.**  A client's access link never drops within the
  batch envelope (TCP's in-flight is bounded by the advertised window,
  far below the 1000-packet access queue), so its store-and-forward
  chain
  ``enqueue -> pull -> finish -> receive`` reduces to per-flow busy-time
  arithmetic: ``start = max(now, busy); finish = start + tx`` -- the
  exact additions :class:`repro.net.link.Interface` performs -- and one
  ``GW_ARRIVAL`` event at ``finish + delay``.
* **Reverse-path fusion.**  The two reverse output ports an ACK crosses
  (server to gateway, shared by all flows; gateway to its client) are
  FIFO links whose 1000-packet queues never overflow, so each is the
  same busy-time arithmetic -- queueing included -- and the four
  reverse hops become sequential float additions
  (:meth:`BatchScenario._route_ack`).  ACKs do queue there: delayed-ACK
  timers of different flows expire within one ACK serialization of each
  other and collide on the shared link.  The gateway's client ports
  never queue (``client_rate >= bottleneck_rate`` in the envelope: ACKs
  leave the shared link spaced at least their serialization time on a
  faster one), which is what rules out two clients' ACKs being
  delivered at the same instant.
* **Inline sink processing.**  When nothing at the server acts on its
  own -- open loop, no delayed-ACK timer -- the sink's processing
  commutes with any event between the gateway transmission and the
  server delivery time, so the sink runs inline under a virtual clock.  Closed-loop runs and delayed-ACK sinks keep a real
  ``SERVER_ARRIVAL`` event -- a workload's unit timeout or the sink's
  ACK timer may fire in that window -- and the sinks get the real
  simulator, on which the timer schedules itself.
* **Lazy Poisson arrivals.**  A per-flow arrival event is armed only
  while the flow has no send-buffer backlog.  A backlogged flow's
  window is shut (``send_much`` drains until window or buffer runs
  out), so its ticks are pure bookkeeping; they are replayed -- with
  their original timestamps, consuming the same per-flow RNG stream --
  at the next event that touches the flow ("catch-up", always first in
  a handler).  This removes the dominant event class of the object
  engine at large N.
* **Timer cohort.**  Retransmit deadlines live in one numpy array; a
  single lazily-maintained horizon event fires the due cohort and
  reschedules at the new minimum.

* **Same-instant gateway arrivals.**  Fusing the access hop moves the
  push of a ``GW_ARRIVAL`` from the access link's finish time to the
  sender's trigger time, so FIFO-by-push no longer reproduces the
  object engine's order when two flows' packets reach the gateway at
  the identical float time.  Every arrival therefore carries the push
  times of the object-engine events that would have started it
  (:meth:`BatchScenario.transmit`), and a tied group is enqueued in
  the order those histories sort (:meth:`BatchScenario._pop_tied`);
  a group they cannot order raises :class:`BatchTieError`.

**One state machine, three seams.**  The flows are the object engine's
own ``RenoSender`` / ``VegasSender`` and ``TcpSink``, built by the
inherited ``Scenario._add_flow``; the fusions above live entirely in
what those agents are handed.  An agent touches the world through a
clock (``sim.now``), a node (``node.name`` / ``node.send``) and, a
sender, its retransmit timer:

* the *node* is a :class:`_BatchNode` whose ``send`` is the fused hop
  for that direction (:meth:`BatchScenario.transmit` for a client,
  :meth:`BatchScenario._route_ack` for the server);
* the *timer* is a :class:`_RtxSlot`, one slot of the driver's deadline
  array, so the timer cohort stays a vector scan;
* the *clock* is the simulator, except for sinks run inline, which get
  a settable :class:`_SinkClock`.  Senders never need one: a lazily
  replayed arrival either finds the send buffer backlogged -- then it
  is booked by ``TcpSender.app_arrival_bulk``, which takes the times
  as data -- or finds it empty, and a flow with an empty buffer is
  armed, so its arrival is replayed at the very instant it is due.

:class:`BatchScenario` is a :class:`Scenario` subclass: construction
order, flow and workload construction, ``run()`` (profiler, timing) and
metric collection are the base class's, so both engines produce the
same :class:`ScenarioResult` shape from the same attribute names.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from functools import partial
from math import log as _log
from operator import itemgetter
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.experiments.scenario import Scenario
from repro.net.packet import Packet, PacketFactory
from repro.net.queues import PacketQueue
from repro.sim.engine import SimulationError

_INF = float("inf")

#: Most Poisson gaps pre-drawn per refill.  A refill draws what the
#: flow can still use before the horizon, plus a margin, up to this cap
#: (identical draws to the object engine's one-per-tick ``expovariate``;
#: only the batching differs, which the per-flow dedicated RNG stream
#: makes unobservable).
ARRIVAL_CHUNK = 256

#: ``random.Random.random()``'s scale: 53 bits to a float in [0, 1).
_TO_UNIT = 1.0 / 9007199254740992.0

#: Priority class for the timer-cohort horizon: in the object engine a
#: retransmit timer is pushed a full RTO (>= min_rto) before it fires,
#: which is earlier than any same-time network event's push (the
#: envelope requires min_rto > client_delay), so at a time tie the
#: timer's seq is smaller and it runs first.
_PRIO_TIMER = -2


class BatchTieError(SimulationError):
    """Simultaneous events whose object-engine order the batch engine's
    tie model cannot decide: the one case, met part-way through a run,
    that the fusions do not reproduce bit for bit.  Under the default
    engine dispatch :func:`~repro.experiments.scenario.run_scenario`
    answers it by running the cell on the object engine; a forced
    ``engine="batch"`` lets it propagate."""


class _SinkClock:
    """Settable ``.now`` facade standing in for the Simulator.

    A sink without a delayed-ACK timer only reads ``sim.now``, so the
    driver can run it inline at a virtual server-arrival time.
    """

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0


class _BatchNode:
    """Node facade: what an agent sees of the node it sits on -- a
    name, and ``send``, here the driver's fused hop away from it.  The
    driver reaches agents through its own lists, so binding is a no-op.
    """

    __slots__ = ("name", "send")

    def __init__(self, name: str, send: Callable[[Packet], None]) -> None:
        self.name = name
        self.send = send

    def bind_flow(self, flow_id: int, agent) -> None:
        pass


class _RtxSlot:
    """Timer facade: a sender's retransmit timer as one slot of the
    driver's deadline array (``inf`` = disarmed).  Answers like
    :class:`repro.sim.timers.Timer`; the expiry is the driver's
    (:meth:`BatchScenario._timer_fire` calls the sender's ``_timeout``).

    The sender reads ``pending`` and calls ``start`` / ``restart`` once
    a packet or an ACK, so none of them is a Python frame: ``pending``
    is a plain slot that every write of the deadline keeps equal to
    ``deadline != inf`` (:meth:`BatchScenario.timer_arm`, :meth:`cancel`,
    :meth:`BatchScenario._timer_fire`), and ``start`` / ``restart`` are
    ``partial(driver.timer_arm, index)``.
    """

    __slots__ = ("pending", "start", "restart", "_deadlines", "_index")

    def __init__(self, driver: "BatchScenario", index: int) -> None:
        self.pending = False
        self.start = self.restart = partial(driver.timer_arm, index)
        self._deadlines = driver._rtx_deadline
        self._index = index

    def cancel(self) -> None:
        self.pending = False
        self._deadlines[self._index] = _INF


class _BatchGateway:
    """The fused dumbbell as the instrumentation sees it.

    Stands in for both the :class:`DumbbellNetwork` and its bottleneck
    :class:`Interface`: monitors attach through ``add_send_hook`` and
    ``queue``, metric collection reads ``bottleneck_queue``.
    """

    __slots__ = ("queue", "packet_factory", "send_hooks")

    def __init__(self, queue: PacketQueue) -> None:
        self.queue = queue
        self.packet_factory = PacketFactory()
        self.send_hooks: List[Callable[[Packet, float], None]] = []

    def add_send_hook(self, hook: Callable[[Packet, float], None]) -> None:
        self.send_hooks.append(hook)

    @property
    def bottleneck_interface(self) -> "_BatchGateway":
        return self

    @property
    def bottleneck_queue(self) -> PacketQueue:
        return self.queue


class BatchScenario(Scenario):
    """A fully wired batch-engine simulation, ready to run.

    Construction, ``run()`` and collection are :class:`Scenario`'s;
    this class substitutes the fused gateway for the topology
    (:meth:`_build_network`), hands the flows its node and timer
    facades and starts their arrivals (:meth:`_build_flows`) and adds
    the end-of-horizon catch-up to the timed part of the run
    (:meth:`_execute`).
    """

    engine_name = "batch"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_network(self) -> _BatchGateway:
        config = self.config
        # First hook after Scenario's own validate(): refuse anything
        # the fusions below would not reproduce bit for bit.
        config.validate_batch_engine()

        # --- physics constants (exact Interface expressions) -----------
        n = config.n_clients
        self._client_rate = float(config.client_rate_bps)
        self._bn_rate = float(config.bottleneck_rate_bps)
        self._client_delay = config.client_delay
        self._bn_delay = config.bottleneck_delay
        self._open_mode = config.workload == "open"
        # The sinks run inline at the bottleneck's tx-done when nothing
        # at the server can act in between: no workload, no ACK timer.
        self._inline_sink = self._open_mode and config.protocol != "reno_delack"
        self._mean_gap = config.mean_gap
        self._duration = config.duration

        gateway = _BatchGateway(self._make_bottleneck_queue())
        self.bottleneck_queue = gateway.queue
        self.packet_factory = gateway.packet_factory
        self._gw_send_hooks = gateway.send_hooks

        # --- per-flow link state ---------------------------------------
        # Client->gateway access serializer: when it frees up (-inf =
        # never used, so the first packet is not mistaken for a tie).
        self._busy_fwd = [-_INF] * n
        self._busy_rev_client = [0.0] * n  # gateway->client ACK serializer
        self._busy_rev_server = 0.0  # server->gateway ACK serializer
        self._bn_busy = False

        # Same-time tie-breaking (see DESIGN.md section 15).  The object
        # engine orders simultaneous events FIFO by scheduling order;
        # each object-engine event is pushed a fixed lag before it
        # fires, so ties between different event classes resolve by
        # comparing lags (larger lag scheduled first).  The batch engine
        # pushes its fused events at different moments, so it encodes
        # the object engine's outcome as a priority class instead:
        #  * bottleneck enqueue (lag = access propagation delay) vs
        #    dequeue (lag = bottleneck serialization time): whichever
        #    lag is larger runs first -- batch_envelope_violation
        #    rejects exact equality;
        #  * retransmit timers (lag = RTO >= min_rto, envelope-checked
        #    to exceed the access delay) precede every same-time
        #    network event.
        # Ties within one class keep FIFO order automatically -- both
        # engines process the originating sends in the same order --
        # with one exception: two gateway arrivals, which ``transmit``
        # orders explicitly.
        tx_bn = config.packet_size * 8.0 / self._bn_rate
        self._prio_txdone = -1 if tx_bn > self._client_delay else 0
        self._prio_arrival = -1 if self._client_delay > tx_bn else 0

        # Gateway arrivals in flight: arrival time -> (history, packet),
        # or a list of those when several share the time.  A packet's
        # history is the chain of object-engine push times behind its
        # arrival (see transmit); ``_chain[i]`` is the history of flow
        # i's latest packet.
        self._gw_due: Dict[float, object] = {}
        self._chain: List[tuple] = [()] * n
        self._chain_counter = 0
        # When the object engine pushed the event whose handler is
        # running: set by the ACK and timer handlers around their call
        # into the sender, None otherwise (not modelled: a Poisson tick
        # or a workload event, pushed a random draw earlier).
        self._trigger_pushed: Optional[float] = None

        # Timer cohort: every flow's retransmit deadline (inf =
        # disarmed; written through the senders' _RtxSlot) and one
        # horizon event (lazy: <= every armed deadline).
        self._rtx_deadline = np.full(n, _INF)
        self._rtx_slots: List[_RtxSlot] = []
        self._horizon_time = _INF
        self._horizon_event = None
        # Arming order, for firing same-deadline cohorts in the order
        # the object engine's per-flow timer events would sort (each
        # Timer.start is a fresh push, so ties resolve by last-arm
        # order, not flow index), and arming time: that push's time.
        self._arm_seq = [0] * n
        self._arm_counter = 0
        self._arm_time = [0.0] * n

        # Poisson arrival machinery (open loop): chunk-buffered pre-draws
        # (float64 arrays, so a backlogged replay hands its slice on as
        # machine floats), and whether the flow's next arrival is on the
        # calendar (an idle flow's is, as an event of its own; see
        # _rearm_arrival).
        self._arr_rng = [
            self.streams.stream(f"client-{i}/poisson") for i in range(n)
        ] if self._open_mode else []
        self._arr_buf: List[array] = [array("d") for _ in range(n)]
        self._arr_pos = [0] * n
        self._arr_last = [0.0] * n  # last drawn absolute arrival time
        self._armed = [False] * n
        return gateway

    def _build_flows(self) -> None:
        config = self.config
        # The sinks' clock: virtual when they run inline, else the
        # simulator itself (which a delayed-ACK timer schedules on).
        self._sink_clock = _SinkClock() if self._inline_sink else self.sim
        server = _BatchNode("server", self._route_ack)
        for index in range(config.n_clients):
            client = _BatchNode(f"client-{index}", partial(self.transmit, index))
            sender, sink = self._add_flow(index, client, server, self._sink_clock)
            sender.rtx_timer = _RtxSlot(self, index)
            self._rtx_slots.append(sender.rtx_timer)
            if self._open_mode:
                # The flow starts with an empty send buffer.
                self._rearm_arrival(index)
            else:
                self._start_workload(index, sender, sink)

    # ------------------------------------------------------------------
    # The fused hops and the timer cohort, as the facades call them
    # ------------------------------------------------------------------
    def transmit(self, i: int, packet: Packet) -> None:
        """Client access hop, fused: the exact Interface arithmetic.

        Also builds the packet's *history*, which orders it against
        another flow's packet reaching the gateway at the identical
        time.  The object engine runs same-time events in push order,
        and the arrival is the last link of a chain of events each
        pushed while its predecessor ran: access-link finish (pushed
        at the packet's serialization start), and before that whatever
        started the serialization -- the previous packet's finish when
        the packet waited behind a busy link (pushed at *its* start,
        and so on back through the burst), else the sender's trigger
        (an ACK delivery, pushed when the ACK left the gateway; a
        timer expiry, pushed when it was armed).  The history is that
        chain of push times, latest first, as nested pairs ``(start,
        (previous start, ... (trigger push, burst number)))``: of two
        simultaneous arrivals, the one whose history sorts lower was
        pushed first at the first level where they differ.
        """
        now = self.sim.now
        busy = self._busy_fwd[i]
        waits = busy > now
        if busy == now:
            # The link frees up at this very instant.  Whichever of the
            # trigger and the previous packet's finish was pushed later
            # runs second, and is the event that starts this packet.
            pushed = self._trigger_pushed
            previous_start = self._chain[i][0]
            if pushed is None or pushed == previous_start:
                raise BatchTieError(
                    f"flow {i} sends at t={now!r}, the instant its access "
                    "link frees up, from an event whose push time is "
                    "unknown or equal to the finishing packet's"
                )
            waits = pushed < previous_start
        if waits:
            start = busy
            history = (start, self._chain[i])
        else:
            start = now
            history = (start, (self._trigger_pushed, self._chain_counter))
            self._chain_counter += 1
        self._chain[i] = history
        finish = start + packet.size * 8.0 / self._client_rate
        self._busy_fwd[i] = finish
        at = finish + self._client_delay
        due = self._gw_due
        other = due.get(at)
        if other is None:
            due[at] = (history, packet)
        elif other.__class__ is list:
            other.append((history, packet))
        else:
            due[at] = [other, (history, packet)]
        self.sim.schedule_at(
            at, self._gw_arrival, packet, priority=self._prio_arrival
        )

    def timer_arm(self, i: int, delay: float) -> None:
        """(Re)start flow ``i``'s retransmit timer (its ``_RtxSlot``):
        ``Timer.start``'s ``now + delay``, into the cohort."""
        now = self.sim.now
        deadline = now + delay
        self._rtx_deadline[i] = deadline
        self._rtx_slots[i].pending = True
        self._arm_seq[i] = self._arm_counter
        self._arm_counter += 1
        self._arm_time[i] = now
        if self._horizon_event is None or deadline < self._horizon_time:
            if self._horizon_event is not None:
                self._horizon_event.cancel()
            self._horizon_time = deadline
            self._horizon_event = self.sim.schedule_at(
                deadline, self._timer_fire, priority=_PRIO_TIMER
            )

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _gw_arrival(self, packet: Packet) -> None:
        now = self.sim.now
        due = self._gw_due.pop(now)
        if due.__class__ is list:
            # One event per tied packet; each serves the next in order.
            packet = self._pop_tied(now, due)
        for hook in self._gw_send_hooks:
            hook(packet, now)
        if self.bottleneck_queue.enqueue(packet, now) and not self._bn_busy:
            self._bn_pull(now)

    def _pop_tied(self, now: float, tied: list) -> Packet:
        """The next of several packets arriving at ``now``, in the
        order the object engine would have pushed their arrivals."""
        if tied[0].__class__ is tuple:  # still (history, packet) pairs
            try:
                tied.sort(key=itemgetter(0))
            except (TypeError, RecursionError) as exc:
                # Equal as far back as they are known: a trigger push
                # compared with None, or with a longer burst's pair.
                raise BatchTieError(
                    f"{len(tied)} gateway arrivals at t={now!r} from flows "
                    f"{[entry[1].flow_id for entry in tied]} have histories "
                    "the tie model cannot order"
                ) from exc
            tied[:] = [entry[1] for entry in tied]
        packet = tied.pop(0)
        if tied:
            self._gw_due[now] = tied
        return packet

    def _bn_pull(self, now: float) -> None:
        packet = self.bottleneck_queue.dequeue(now)
        if packet is None:
            return
        self._bn_busy = True
        self.sim.schedule_at(
            now + packet.size * 8.0 / self._bn_rate,
            self._gw_tx_done,
            packet,
            priority=self._prio_txdone,
        )

    def _gw_tx_done(self, packet: Packet) -> None:
        now = self.sim.now
        arrival = now + self._bn_delay
        if self._inline_sink:
            # Nothing at the server acts on its own: sink processing
            # commutes with everything between now and the delivery
            # time, so run it inline under a virtual clock.  Guard on
            # the horizon: the object engine only delivers when the
            # server-arrival event actually executes, i.e. at times
            # <= duration.
            if arrival <= self._duration:
                self._sink_clock.now = arrival
                self.sinks[packet.flow_id].receive(packet)
        else:
            # A workload's unit timeout or the sink's own delayed-ACK
            # timer may fire in this window, so the delivery needs a
            # real event.
            self.sim.schedule_at(arrival, self._server_arrival, packet)
        # _bn_pull in place: the transmitter stays busy while the queue
        # holds a packet (an empty queue's dequeue answers None and
        # changes nothing).
        packet = self.bottleneck_queue.dequeue(now)
        if packet is None:
            self._bn_busy = False
        else:
            self.sim.schedule_at(
                now + packet.size * 8.0 / self._bn_rate,
                self._gw_tx_done,
                packet,
                priority=self._prio_txdone,
            )

    def _server_arrival(self, packet: Packet) -> None:
        self.sinks[packet.flow_id].receive(packet)

    def _route_ack(self, ack: Packet) -> None:
        """Reverse path, fused: the two reverse output ports (server to
        gateway, shared; gateway to client) are FIFO links that never
        overflow, so each is the busy-time arithmetic of ``transmit``
        -- queueing included -- and the four hops are additions.  An
        ACK a sink emits, from a delivery or from its delayed-ACK
        timer, enters at the sinks' clock."""
        now = self._sink_clock.now
        busy = self._busy_rev_server
        finish = (busy if busy > now else now) + ack.size * 8.0 / self._bn_rate
        self._busy_rev_server = finish
        at_gateway = finish + self._bn_delay
        i = ack.flow_id
        busy = self._busy_rev_client[i]
        left_gateway = (
            busy if busy > at_gateway else at_gateway
        ) + ack.size * 8.0 / self._client_rate
        self._busy_rev_client[i] = left_gateway
        self.sim.schedule_at(
            left_gateway + self._client_delay, self._ack_arrival, ack, left_gateway
        )

    def _ack_arrival(self, ack: Packet, left_gateway: float) -> None:
        now = self.sim.now
        i = ack.flow_id
        open_mode = self._open_mode
        # _catch_up and _rearm_arrival are called only when they have
        # work: an arrival due by now (or a buffer to refill), an idle
        # flow with none on the calendar -- their own early exits.
        if open_mode:
            buf = self._arr_buf[i]
            pos = self._arr_pos[i]
            if pos >= len(buf) or buf[pos] <= now:
                self._catch_up(i, now)
        # The object engine pushes the client's delivery as the ACK
        # finishes serializing at the gateway.
        self._trigger_pushed = left_gateway
        sender = self.senders[i]
        sender.receive(ack)
        self._trigger_pushed = None
        if open_mode and not self._armed[i] and sender.app_total <= sender.t_seqno:
            self._rearm_arrival(i)

    def _timer_fire(self) -> None:
        now = self.sim.now
        self._horizon_event = None
        self._horizon_time = _INF
        deadlines = self._rtx_deadline
        # Fire same-deadline flows in arming order, matching the seq
        # order of the object engine's per-flow timer events.
        due = sorted(
            (int(index) for index in (deadlines <= now).nonzero()[0]),
            key=self._arm_seq.__getitem__,
        )
        for i in due:
            deadlines[i] = _INF
            self._rtx_slots[i].pending = False
            self._catch_up(i, now)
            self._trigger_pushed = self._arm_time[i]
            self.senders[i]._timeout()
            self._trigger_pushed = None
            self._rearm_arrival(i)
        # Re-aim at the earliest remaining deadline (timer_arm calls in
        # the loop may already have armed a nearer horizon).
        earliest = float(deadlines.min())
        if earliest < _INF and (
            self._horizon_event is None or earliest < self._horizon_time
        ):
            if self._horizon_event is not None:
                self._horizon_event.cancel()
            self._horizon_time = earliest
            self._horizon_event = self.sim.schedule_at(
                earliest, self._timer_fire, priority=_PRIO_TIMER
            )

    # ------------------------------------------------------------------
    # Lazy Poisson arrivals
    # ------------------------------------------------------------------
    def _refill(self, i: int) -> None:
        buf = self._arr_buf[i]
        pos = self._arr_pos[i]
        if pos:
            del buf[:pos]
            self._arr_pos[i] = 0
        # n calls of random.Random.expovariate, vectorised exactly: the
        # same ``-log(1 - random()) / lambd`` on the same dedicated
        # per-flow stream as PoissonSource._next_gap, so the times are
        # bit-identical to the object engine's.  random() builds a float
        # from two 32-bit words (a, b) as below; getrandbits(64 * n)
        # takes the same 2n words in the same order, least significant
        # first, and leaves the stream where n random() calls would.
        # n is what the flow can still use before the horizon (a quarter
        # more, plus 16), at most ARRIVAL_CHUNK: a short cell draws the
        # tens of gaps it uses, not a full chunk per flow.
        ahead = 1.25 * (self._duration - self._arr_last[i]) / self._mean_gap
        n = int(min(ARRIVAL_CHUNK - 16, max(0.0, ahead))) + 16
        words = np.frombuffer(
            self._arr_rng[i].getrandbits(64 * n).to_bytes(8 * n, "little"),
            dtype="<u4",
        )
        uniform = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * _TO_UNIT
        # libm's log, one element at a time: np.log is not correctly
        # rounded and differs from it on a few values in a thousand.
        logs = np.fromiter(map(_log, (1.0 - uniform).tolist()), float, n)
        gaps = -logs / (1.0 / self._mean_gap)
        # A running sum from the last time drawn; accumulate adds in
        # sequence, as the one-gap-per-tick sum does.
        gaps[0] += self._arr_last[i]
        times = np.add.accumulate(gaps)
        buf.frombytes(times.tobytes())
        self._arr_last[i] = float(times[-1])

    def _peek_arrival(self, i: int) -> float:
        if self._arr_pos[i] >= len(self._arr_buf[i]):
            self._refill(i)
        return self._arr_buf[i][self._arr_pos[i]]

    def _emit_arrival(self, i: int, at: float) -> None:
        # Mirrors TrafficSource._emit: offered hook, then app_arrival.
        # ``at`` is now: a replay on an empty send buffer is an armed
        # arrival, served by its own event when due.
        self.offered.add(at)
        self.senders[i].app_arrival(1)

    def _catch_up(self, i: int, now: float) -> None:
        """Replay this flow's pending Poisson arrivals up to ``now``.

        Always the first action in any handler touching flow ``i``, so
        the flow's send buffer and stats are current before any policy
        runs, and re-arming afterwards picks an arrival ``> now``.

        While the flow is backlogged its window is shut (the lazy
        invariant: nothing between two events for flow ``i`` can open
        it), so every deferred arrival's send_much would be a no-op --
        those are replayed in one bulk bookkeeping call.  Only an
        arrival landing on an *empty* send buffer (the armed-event
        case) takes the full app_arrival path and may transmit.
        """
        if not self._open_mode:
            return
        buf = self._arr_buf[i]
        pos = self._arr_pos[i]
        sender = self.senders[i]
        bulk = None
        while True:
            if pos >= len(buf):
                # _refill compacts the consumed prefix, so publish the
                # local cursor before it runs.
                self._arr_pos[i] = pos
                self._refill(i)
                pos = self._arr_pos[i]
            at = buf[pos]
            if at > now:
                break
            # Once backlogged, the window stays shut for the rest of
            # the replay (emissions only deepen the backlog), so every
            # remaining pending arrival is bulk bookkeeping: take them
            # a sorted-chunk slice at a time.
            if bulk is None and sender.app_total <= sender.t_seqno:
                pos += 1
                self._emit_arrival(i, at)
                continue
            cut = bisect_right(buf, now, pos)
            seg = buf[pos:cut]
            bulk = seg if bulk is None else bulk + seg
            pos = cut
        self._arr_pos[i] = pos
        if bulk is not None:
            self.offered.extend(bulk)
            sender.app_arrival_bulk(bulk)

    def _arrival_fire(self, i: int) -> None:
        # Flow i's armed arrival is due: the same time and priority as
        # the object engine's tick (Poisson times of independent
        # streams never tie with anything else).
        self._armed[i] = False
        self._catch_up(i, self.sim.now)
        self._rearm_arrival(i)

    def _rearm_arrival(self, i: int) -> None:
        """Put an idle flow's next arrival on the calendar, as an event
        of its own; a backlogged flow's arrivals wait for catch-up."""
        sender = self.senders[i]
        if (
            not self._open_mode
            or self._armed[i]
            or sender.app_total > sender.t_seqno
        ):
            return
        self._armed[i] = True
        self.sim.schedule_at(self._peek_arrival(i), self._arrival_fire, i)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute(self) -> None:
        config = self.config
        self.sim.run(until=config.duration)
        # Backlogged (lazy) flows still owe their bookkeeping ticks
        # up to the horizon; the object engine executed those as
        # real events.  Their send_much is a no-op (window shut).
        if self._open_mode:
            for i in range(config.n_clients):
                self._catch_up(i, config.duration)
            # What is left of the pre-draws lies past the horizon and is
            # never read: a finished cell holds none of it.
            self._arr_buf.clear()
