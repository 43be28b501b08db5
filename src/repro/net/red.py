"""Random Early Detection (RED) gateways.

Implements the algorithm of Floyd & Jacobson, "Random Early Detection
Gateways for Congestion Avoidance" (IEEE/ACM ToN, 1993) -- the paper's
reference [6] -- with the ns-2 refinements the original study would have
inherited:

* exponentially-weighted moving average (EWMA) of the instantaneous
  queue length, updated on every arrival;
* idle-time compensation: while the queue sits empty the average decays
  as if small packets had been departing;
* count-based drop probability ``p_a = p_b / (1 - count * p_b)`` so that
  inter-drop gaps are roughly uniform rather than geometric;
* forced drop when the average exceeds ``max_th`` (plus physical
  tail drop at the buffer limit);
* optional ECN marking instead of dropping for ECN-capable packets.

:class:`AdaptiveREDQueue` adds the self-configuring behaviour of Feng,
Kandlur, Saha & Shin, "A Self-Configuring RED Gateway" (INFOCOM 1999)
-- the paper's reference [5] -- scaling ``max_p`` up or down as the
average queue drifts outside the (min_th, max_th) band.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.net.packet import Packet
from repro.net.queues import PacketQueue


@dataclass
class REDParams:
    """RED configuration.

    Defaults follow the values recommended in the 1993 paper and used by
    ns-2 at the time of the study; ``min_th``/``max_th`` default to the
    paper's Table 1 values (10 and 40 packets).
    """

    min_th: float = 10.0
    max_th: float = 40.0
    max_p: float = 0.1
    weight: float = 0.002
    ecn: bool = False
    # Mean transmission time of one packet on the outgoing link, used for
    # idle-time compensation.  The topology builder fills this in from
    # the link rate and mean packet size.
    idle_packet_time: float = 0.0026667  # 1000 B at 3 Mbps

    def validate(self) -> None:
        """Raise ValueError on inconsistent settings."""
        if not 0 < self.weight <= 1:
            raise ValueError("RED weight must be in (0, 1]")
        if self.min_th < 0 or self.max_th <= self.min_th:
            raise ValueError("need 0 <= min_th < max_th")
        if not 0 < self.max_p <= 1:
            raise ValueError("max_p must be in (0, 1]")
        if self.idle_packet_time <= 0:
            raise ValueError("idle_packet_time must be positive")


class REDQueue(PacketQueue):
    """A RED gateway queue."""

    def __init__(
        self,
        capacity: int,
        params: Optional[REDParams] = None,
        rng: Optional[random.Random] = None,
        name: str = "red",
    ) -> None:
        super().__init__(capacity, name=name)
        self.params = params or REDParams()
        self.params.validate()
        self._rng = rng or random.Random(0)
        self.avg = 0.0
        self._count = -1  # packets since last early drop; -1 = below min_th
        self._idle_since: Optional[float] = 0.0  # queue starts empty

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit(self, packet: Packet, now: float) -> bool:
        self._update_average(now)

        params = self.params
        if len(self._packets) >= self.capacity:
            # Physical buffer overflow: unavoidable tail drop.
            self._count = 0
            self.last_drop_cause = "buffer_overflow"
            return False

        if self.avg < params.min_th:
            self._count = -1
            return True

        if self.avg >= params.max_th:
            # Average beyond the band.
            self._count = 0
            self.last_drop_cause = "red_forced"
            return self._mark_or_refuse(packet)

        drop_probability = self._drop_probability()
        self._count += 1
        final_probability = self._spread(drop_probability)
        if self._rng.random() < final_probability:
            self._count = 0
            self.last_drop_cause = "red_early"
            return self._mark_or_refuse(packet)
        return True

    def _on_dequeue(self, packet: Packet, now: float) -> None:
        if not self._packets:
            self._idle_since = now

    # ------------------------------------------------------------------
    # RED mechanics
    # ------------------------------------------------------------------
    def _update_average(self, now: float) -> None:
        params = self.params
        if self._packets:
            self.avg = (1 - params.weight) * self.avg + params.weight * len(
                self._packets
            )
        else:
            # Queue has been idle: decay the average as if ``m`` small
            # packets had departed in the idle period.
            idle_since = self._idle_since if self._idle_since is not None else now
            m = max(0.0, (now - idle_since) / params.idle_packet_time)
            self.avg *= (1 - params.weight) ** m
            self._idle_since = None

    def _drop_probability(self) -> float:
        """Instantaneous drop probability p_b from the average queue."""
        params = self.params
        fraction = (self.avg - params.min_th) / (params.max_th - params.min_th)
        return params.max_p * fraction

    def _spread(self, p_b: float) -> float:
        """Count-corrected probability p_a (uniformizes drop spacing)."""
        if p_b <= 0:
            return 0.0
        denominator = 1 - self._count * p_b
        if denominator <= 0:
            return 1.0
        return min(1.0, p_b / denominator)

    def _mark_or_refuse(self, packet: Packet) -> bool:
        """Mark an ECN-capable packet, or signal a drop.

        Returns True (admit, marked) or False (drop).  Marks are only
        used below the physical limit; overflow always drops.
        """
        if self.params.ecn and packet.ecn_capable:
            packet.ecn_ce = True
            self.stats.marks += 1
            return True
        return False


class AdaptiveREDQueue(REDQueue):
    """Self-configuring RED (Feng et al., INFOCOM 1999).

    Periodically inspects the average queue: if it has fallen below
    ``min_th`` the gateway is being too aggressive and ``max_p`` is
    scaled down; if it has risen above ``max_th`` the gateway is being
    too timid and ``max_p`` is scaled up.
    """

    def __init__(
        self,
        capacity: int,
        params: Optional[REDParams] = None,
        rng: Optional[random.Random] = None,
        name: str = "ared",
        interval: float = 0.5,
        decrease_factor: float = 3.0,
        increase_factor: float = 2.0,
        min_p: float = 0.001,
        max_p_limit: float = 0.5,
    ) -> None:
        super().__init__(capacity, params, rng, name=name)
        if interval <= 0:
            raise ValueError("adaptation interval must be positive")
        self.interval = interval
        self.decrease_factor = decrease_factor
        self.increase_factor = increase_factor
        self.min_p = min_p
        self.max_p_limit = max_p_limit
        self._next_adapt = interval
        self.adaptations = 0

    def _admit(self, packet: Packet, now: float) -> bool:
        self._maybe_adapt(now)
        return super()._admit(packet, now)

    def _maybe_adapt(self, now: float) -> None:
        while now >= self._next_adapt:
            self._next_adapt += self.interval
            params = self.params
            if self.avg < params.min_th:
                new_p = max(self.min_p, params.max_p / self.decrease_factor)
            elif self.avg > params.max_th:
                new_p = min(self.max_p_limit, params.max_p * self.increase_factor)
            else:
                continue
            if new_p != params.max_p:
                params.max_p = new_p
                self.adaptations += 1
