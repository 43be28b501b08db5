"""Transport protocols.

Packet-counted implementations (in the style of ns-2's ``Agent/TCP``,
which the paper used) of:

* UDP (no flow or congestion control),
* TCP Tahoe (slow start + congestion avoidance + fast retransmit),
* TCP Reno (+ fast recovery) -- the paper's main subject,
* TCP NewReno (partial-ACK aware fast recovery),
* TCP Vegas (alpha/beta/gamma congestion avoidance),
* ECN-capable Reno (reacts to RED marks instead of drops),

plus receiving sinks with an optional delayed-ACK policy (the paper's
"Reno/DelayAck" configuration).
"""
