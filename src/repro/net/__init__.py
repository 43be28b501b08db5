"""Packet-level network substrate.

This package models the data path the paper's ns simulations used:
store-and-forward nodes connected by full-duplex links, each output port
fronted by a queueing discipline (drop-tail FIFO or RED), and a
dumbbell/star topology builder matching the paper's Figure 1.
"""
