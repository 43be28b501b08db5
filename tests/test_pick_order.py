"""Pick order: the runner's pending-task structure against the full scan.

``tests/pick_reference.py`` holds the scan the runner used while its
pending tasks were one flat list.  Every case here replays one random
script of the calls the pool loop makes -- pick, and requeue of a task
it picked -- against both, and requires the same task object out of
every pick, and None from one exactly when the other returns None.

The scripts are built to sit on the order's edges: unit counts drawn
from a handful of values so ties are the rule (across protocols,
queues and backends too), and requeued tasks that tie with tasks
enqueued long before them.
"""

import random

import pytest

from repro.experiments.config import paper_config
from repro.experiments.runner import _PendingTasks, _Task, cell_units
from tests import pick_reference as reference

KINDS = (
    dict(protocol="reno", queue="fifo"),
    dict(protocol="reno", queue="red"),
    dict(protocol="vegas", queue="fifo"),
    dict(protocol="udp", queue="fifo"),
    dict(protocol="reno", queue="fifo", backend="fluid"),
)
#: Few values, many collisions: 2 x 3.0 == 3 x 2.0 == 6 x 1.0.
CLIENTS = (2, 3, 6)
DURATIONS = (1.0, 2.0, 3.0)


def random_grid(rng, cells):
    kinds = rng.sample(KINDS, rng.randint(3, len(KINDS)))
    tasks = []
    for index in range(cells):
        config = paper_config(
            n_clients=rng.choice(CLIENTS),
            duration=rng.choice(DURATIONS),
            seed=index,
            **rng.choice(kinds),
        )
        tasks.append(_Task(index, config, digest=f"{index:04d}"))
    return tasks


def replay(seed):
    """One random script; returns how many picks were compared."""
    rng = random.Random(seed)
    tasks = random_grid(rng, rng.randint(8, 60))
    scan = list(tasks)
    production = _PendingTasks(tasks)
    popped = []
    picks = 0
    script = rng.choices(["pick", "requeue"], weights=[6, 2], k=6 * len(tasks))
    for step in script:
        if step == "pick":
            expected = reference.pick_next(scan)
            got = production.pop()
            assert got is expected, (seed, picks, got, expected)
            assert len(production) == len(scan)
            picks += 1
            if got is not None:
                popped.append(got)
        elif step == "requeue" and popped:
            task = popped.pop(rng.randrange(len(popped)))
            scan.append(task)
            production.add(task)
    # Drain: both must empty in the same order and then both report
    # nothing pending.
    while scan:
        expected = reference.pick_next(scan)
        assert expected is not None
        assert production.pop() is expected, (seed, "drain")
        picks += 1
    assert production.pop() is None
    assert len(production) == 0
    return picks


# ``schedule`` has one value: it keeps the ids these cases had while
# there was a submission-order schedule beside this one.
@pytest.mark.parametrize("schedule", ["cost"])
@pytest.mark.parametrize("seed", range(40))
def test_same_pop_sequence_as_the_full_scan(seed, schedule):
    assert replay(seed) > 8


def test_benchmark_grid_pops_largest_first_ties_by_index():
    """The ledger's ``grid_tiny1024`` shapes, cycled over 48 cells:
    the pops are the grid sorted on (-units, index)."""
    shapes = ((2, 0.8), (6, 1.6), (3, 3.2), (8, 0.8), (2, 2.4), (4, 1.6))
    tasks = [
        _Task(
            index,
            paper_config(
                n_clients=shapes[index % 6][0],
                duration=shapes[index % 6][1],
                seed=1 + index,
            ),
            digest=f"{index:04d}",
        )
        for index in range(48)
    ]
    production = _PendingTasks(tasks)
    popped = [production.pop() for _ in tasks]
    expected = sorted(tasks, key=lambda t: (-cell_units(t.config), t.index))
    assert [t.index for t in popped] == [t.index for t in expected]
    assert production.pop() is None
