"""Reference form of the sweep runner's task pick.

This is ``SweepRunner._pick_next`` as it stood while the pending tasks
of a sweep were one flat list -- a full scan per dispatch -- moved here
with ``self`` dropped, and ranking by :func:`cell_units` since cells
launch by size alone.  It defines the pop order the production
structure must reproduce: the largest launchable task, ties to the one
enqueued first; None while every pending task is still backing off.
``tests/test_pick_order.py`` holds the runner to it pop for pop.

``pending`` is the list in enqueue order: the grid's uncached cells by
index, then every requeued task appended as it was requeued.

A change that reorders dispatch on purpose has to edit this file, and
say so; a change that claims the same order must not.
"""

from repro.experiments.runner import cell_units


def pick_next(pending, now):
    """Pop the next launchable task, the largest by cell units; None
    if every pending task is still backing off."""
    best_index = -1
    best_units = float("-inf")
    for i, task in enumerate(pending):
        if task.ready_at > now:
            continue
        units = cell_units(task.config)
        if units > best_units:
            best_units = units
            best_index = i
    if best_index >= 0:
        return pending.pop(best_index)
    return None
