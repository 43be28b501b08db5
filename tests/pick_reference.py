"""Reference form of the sweep runner's task pick.

This is ``SweepRunner._pick_next`` as it stood while the pending tasks
of a sweep were one flat list -- a full scan per dispatch, every
pending task's estimate recomputed under the cost model as it is *now*
-- moved here verbatim with ``self`` dropped.  It defines the pop
order the production structure must reproduce: the longest-expected
launchable task, ties to the one enqueued first; submission order
under fifo (``cost is None``); None while every pending task is still
backing off.  ``tests/test_pick_order.py`` holds the runner to it pop
for pop.

``pending`` is the list in enqueue order: the grid's uncached cells by
index, then every requeued task appended as it was requeued.

A change that reorders dispatch on purpose has to edit this file, and
say so; a change that claims the same order must not.
"""


def pick_next(pending, cost, now):
    """Pop the next launchable task: the longest-expected one under
    the cost model, the first submitted under fifo; None if every
    pending task is still backing off."""
    best_index = -1
    best_estimate = float("-inf")
    for i, task in enumerate(pending):
        if task.ready_at > now:
            continue
        if cost is None:
            return pending.pop(i)
        estimate = cost.estimate(task.config)
        if estimate > best_estimate:
            best_estimate = estimate
            best_index = i
    if best_index >= 0:
        return pending.pop(best_index)
    return None
