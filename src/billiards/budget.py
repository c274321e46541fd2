"""One memory budget for every array pass.

An array pass handles many items in one numpy call each (the windows of a
collision search, the points of a membership test, the flights of a group,
the series of an adjoint block or a check, the values of a CSV file), so
that the fixed cost of a call is paid once for all of them.  Its arrays
grow with the items it takes, so every pass asks :func:`fit` how many
items to take, given the bytes that one item allocates, counted from the
shapes the pass builds: its ``d``-wide arrays and their temporaries.  A
pass then holds about ``PASS_BYTES`` whatever its input size and
dimension, or one item when that alone holds more.  Every pass gives the
same bits at any slicing, so the budget moves no output.
"""

from __future__ import annotations

import numpy as np

# 1.125 MiB, close to the least that keeps a kernel slice on 6 hard disks
# at 21 windows (slices of a quarter of that made such a run 12% slower);
# each pass adds about this much to the process's peak memory.
PASS_BYTES = 1_179_648


def fit(item_bytes) -> int:
    """How many items one pass takes: as many as fit ``PASS_BYTES``, at
    least one.  ``item_bytes`` is the size of every item, an int, or a
    sequence of item sizes, of which the leading items that fit together
    are taken."""
    if isinstance(item_bytes, int):
        return max(1, PASS_BYTES // item_bytes)
    return max(1, int(np.searchsorted(np.cumsum(item_bytes), PASS_BYTES, side="right")))
