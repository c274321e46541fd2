"""One memory budget for every array pass.

An array pass handles many items in one numpy call each (the windows of a
collision search, the points of a membership test, the flights of a group,
the series of an adjoint block or a check, the rows of a CSV pass), so
that the fixed cost of a call is paid once for all of them.  Its arrays
grow with the items it takes, so every pass asks :func:`fit` how many
items to take, given the bytes that one item allocates, counted from the
shapes the pass builds: its ``d``-wide arrays and their temporaries.  A
pass then holds about ``PASS_BYTES`` whatever its input size and
dimension, or one item when that alone holds more.  Items of different
sizes are split into balanced groups by :func:`groups`.  Every pass gives
the same bits at any slicing, so the budget moves no output.
"""

from __future__ import annotations

import bisect
import itertools
from collections.abc import Sequence

# 1.125 MiB, close to the least that keeps a kernel slice on 6 hard disks
# at 21 windows (slices of a quarter of that made such a run 12% slower);
# each pass adds about this much to the process's peak memory.
PASS_BYTES = 1_179_648


def fit(item_bytes: int) -> int:
    """How many items of ``item_bytes`` each one pass takes: as many as fit
    ``PASS_BYTES``, at least one."""
    return max(1, PASS_BYTES // item_bytes)


def groups(item_bytes: Sequence[int]) -> list[range]:
    """Consecutive groups of items of the given sizes, one pass each, each
    within ``PASS_BYTES`` or of one item.  There are as many as filling
    each group in turn makes, the fewest possible, and their bytes are
    balanced: group ``k`` ends at the item boundary nearest ``k / n`` of
    all the bytes, moved only as far as keeps every group within bounds."""
    ends = list(itertools.accumulate(item_bytes, initial=0))
    count = len(item_bytes)
    # least[j]: the first item of the last j groups, each as long as it can be
    least = [count]
    while least[-1] > 0:
        b = least[-1]
        least.append(min(b - 1, bisect.bisect_left(ends, ends[b] - PASS_BYTES)))
    n = len(least) - 1
    cuts = [0]
    for k in range(1, n):
        share = k * ends[-1] / n
        j = bisect.bisect_left(ends, share)
        if j and ends[j] - share > share - ends[j - 1]:
            j -= 1
        # the rest must fit its n - k groups, of one item at least, and this
        # group must fit the budget or be one item
        a = cuts[-1]
        top = min(max(a + 1, bisect.bisect_right(ends, ends[a] + PASS_BYTES) - 1),
                  count - (n - k))
        cuts.append(min(max(j, least[n - k], a + 1), top))
    cuts.append(count)
    return [range(a, b) for a, b in zip(cuts, cuts[1:])] if n else []
