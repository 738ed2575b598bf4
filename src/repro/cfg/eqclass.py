"""Equivalence-class partitioning of indirect-branch targets (Sec. 2).

"Two target addresses are equivalent if there is an indirect branch
that can jump to both targets according to the CFG.  [...] If two
indirect branches target two sets of destinations and those two sets
are not disjoint, the two sets are merged into one equivalence class."

:func:`partition` computes exactly that: each branch merges its whole
target set into one class.  The number of resulting classes is the
"EQCs" column of Table 3, and the loss of precision relative to the raw
CFG is the price the classic-CFI/MCFI encoding pays for O(1) checks.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Collection, Dict, Hashable, Iterable, List


def partition(items: Iterable[Hashable],
              groups: Iterable[Collection[Hashable]]) -> Dict[Hashable, int]:
    """Number the classes that merging each of ``groups`` induces.

    ``items`` are registered first, in order; each group (a set or a
    list) then registers its members not yet seen, in its iteration
    order, and merges all of its members into one class.  A merge relabels the members of the
    smaller classes into the largest, so each member moves O(log n)
    times and no lookup walks a parent chain.

    Returns every registered member's class number.  Classes are
    numbered from 0 in order of their smallest member, and the dict
    lists them class by class, each class's members in registration
    order, so the result is deterministic across runs.
    """
    #: member -> the key of its class (registration order)
    label: Dict[Hashable, Hashable] = {item: item for item in items}
    #: class key -> members, for classes of two or more members only
    members: Dict[Hashable, List[Hashable]] = {}
    for group in groups:
        keys = set(map(label.setdefault, group, group))
        if len(keys) < 2:
            continue
        largest = max(keys, key=lambda key: len(members.get(key, ())))
        keys.discard(largest)
        merged = members.setdefault(largest, [largest])
        for key in keys:
            moved = members.pop(key, None) or [key]
            for item in moved:
                label[item] = largest
            merged.extend(moved)
    order = sorted(set(label.values()),
                   key=lambda key: min(members.get(key, (key,))))
    number = {key: index for index, key in enumerate(order)}
    # A stable sort by class number keeps registration order within
    # each class.
    return dict(sorted(((item, number[key]) for item, key in label.items()),
                       key=itemgetter(1)))
