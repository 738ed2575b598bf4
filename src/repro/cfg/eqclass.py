"""Equivalence-class partitioning of indirect-branch targets (Sec. 2).

"Two target addresses are equivalent if there is an indirect branch
that can jump to both targets according to the CFG.  [...] If two
indirect branches target two sets of destinations and those two sets
are not disjoint, the two sets are merged into one equivalence class."

:func:`partition` computes exactly that: each branch merges its whole
target set into one class.  The number of resulting classes is the
"EQCs" column of Table 3, and the loss of precision relative to the raw
CFG is the price the classic-CFI/MCFI encoding pays for O(1) checks.
:class:`Partition` is the same computation kept open, so the dynamic
linker can copy the host's classes and merge the libraries' groups
into the copy.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (Collection, Dict, Hashable, Iterable, List, Set,
                    Tuple)

#: (smallest member, class key, members)
Class = Tuple[Hashable, Hashable, List[Hashable]]


class Partition:
    """The classes that merging groups induces, one group at a time.

    Items register in order; a group registers its members not yet
    seen, in its iteration order, and merges all of its members into
    one class.  A merge relabels the members of the smaller classes
    into the largest, so each member moves O(log n) times and no lookup
    walks a parent chain.
    """

    def __init__(self, items: Iterable[Hashable] = ()) -> None:
        #: member -> the key of its class (registration order)
        self.label: Dict[Hashable, Hashable] = {item: item
                                                for item in items}
        #: class key -> members, for classes of two or more members only
        self.members: Dict[Hashable, List[Hashable]] = {}
        #: keys of the classes a merge grew, and of those it absorbed
        self.grown: Set[Hashable] = set()
        self.gone: Set[Hashable] = set()
        #: keys whose member list the partition this one copies owns
        self._shared: Set[Hashable] = set()

    def copy(self) -> "Partition":
        """A partition that starts as this one and never changes it."""
        other = Partition()
        other.label = dict(self.label)
        other.members = dict(self.members)
        other._shared = set(self.members)
        return other

    def union(self, groups: Iterable[Collection[Hashable]]) -> None:
        """Merge the members of each of ``groups`` into one class."""
        label = self.label
        members = self.members
        shared = self._shared
        register = label.setdefault
        for group in groups:
            keys = set(map(register, group, group))
            if len(keys) < 2:
                continue
            largest = max(keys, key=lambda key: len(members.get(key, ())))
            keys.discard(largest)
            merged = members.get(largest)
            if merged is None:
                merged = members[largest] = [largest]
            elif largest in shared:
                merged = members[largest] = list(merged)
                shared.discard(largest)
            for key in keys:
                moved = members.pop(key, None) or [key]
                for item in moved:
                    label[item] = largest
                merged.extend(moved)
            self.grown.add(largest)
            self.gone |= keys

    def classes(self) -> List[Class]:
        """Every class, by smallest member, with its members in
        registration order."""
        buckets: Dict[Hashable, List[Hashable]] = {}
        for item, key in self.label.items():
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [item]
            else:
                bucket.append(item)
        return sorted(((min(members), key, members)
                       for key, members in buckets.items()),
                      key=itemgetter(0))


def numbering(classes: Iterable[Class]) -> Dict[Hashable, int]:
    """Number ``classes`` from 0 in order; the dict lists them class by
    class, each with its members in the order given."""
    return {item: number
            for number, (_, _, members) in enumerate(classes)
            for item in members}


def partition(items: Iterable[Hashable],
              groups: Iterable[Collection[Hashable]]) -> Dict[Hashable, int]:
    """Number the classes that merging each of ``groups`` induces.

    ``items`` are registered first, in order, then each group in turn
    (see :class:`Partition`).  Returns every registered member's class
    number.  Classes are numbered from 0 in order of their smallest
    member, and the dict lists them class by class, each class's
    members in registration order, so the result is deterministic
    across runs.
    """
    classes = Partition(items)
    classes.union(groups)
    return numbering(classes.classes())
