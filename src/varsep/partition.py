"""Partitions of variable indices and the union-find used to derive them."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ._record import Record


class Partition(Record):
    """Disjoint, exhaustive blocks of variable indices.

    The blocks may come as any iterables, in any order.  They are stored
    normalized: each block a sorted tuple, blocks ordered by their smallest
    member.  `ValueError` is raised for a member that is not an `int` (a
    `bool` is not), for an empty block and unless the members are each of
    0, ..., n-1 exactly once (no repeat, overlap or gap).
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: Iterable[Iterable[int]]):
        blocks = [tuple(block) for block in blocks]
        members = [i for block in blocks for i in block]
        # checked before a sort compares the members
        if not set(map(type, members)) <= {int}:
            bad = next(i for i in members if type(i) is not int)
            raise ValueError(f"{bad!r} is not a variable index")
        # disjoint sorted blocks sort lexicographically by their smallest member
        blocks = tuple(sorted(map(tuple, map(sorted, blocks))))
        if not all(blocks):
            raise ValueError("partition blocks must be nonempty")
        members.sort()
        if members != list(range(len(members))):
            k, i = next((k, i) for k, i in enumerate(members) if i != k)
            if k and i == k - 1:
                raise ValueError(f"index {i} appears more than once")
            raise ValueError(f"index {k} is missing" if i > k else f"{i!r} is not a variable index")
        self.blocks = blocks

    @classmethod
    def singletons(cls, n: int) -> Partition:
        return cls(zip(range(n)))

    @property
    def var_count(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def is_all_singletons(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)

    def name_blocks(self, names: Sequence[str]) -> list[list[str]]:
        return [[names[i] for i in block] for block in self.blocks]


class UnionFind:
    """Minimal union-find with path compression, for connected components."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, a: int, b: int) -> None:
        """Join the components of `a` and `b`."""
        ra, rb = self.find(a), self.find(b)
        self.parent[rb] = ra  # a root is its own parent, so no change when ra == rb

    def partition(self) -> Partition:
        groups: dict[int, list[int]] = {}
        for i in range(len(self.parent)):
            groups.setdefault(self.find(i), []).append(i)
        return Partition(groups.values())
