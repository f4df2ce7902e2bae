"""Partitions of variable indices and the union-find used to derive them.

`UnionFind.partition` hands out the normal form directly: its ascending
scan yields sorted blocks ordered by their smallest member."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ._record import Record


class Partition(Record):
    """Disjoint, exhaustive blocks of variable indices.

    Blocks are stored normalized: each block sorted ascending, blocks ordered
    by their smallest member, and the union equal to {0, ..., n-1}.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[tuple[int, ...], ...]):
        seen: set[int] = set()
        for block in blocks:
            if not block:
                raise ValueError("partition blocks must be nonempty")
            if list(block) != sorted(block):
                raise ValueError(f"block {block} is not sorted")
            if seen & set(block):
                raise ValueError(f"block {block} overlaps another block")
            seen.update(block)
        if seen != set(range(len(seen))):
            raise ValueError(f"blocks must cover a contiguous index range, got {sorted(seen)}")
        if list(blocks) != sorted(blocks, key=lambda b: b[0]):
            raise ValueError("blocks must be ordered by smallest member")
        self.blocks = blocks

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> Partition:
        """Normalize arbitrary block order into a Partition."""
        normalized = sorted((tuple(sorted(set(b))) for b in blocks), key=lambda b: b[0] if b else -1)
        return cls(tuple(normalized))

    @classmethod
    def singletons(cls, n: int) -> Partition:
        return cls(tuple((i,) for i in range(n)))

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
        return Partition(tuple(map(tuple, groups.values())))
