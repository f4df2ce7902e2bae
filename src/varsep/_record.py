"""Value semantics for the package's small immutable records.

AST nodes, partitions, grids and reports are plain classes with `__slots__`
and a hand-written `__init__`; this base gives them equality by type and
fields, a hash consistent with it, and a repr naming the fields.  Fields
are the class's `__slots__`, in order.  Nothing stops assignment to a
field: records are immutable by convention, and no code in the package
mutates one after construction.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _flat(self) -> list:
        """The type and fields of the record in preorder, nested records
        walked with a stack, so a deep left spine (a long sum) costs no
        recursion.  Each type has a fixed number of fields, so equal flat
        lists mean equal records."""
        flat, stack = [], [self]
        while stack:
            value = stack.pop()
            if isinstance(value, Record):
                flat.append(type(value))
                stack += [getattr(value, name) for name in reversed(value.__slots__)]
            else:
                flat.append(value)
        return flat

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._flat() == other._flat()

    def __hash__(self) -> int:
        return hash(tuple(self._flat()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
