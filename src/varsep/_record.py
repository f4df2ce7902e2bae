"""Value semantics for the package's small immutable records.

AST nodes, partitions, grids and reports are plain classes whose fields are
their `__slots__`, in order; this base gives them equality by type and
fields, a hash consistent with it, a repr naming the fields, and, to each
subclass that writes no `__init__`, an initialiser generated from its
`__slots__` when the class is created.  It is a plain `def` that assigns
each field, the same code as one written by hand, so the parser builds its
nodes at full speed and `inspect.signature` shows the fields.  Only
`Partition` and `SampleGrid` write their own, to normalize their input
(blocks in normal form, coordinates as floats) and to reject input that
names no partition or grid (`ValueError`).
Records are immutable by convention: no code in the package mutates one.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        if "__init__" not in vars(cls):
            names = cls.__slots__
            source = f"def __init__(self, {', '.join(names)}):" + "".join(f"\n    self.{name} = {name}" for name in names)
            namespace = {}
            exec(source, namespace)
            cls.__init__ = namespace["__init__"]
            # the name Python's own TypeError gives for a missing, repeated or unknown field
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

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
        """`Type(field=value, ...)`, nested records written with a stack as in _flat, not recursively."""
        pieces, stack = [], [self]
        while stack:
            value = stack.pop()
            if isinstance(value, str):  # literal text, or the repr of a field that is no record
                pieces.append(value)
                continue
            names = value.__slots__
            pieces.append(f"{type(value).__name__}(")
            stack.append(")")
            for k in reversed(range(len(names))):
                field = getattr(value, names[k])
                stack += (field if isinstance(field, Record) else repr(field), f"{', ' if k else ''}{names[k]}=")
        return "".join(pieces)
