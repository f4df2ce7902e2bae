"""Value semantics for the package's small immutable records.

AST nodes, partitions, grids and reports are plain classes whose fields are
their `__slots__`, in order; this base gives them equality by type and
fields, a hash consistent with it, a repr naming the fields, and the
initialiser the reports use.  The AST nodes set their fields by hand, as
the parser builds one per token and the generic initialiser doubles parse
time; `Partition` and `SampleGrid` validate their input.  Records are
immutable by convention: no code in the package mutates one.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        """The fields from positional, then keyword arguments; TypeError on a missing, repeated or unknown one."""
        names = self.__slots__
        fields = dict(zip(names, args), **kwargs)
        # all the fields, from exactly as many arguments: none missing, repeated or unknown
        if len(args) + len(kwargs) != len(names) or fields.keys() != set(names):
            raise TypeError(f"{type(self).__name__}() takes {', '.join(names)} once each;"
                            f" got {len(args)} positional and {sorted(kwargs)} by keyword")
        for name, value in fields.items():
            setattr(self, name, value)

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
