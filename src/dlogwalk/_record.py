"""Dataclass-style == and repr for the slotted value classes, which spares
`import dlogwalk` the dataclasses module and its decorator."""


class Record:
    """Equal to an instance of the same class with equal _fields, shown as
    Name(field=value, ...), and unhashable, since it is mutable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _assign(self, *values):
        """Set the _fields, in order, to `values`."""
        for name, value in zip(self._fields, values):
            setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}"
                            for name in self._fields])
        return f"{type(self).__name__}({fields})"
