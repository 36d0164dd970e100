"""``Record``: the base of modgrad's value types, which generates no code.

A subclass names its fields in ``_fields`` and writes a plain ``__init__``
that checks its arguments and calls ``self._fill`` with the values in
``_fields`` order.  Records are immutable unless ``_mutable`` is set, equal
when type and fields are, print as ``Name(field=value, ...)``, and
``replace(**changes)`` builds a copy through ``__init__`` and its checks.
"""

__all__ = ["Record"]


class Record:
    _fields = ()
    _mutable = False

    def _fill(self, *values):
        self.__dict__.update(zip(self._fields, values))

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def _check_mutable(self, name):
        if not self._mutable:
            raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __setattr__(self, name, value):
        self._check_mutable(name)
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        self._check_mutable(name)
        object.__delattr__(self, name)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        if self._mutable:
            raise TypeError(f"unhashable type: {type(self).__name__!r}")
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})
