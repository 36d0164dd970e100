"""``Record``: the base of modgrad's value types, which generates no code.

A subclass names its fields in ``_fields`` and writes a plain ``__init__``
that checks its arguments and calls ``self._fill`` with the values in
``_fields`` order.  Records are immutable, equal when type and fields
are, print as ``Name(field=value, ...)``, and ``replace(**changes)``
builds a copy through ``__init__`` and its checks.
"""

__all__ = ["Record"]


class Record:
    _fields = ()

    def _fill(self, *values):
        self.__dict__.update(zip(self._fields, values))

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})
