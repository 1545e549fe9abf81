"""The base of tancat's immutable value classes.

Weil algebras, terms, anchored shapes, algebroids and bundles are values:
built once, never changed, compared by their fields.  They are written by
hand on `Frozen` rather than with `dataclasses`, whose import (with
`inspect`, `ast`, `dis` and `tokenize`) and per-class code generation were
about a fifth of the cost of `import tancat.cli`.
"""


class Frozen:
    """An immutable value with the fields named in `_fields`.

    `__init__` takes the fields in order, and a subclass whose fields must
    be checked checks them in its own `__init__` first.  Fields are set once,
    through `object.__setattr__`; assigning or deleting an attribute
    afterwards raises AttributeError.  Values of one class are equal when
    their fields are, values of different classes never are, and a value
    hashes and prints by its fields, as `Name(field=value, ...)`.  A class
    whose values key caches overrides `__hash__` to return a hash computed
    once.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({body})"
