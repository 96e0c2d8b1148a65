"""Bases of the package's plain records.

A record is a class with an explicit `__init__` that names its fields, in
order, in `__match_args__`, and in `__slots__` too unless its instances
take other attributes.  These bases add equality and a repr over those
fields, and for `FrozenRecord` immutability and a hash.  They keep the
standard library's generated record classes out of the package: that
module loads `inspect`, `ast`, `dis` and `tokenize`, the largest share of
matchdiff's import time.
"""


class Record:
    """Equal to a record of the same class whose fields are equal;
    unhashable, since its fields can be reassigned."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self.__match_args__)
        return f"{type(self).__name__}({body})"


class FrozenRecord(Record):
    """A `Record` whose `__init__` takes its fields in order and sets
    each once through `object.__setattr__`; any later assignment raises
    AttributeError.  Copies and pickles go through `__init__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen")

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()
