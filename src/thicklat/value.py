"""The base of the immutable value classes: plain slotted classes, since
importing dataclasses loads inspect, a fifth of a cold CLI start."""
from operator import attrgetter


class Value:
    """Immutable; equal within one class, and hashed, by all its fields.
    A subclass lists its fields in __slots__, in constructor order, and
    sets them in __init__ with object.__setattr__."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._compare = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self._compare(self) == self._compare(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._compare(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, as setattr raises
        return self.__class__, tuple(getattr(self, n) for n in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"
