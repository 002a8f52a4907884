"""Immutable records and walks, the value types every layer shares.

They live apart from `lattice` so that a solve, which builds no lattice,
loads none of it; `lattice` binds `LatticeError`, `PathRecord`, `UP`,
`DOWN` and `is_int` too, and stays their public home.
"""


class LatticeError(ValueError):
    pass


def is_int(value):
    """True for an int that is not a bool (bool subclasses int)."""
    return type(value) is int or (isinstance(value, int) and not isinstance(value, bool))


_set_field = object.__setattr__


class Record:
    """Immutable record whose fields are its `__slots__`.

    A subclass names its fields in `__slots__` and sets each once, in its
    own `__init__`, with `_set_field`; any later assignment or deletion
    raises AttributeError.  Equality holds only between records of the
    same class with equal fields; hash and repr are read off the fields,
    and a record pickles and copies by calling its class on them.
    """

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == tuple(getattr(other, name) for name in self.__slots__)

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


UP = "up"
DOWN = "down"


class PathRecord(Record):
    """A walk in a cover graph: vertex sequence plus (color, direction) steps."""

    __slots__ = ("vertices", "steps")

    def __init__(self, vertices, steps):
        _set_field(self, "vertices", vertices)
        _set_field(self, "steps", steps)

    def __len__(self):
        return len(self.steps)

    @property
    def is_simple(self):
        return len(set(self.vertices)) == len(self.vertices)

    @property
    def is_mountain(self):
        return self._turns_once(UP, DOWN)

    @property
    def is_valley(self):
        return self._turns_once(DOWN, UP)

    @property
    def apex(self):
        return self._turning_vertex(UP, DOWN, "mountain")

    @property
    def nadir(self):
        return self._turning_vertex(DOWN, UP, "valley")

    def _turns_once(self, first, then):
        """True when no `first` step follows a `then` step."""
        dirs = [d for _, d in self.steps]
        return then not in dirs or first not in dirs[dirs.index(then):]

    def _turning_vertex(self, first, then, shape):
        """The vertex after the last `first` step of a walk that turns at most once."""
        if not self._turns_once(first, then):
            raise LatticeError(f"not a {shape} path")
        return self.vertices[sum(1 for _, d in self.steps if d == first)]

    def validate(self, L):
        if len(self.vertices) != len(self.steps) + 1:
            raise LatticeError("vertex/step count mismatch")
        L.index(self.vertices[0])   # names an unknown start; each later vertex ends an edge
        for (a, b), (color, direction) in zip(
                zip(self.vertices, self.vertices[1:]), self.steps):
            if direction not in (UP, DOWN):
                raise LatticeError(
                    f"step {a!r} -> {b!r} has direction {direction!r}, "
                    f"not {UP!r} or {DOWN!r}")
            x, y = (a, b) if direction == UP else (b, a)
            try:
                ok = L.edge_color(x, y) == color
            except LatticeError:
                ok = False
            if not ok:
                raise LatticeError(
                    f"step {a!r} -> {b!r} ({direction}, color {color}) is not an edge")
        return self
