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
        dirs = [d for _, d in self.steps]
        return DOWN not in dirs or UP not in dirs[dirs.index(DOWN):]

    @property
    def is_valley(self):
        dirs = [d for _, d in self.steps]
        return UP not in dirs or DOWN not in dirs[dirs.index(UP):]

    @property
    def apex(self):
        if not self.is_mountain:
            raise LatticeError("not a mountain path")
        k = sum(1 for _, d in self.steps if d == UP)
        return self.vertices[k]

    @property
    def nadir(self):
        if not self.is_valley:
            raise LatticeError("not a valley path")
        k = sum(1 for _, d in self.steps if d == DOWN)
        return self.vertices[k]

    def validate(self, L):
        if len(self.vertices) != len(self.steps) + 1:
            raise LatticeError("vertex/step count mismatch")
        for (a, b), (color, direction) in zip(
                zip(self.vertices, self.vertices[1:]), self.steps):
            if direction not in (UP, DOWN):
                raise LatticeError(
                    f"step {a!r} -> {b!r} has direction {direction!r}, "
                    f"not {UP!r} or {DOWN!r}")
            x, y = (a, b) if direction == UP else (b, a)
            if not L.has_edge(x, y) or L.edge_color(x, y) != color:
                raise LatticeError(
                    f"step {a!r} -> {b!r} ({direction}, color {color}) is not an edge")
        return self
