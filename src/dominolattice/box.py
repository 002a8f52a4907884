"""The k x (N-k) box, its renumbering pi and the tables of the one move rule.

This is all that a solve needs: the shape check, pi, both move tables and
the one reader of a Domino shape.  It imports nothing of the package but
the records, so a solve compiles neither the coordinate systems nor the
lattice builders.

There is one move rule.  Q is the int mask of an L tableau, bit t per
entry t: the shape's own on L, its preimage's on D (`_shape_masks`).
The color-l up move swaps the entry l+1 of Q for l, so it is legal at the
set bits l >= 1 of (Q >> 1) & ~Q, and it flips the color's two tableau
bits, l and l+1 on L, pi(l) and pi(l+1) on D: the move tables
`_l_move_table` and `_move_table` hold them, as the mask
ends[l] << lows[l] of two small ints, and the Q renumbering.
The partition rules and the diagonal rule are the independent definitions.
"""

from functools import lru_cache

from .records import Record, _set_field, is_int


class BoxSpec(Record):
    """Game box parameters: k rows, N-k columns, colors drawn from [N-1]."""

    __slots__ = ("k", "N")

    def __init__(self, k, N):
        if not (is_int(k) and is_int(N)):
            raise ValueError("k and N must be integers")
        if not 1 <= k <= N - 1:
            raise ValueError(f"need 1 <= k <= N-1, got k={k}, N={N}")
        _set_field(self, "k", k)
        _set_field(self, "N", N)

    @property
    def cols(self):
        return self.N - self.k

    @property
    def colors(self):
        return range(1, self.N)


def validate_partition(spec, parts):
    parts = tuple(parts)
    k = spec.k
    if len(parts) != k:
        raise ValueError(f"expected {k} parts, got {len(parts)}")
    prev = cols = spec.N - k
    for i, p in enumerate(parts):
        if type(p) is not int and not is_int(p):   # exact ints skip the call
            raise ValueError(f"part {i + 1} is not an integer")
        if p < 0 or p > cols:
            raise ValueError(f"part {i + 1} out of range [0, {cols}]: {p}")
        if p > prev:
            raise ValueError(f"parts must be weakly decreasing at position {i + 1}")
        prev = p
    return parts


class BoxPermutation(Record):
    """Permutation of [N] sending L-scheme cell numbers to D-scheme ones."""

    __slots__ = ("mapping",)

    def __init__(self, mapping):
        mapping = tuple(mapping)
        if not (all(map(is_int, mapping))
                and sorted(mapping) == list(range(1, len(mapping) + 1))):
            raise ValueError("not a permutation of [N]")
        _set_field(self, "mapping", mapping)

    def __call__(self, i):
        """The image of position i, an int (bool excluded) in [1, N]."""
        n = len(self.mapping)
        if not (is_int(i) and 1 <= i <= n):
            raise ValueError(f"position {i!r} outside [1, {n}]")
        return self.mapping[i - 1]

    def inverse(self):
        inv = [0] * len(self.mapping)
        for i, p in enumerate(self.mapping, start=1):
            inv[p - 1] = i
        return BoxPermutation(tuple(inv))


def pi(N):
    """The box renumbering permutation, one formula shifted by N % 2."""
    if not (is_int(N) and N >= 2):
        raise ValueError(f"need an integer N >= 2, got {N!r}")
    return _pi_pair(N)[0]


@lru_cache(maxsize=None)
def _pi_pair(N):
    """pi(N) and its inverse, built and validated once per valid N."""
    p = N % 2
    perm = BoxPermutation(tuple(
        [2 * i - 1 + p for i in range(1, N // 2 + 1)]
        + [2 * N - 2 * j + 2 - p for j in range(N // 2 + 1, N + 1)]))
    return perm, perm.inverse()


# -- the move tables ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _l_move_table(N):
    """The L move table: color l flips entries l and l+1, Q is the tableau, e_l its diagonal."""
    return (range(N), (0,) + (3,) * (N - 1), range(N + 1),
            tuple(((l - 1, 1),) for l in range(1, N)))


@lru_cache(maxsize=None)
def _move_pairs(N):
    """{l: (pi(l), pi(l+1))} for every color, built once per valid N."""
    p = _pi_pair(N)[0].mapping
    return {l: (p[l - 1], p[l]) for l in range(1, N)}


@lru_cache(maxsize=None)
def _move_table(N):
    """The Domino move table of `typea._up_edges`, built once per valid N.

    Color l flips the tableau bits pi(l) and pi(l+1), ends[l] << lows[l]
    of O(N) small ints (ends 3 or 5), renumber[t] = pi^-1(t) is D entry t's
    bit of Q, and column l of the move matrix lists the nonzero (i, a) of
    the diagonal move: low colors remove a domino, the middle one the red
    corner, high colors add one.
    """
    p, mid = N % 2, N // 2
    columns = [((N - 2 * l - 1 - p, -1), (N - 2 * l - p, -1)) for l in range(1, mid)]
    columns.append(((0, -1),))
    columns += [((2 * l - N - 2 + p, 1), (2 * l - N - 1 + p, 1)) for l in range(mid + 1, N)]
    lows, ends = zip((0, 0), *((min(x, y), 1 | 1 << abs(x - y))
                               for x, y in _move_pairs(N).values()))
    return lows, ends, (0,) + _pi_pair(N)[1].mapping, tuple(columns)


def _shape_masks(spec, shape):
    """A checked shape's D-tableau mask (`domino.gamma_pt`) and its preimage's L tableau's, Q."""
    k, renumber = spec.k, _move_table(spec.N)[2]
    mask = q = 0
    for j, s in enumerate(shape):
        t = s + k - j
        mask |= 1 << t
        q |= 1 << renumber[t]
    return mask, q
