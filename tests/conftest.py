"""Shared test data and helpers."""

import sys
from collections import Counter

from dominolattice.lattice import iso_failure
from dominolattice.oracle import check_constructed_iso
from dominolattice.typea import BoxSpec
from dominolattice.verify import _small_product

# every box with k(N-k) <= 12: the boxes Tier-1 checks exhaustively
DESK_SPECS = tuple(BoxSpec(k, N) for k in range(1, 13)
                   for N in range(k + 1, 15) if k * (N - k) <= 12)
# the desk boxes whose chain product L_tilde, with (cols+1)^k vertices, stays
# small; L_tab, built by tableau hops, is checked at every box
PRODUCT_SPECS = tuple(s for s in DESK_SPECS if _small_product(s))


def count_calls(functions, run, by_class=False):
    """run(), and the number of calls it makes to each of functions, by qualified name.

    With by_class, the functions are methods, and a call is counted under
    the class of its `self` instead, as "Class.method".
    """
    watched = {f.__code__: f.__qualname__ for f in functions}
    calls = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            name = watched[frame.f_code]
            if by_class:
                name = f"{type(frame.f_locals['self']).__name__}.{frame.f_code.co_name}"
            calls[name] += 1

    sys.setprofile(count)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls


def iso_verdict(G, H, f):
    """check_constructed_iso(G, H, f), after checking that iso_failure agrees with it."""
    failure = iso_failure(G, H, f)
    verdict = check_constructed_iso(G, H, f)
    assert (failure is None) == verdict, failure
    return verdict
