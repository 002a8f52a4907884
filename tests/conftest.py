"""Shared test data."""

from dominolattice.typea import BoxSpec

# every box with k(N-k) <= 12: the boxes Tier-1 checks exhaustively
DESK_SPECS = tuple(BoxSpec(k, N) for k in range(1, 13)
                   for N in range(k + 1, 15) if k * (N - k) <= 12)
# the desk boxes whose chain products L_tilde and L_tab stay small
PRODUCT_SPECS = tuple(s for s in DESK_SPECS if (s.cols + 1) ** s.k <= 130)
