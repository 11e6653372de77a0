"""Typical-rank classification of real m x n x p tensor spaces.

The covered regimes reduce the answer to integer combinatorics: the matrix
and two-slice cases, the unbalanced regime p > (m-1)n, the pencil window
(m-1)(n-1)+2 <= p <= (m-1)n where plurality is equivalent to m#n <= mn-p,
the corner p = (m-1)(n-1)+1 decided by bit-overlap of m-1 and n-1, and the
downward propagation below the corner when m#n = m+n-1.  When the bound
table pins m#n only to an interval straddling a branch point, the result is
conditional on m#n; uncovered shapes get an honest floor and no claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hopf import HashBoundsTable, bit_disjoint, build_bounds_table

__all__ = ["TrankResult", "classify"]


@dataclass(frozen=True)
class TrankResult:
    """Outcome of the classification.

    kind == "exact": ``ranks`` is the full set of typical ranks.
    kind == "conditional": ``ranks_if_true``/``ranks_if_false`` apply
    according to ``condition`` (a predicate on m#n the bound table could
    not settle).
    kind == "interval": only ``floor`` (minimal typical rank, = generic
    rank when known) and possibly ``cap`` are certified.
    """

    kind: str
    provenance: str
    ranks: tuple[int, ...] | None = None
    condition: str | None = None
    ranks_if_true: tuple[int, ...] | None = None
    ranks_if_false: tuple[int, ...] | None = None
    floor: int | None = None
    cap: int | None = None
    hash_bounds: tuple[int, int] | None = None

    def describe(self) -> str:
        if self.kind == "exact":
            body = "{" + ", ".join(str(r) for r in self.ranks) + "}"
        elif self.kind == "conditional":
            t = "{" + ", ".join(str(r) for r in self.ranks_if_true) + "}"
            f = "{" + ", ".join(str(r) for r in self.ranks_if_false) + "}"
            body = f"{t} if {self.condition}, else {f}"
        else:
            body = f"minimal typical rank {self.floor}"
            if self.cap is not None:
                body += f", all typical ranks <= {self.cap}"
            body += "; exact set undetermined"
        return f"{body} ({self.provenance})"


_TABLE_CACHE: dict[int, HashBoundsTable] = {}


def _table_for(n: int) -> HashBoundsTable:
    """The cached bound table over dimensions up to 2n - 1.

    A smaller table can miss entries the closure needs at (m, n), and a
    larger one gives the same interval for m#n with m <= n.  Every
    upper bound at (m, n) is at most m+n-1 <= 2n-1, and an upper bound v
    comes only from entries whose dimensions are at most v: restriction
    copies v from an entry whose upper bound is at least its larger
    dimension, convolution builds v from smaller entries, and the constant
    rules depend on no entry.  Lower bounds at (m, n) flow only from
    entries <= (m, n)."""
    size = 2 * n - 1
    if size not in _TABLE_CACHE:
        _TABLE_CACHE[size] = build_bounds_table(size)
    return _TABLE_CACHE[size]


def _window_result(m: int, n: int, p: int, table: HashBoundsTable,
                   provenance: str) -> TrankResult:
    # plurality in the pencil window is equivalent to m#n <= u = mn - p
    u = m * n - p
    lo, hi = table.interval(m, n)
    if hi <= u:
        return TrankResult(kind="exact", ranks=(p, p + 1),
                           provenance=provenance + ": plural, m#n <= mn-p",
                           hash_bounds=(lo, hi))
    if lo > u:
        return TrankResult(kind="exact", ranks=(p,),
                           provenance=provenance + ": unique, m#n > mn-p",
                           hash_bounds=(lo, hi))
    return TrankResult(
        kind="conditional",
        condition=f"m#n <= {u} (table pins m#n only to [{lo}, {hi}])",
        ranks_if_true=(p, p + 1), ranks_if_false=(p,),
        provenance=provenance + ": branch point inside the m#n interval",
        hash_bounds=(lo, hi))


def classify(m: int, n: int, p: int) -> TrankResult:
    """Set of typical ranks of real m x n x p tensors.

    Arguments are sorted internally (typical ranks are invariant under
    permuting the three dimensions).  The m#n table is built over
    dimensions up to 2n - 1 for the middle dimension n and cached.  That
    is exact, not a shortcut: every bound the closure can put on m#n is at
    most m+n-1 <= 2n-1 and derives only from entries no larger than
    itself, so a table built to p > 2n-1 pins m#n to the same interval.
    """
    if m < 1 or n < 1 or p < 1:
        raise ValueError("dimensions must be positive")
    m, n, p = sorted((m, n, p))

    if m == 1:
        return TrankResult(kind="exact", ranks=(n,),
                           provenance="matrix typical rank min(n, p)")
    if m == 2:
        if n == p:
            return TrankResult(kind="exact", ranks=(n, n + 1),
                               provenance="two-slice square case")
        return TrankResult(kind="exact", ranks=(min(p, 2 * n),),
                           provenance="two-slice case min(p, 2n)")

    if p > (m - 1) * n:
        return TrankResult(kind="exact", ranks=(min(p, m * n),),
                           provenance="unbalanced regime min(p, mn)")
    table = _table_for(n)
    corner = (m - 1) * (n - 1) + 1
    if p == (m - 1) * n:
        return _window_result(m, n, p, table,
                              "boundary p = (m-1)n (plural iff m#n <= n)")
    if p >= corner + 1:
        return _window_result(m, n, p, table, "pencil window")
    if p == corner:
        lo, hi = table.interval(m, n)
        if not bit_disjoint(m - 1, n - 1):
            return TrankResult(
                kind="exact", ranks=(p, p + 1),
                provenance="corner p = (m-1)(n-1)+1: plural by bit-overlap, "
                           "capped at p+1",
                hash_bounds=(lo, hi))
        return TrankResult(
            kind="interval", floor=p, cap=p + 1,
            provenance="corner with m-1, n-1 bit-disjoint: plurality "
                       "undetermined",
            hash_bounds=(lo, hi))

    # p <= (m-1)(n-1): downward propagation from a unique corner
    k = (m - 1) * (n - 1) - p
    if bit_disjoint(m - 1, n - 1) and k * (m + n - 1) < (m - 1) * (n - 1):
        return TrankResult(
            kind="exact", ranks=(corner,),
            provenance="below-corner propagation (m#n = m+n-1)",
            hash_bounds=table.interval(m, n))
    floor = max(p, math.ceil(m * n * p / (m + n + p - 2)))
    return TrankResult(
        kind="interval", floor=floor,
        provenance="uncovered regime: dimension-count floor only")
