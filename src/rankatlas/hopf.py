"""Dyadic combinatorics behind the minimal-dimension function for nonsingular
bilinear maps.

``m # n`` denotes the least r admitting a nonsingular bilinear map
R^m x R^n -> R^r.  Exact values are rare; this module maintains certified
integer intervals ``lower <= m#n <= upper`` by seeding classical facts
(Stiefel-Hopf parity criterion, Hurwitz-Radon/Adams, the Cohen, Milgram and
tau-corrected constructions, bit-overlap) and closing them under
convolution, restriction and symmetry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache


class BoundsContradictionError(RuntimeError):
    """A rule produced lower > upper; indicates a bad rule or input."""


def _popcount(n: int) -> int:
    return bin(n).count("1")


def alpha(n: int) -> int:
    """Number of ones in the dyadic expansion of n (n >= 1)."""
    if n < 1:
        raise ValueError(f"alpha requires n >= 1, got {n}")
    return _popcount(n)


def bit_disjoint(a: int, b: int) -> bool:
    """True iff a and b share no common 1-bits."""
    if a < 0 or b < 0:
        raise ValueError("bit_disjoint requires nonnegative integers")
    return a & b == 0


def tau(k: int, h: int) -> int:
    """Count positions j with bit j of (k-h) zero and bits j of k and h unequal.

    Requires k > h >= 0.  tau(k, h) == 0 exactly when h and k-h are bit-disjoint.
    """
    if not k > h >= 0:
        raise ValueError(f"tau requires k > h >= 0, got k={k}, h={h}")
    d = k - h
    count = 0
    for j in range(max(k.bit_length(), h.bit_length()) + 1):
        if (d >> j) & 1 == 0 and ((k >> j) & 1) != ((h >> j) & 1):
            count += 1
    return count


def rho(n: int) -> int:
    """Hurwitz-Radon function: with n = (2a+1) * 2^(b+4c), 0 <= b < 4,
    returns 2^b + 8c."""
    if n < 1:
        raise ValueError(f"rho requires n >= 1, got {n}")
    e = (n & -n).bit_length() - 1  # 2-adic valuation
    b, c = e % 4, e // 4
    return 2**b + 8 * c


def stiefel_hopf(r: int, s: int, n: int) -> bool:
    """Parity criterion H(r, s, n): C(n, k) is even for every n-s < k < r.

    Parity is exact via Lucas: C(n, k) is odd iff k is a bit-submask of n.
    k outside [0, n] contributes an even (zero) coefficient.
    """
    if r < 1 or s < 1 or n < 1:
        raise ValueError("stiefel_hopf requires positive integers")
    for k in range(max(0, n - s + 1), min(r - 1, n) + 1):
        if k & n == k:  # C(n, k) odd
            return False
    return True


@lru_cache(maxsize=None)
def circ(r: int, s: int) -> int:
    """Least n >= max(r, s) for which the Stiefel-Hopf criterion H(r, s, n)
    holds, by upward search; it ends by n = r+s-1, where the range of k in
    H is empty.  The tests check it against the ceiling-halving
    recursion."""
    if r < 1 or s < 1:
        raise ValueError("circ requires positive integers")
    n = max(r, s)
    while not stiefel_hopf(r, s, n):
        n += 1
    return n


# -- bound table ------------------------------------------------------------

# Milgram residue function: k(8a+1)=0, k(8a+3)=k(8a+5)=1, k(8a+7)=4.
_MILGRAM_K = {1: 0, 3: 1, 5: 1, 7: 4}

# Rules quoted from survey sources whose side hypotheses are not reproduced;
# an instance contradicting a proven opposite bound is out of hypothesis and
# gets skipped (recorded), not fatal.
_SURVEY_RULES = ("davis", "davis-mahowald", "davis-2011", "milgram")


@dataclass(slots=True)
class BoundEntry:
    lower: int
    upper: int
    lower_rule: str
    upper_rule: str


@dataclass
class HashBoundsTable:
    """Certified intervals for m#n over 1 <= m, n <= max_dim.

    Entries are stored once per unordered pair; lookups are symmetric.
    ``skipped`` records survey-rule instances rejected by the contradiction
    guard.  ``to_json`` writes the table (``rankatlas bounds --json``); no
    reader exists, so ``_check_chain`` runs once, as the last step of
    ``build_bounds_table``.
    """

    max_dim: int
    entries: dict[tuple[int, int], BoundEntry] = field(default_factory=dict)
    skipped: list[str] = field(default_factory=list)

    def entry(self, m: int, n: int) -> BoundEntry:
        return self.entries[(m, n) if m <= n else (n, m)]

    def lower(self, m: int, n: int) -> int:
        return self.entry(m, n).lower

    def upper(self, m: int, n: int) -> int:
        return self.entry(m, n).upper

    def interval(self, m: int, n: int) -> tuple[int, int]:
        e = self.entry(m, n)
        return e.lower, e.upper

    def exact(self, m: int, n: int) -> int | None:
        """The pinned value of m#n, or None if the interval is not a point."""
        lo, hi = self.interval(m, n)
        return lo if lo == hi else None

    def json_chunks(self):
        """The text of ``json.dumps(payload, indent=1)``, one entry at a
        time: an indent sends json to its pure-Python encoder, whose chunks
        hold about twelve times the output."""
        yield f'{{\n "max_dim": {self.max_dim},\n "entries": '
        sep = "["
        for m, n in sorted(self.entries):
            e = self.entries[m, n]
            yield (f'{sep}\n  {{\n   "m": {m},\n   "n": {n},\n'
                   f'   "lower": {e.lower},\n   "upper": {e.upper},\n'
                   f'   "lower_rule": {json.dumps(e.lower_rule)},\n'
                   f'   "upper_rule": {json.dumps(e.upper_rule)}\n  }}')
            sep = ","
        yield "[]\n}" if sep == "[" else "\n ]\n}"

    def to_json(self) -> str:
        return "".join(self.json_chunks())

    def _check_chain(self) -> None:
        """BoundsContradictionError unless every entry satisfies
        max(m, n) <= lower <= upper <= m+n-1."""
        for (m, n), e in self.entries.items():
            if not max(m, n) <= e.lower <= e.upper <= m + n - 1:
                raise BoundsContradictionError(
                    f"entry ({m},{n}) violates the bound chain: {e}")

    def _improve(self, m: int, n: int, value: int, rule: str,
                 side: str) -> bool:
        """Tighten the ``side`` bound ("lower" or "upper") of m#n to
        ``value`` by ``rule``; True when the interval changed.  A value past
        the other bound is recorded in ``skipped`` for a survey rule and
        raises BoundsContradictionError for any other."""
        e = self.entry(m, n)
        if value >= e.upper if side == "upper" else value <= e.lower:
            return False
        lower = side == "lower"
        other, rel = ("upper", ">") if lower else ("lower", "<")
        bound, bound_rule = getattr(e, other), getattr(e, other + "_rule")
        if value > bound if lower else value < bound:
            if rule in _SURVEY_RULES:
                self.skipped.append(
                    f"{rule}: {side}({m},{n}){rel}={value} rejected, "
                    f"{other} is {bound} [{bound_rule}]")
                return False
            raise BoundsContradictionError(
                f"rule {rule} wants {side}({m},{n}) = {value} {rel} {other} "
                f"{bound} [{bound_rule}]")
        setattr(e, side, value)
        setattr(e, side + "_rule", rule)
        return True


def build_bounds_table(max_dim: int) -> HashBoundsTable:
    """Close all known bound rules for m#n to a fixed point over the square
    1 <= m, n <= max_dim.

    Seeds: the Stiefel-Hopf lower bound circ(m, n), the trivial upper bound
    m+n-1, Hurwitz-Radon upper bounds m # rho(m) <= m, the Adams lower bound
    m # (rho(m)+1) > m and the bit-overlap defect m # n <= m+n-2 when m-1
    and n-1 share a 1-bit.  The rules with constant values (Cohen, Milgram
    and the tau-corrected construction family) are applied once; the
    closure then repeats a convolution round and a restriction round until
    no interval changes.  Survey-sourced diagonal lower bounds come last,
    under a contradiction guard, with one more restriction round.  That
    round pulls each upper from its two larger neighbours in reverse (m, n)
    order, then pushes each lower to them in (m, n) order, so each read is
    final and one round settles restriction.  The rules are monotone, so
    any order gives the same intervals; a rule name records which rule
    reached its bound first.

    Four classical rules are implied, so they have no code.  H(m, n, N)
    says (x+y)^N = 0 in F2[x, y]/(x^m, y^n): it holds exactly for
    N >= circ(m, n), and fails when some C(N, k), N-n < k < m, is odd.
    Bit-disjoint m-1, n-1 (m # n = m+n-1): C(m+n-2, m-1) is odd by Lucas,
    so circ(m, n) = m+n-1.  Levine at n = 2^a+1 (n # n >= 2n-2): every
    C(2^(a+1)-1, k) is odd and C(2^(a+1), 2^a) is even, so circ(n, n) =
    2^(a+1) = 2n-2.  (n+1) # (n + tau(2n, n)) <= 2n is the tau family at
    d = 1, h = n, k = 2n.  Scaled hypercomplex, ka # kb <= k(a+b-1) for
    k = 2, 4, 8: the first convolution round on Hurwitz-Radon's k # k <= k.
    """
    if max_dim < 2:
        raise ValueError("build_bounds_table requires max_dim >= 2")
    D = max_dim
    table = HashBoundsTable(max_dim=D)

    for m in range(1, D + 1):
        for n in range(m, D + 1):
            table.entries[(m, n)] = BoundEntry(
                lower=circ(m, n), upper=m + n - 1,
                lower_rule="stiefel-hopf", upper_rule="trivial",
            )

    # static seeds
    for n in range(1, D + 1):
        r = rho(n)
        if r <= D:
            table._improve(n, r, n, "hurwitz-radon", "upper")
        if r + 1 <= D:
            table._improve(n, r + 1, n + 1, "adams", "lower")
    for m in range(2, D + 1):
        for n in range(m, D + 1):
            if not bit_disjoint(m - 1, n - 1):
                table._improve(m, n, m + n - 2, "bit-overlap", "upper")

    # constant rules, applied once: bounds only tighten, so applying one
    # again could only repeat a rejection
    # Cohen: (n+1)#(n+1) <= 2n - alpha(n) + 1
    for n in range(1, D):
        table._improve(n + 1, n + 1, 2 * n - alpha(n) + 1, "cohen", "upper")
    # Milgram: odd m <= n, both odd
    for mm in range(1, D, 2):
        for nn in range(mm, D, 2):
            kmin = min(_MILGRAM_K[mm % 8], _MILGRAM_K[nn % 8])
            bound = nn + mm + 1 - (alpha(nn) + _popcount(nn - mm) + kmin)
            table._improve(nn + 1, mm + 1, bound, "milgram", "upper")
    # tau-corrected family: d(h+1) # (d(k-h) + tau(k,h)) <= dk
    for d in (1, 2, 4, 8):
        for h in range(0, D // d):
            for k in range(h + 1, (2 * D) // d + 1):
                first = d * (h + 1)
                second = d * (k - h) + tau(k, h)
                if first <= D and second <= D:
                    table._improve(first, second, d * k, "lam", "upper")

    def run_dynamic_round() -> bool:
        changed = False
        # convolution composite: (m*w1) # (n*w2) <= (m+n-1) * upper(w1, w2);
        # at w1 = 1 it is (m+n-1) * w2, never below the trivial m + n*w2 - 1
        for w1 in range(2, D + 1):
            for w2 in range(w1, D + 1):
                u = table.upper(w1, w2)
                for mm in range(1, D // w1 + 1):
                    for nn in range(1, D // w2 + 1):
                        if mm == nn == 1:
                            continue
                        changed |= table._improve(
                            mm * w1, nn * w2, (mm + nn - 1) * u,
                            "convolution", "upper")
        changed |= run_monotone_round()
        return changed

    def run_monotone_round() -> bool:
        # restriction: m' <= m, n' <= n implies m'#n' <= m#n
        changed = False
        for m, n in reversed(table.entries):
            for m2, n2 in ((m + 1, n), (m, n + 1)):
                if max(m2, n2) <= D:
                    changed |= table._improve(
                        m, n, table.upper(m2, n2), "restriction", "upper")
        for m, n in table.entries:
            for m2, n2 in ((m + 1, n), (m, n + 1)):
                if max(m2, n2) <= D:
                    changed |= table._improve(
                        m2, n2, table.lower(m, n), "restriction", "lower")
        return changed

    while run_dynamic_round():
        pass

    # survey diagonal lower bounds, guarded against settled uppers
    for n in range(1, D + 1):
        a_n = alpha(n)
        if 2 * n + a_n <= D:
            table._improve(2 * n + a_n, 2 * n + a_n, 4 * n - 2 * a_n + 2,
                           "davis", "lower")
        if a_n == 2:
            if 8 * n + 9 <= D:
                table._improve(8 * n + 9, 8 * n + 9, 16 * n + 6,
                               "davis-mahowald", "lower")
            if 16 * n + 12 <= D:
                table._improve(16 * n + 12, 16 * n + 12, 32 * n + 14,
                               "davis-mahowald", "lower")
        if a_n == 3:
            if 8 * n + 10 <= D:
                table._improve(8 * n + 10, 8 * n + 10, 16 * n + 1,
                               "davis-2011", "lower")
            if 8 * n + 11 <= D:
                table._improve(8 * n + 11, 8 * n + 11, 16 * n + 4,
                               "davis-2011", "lower")
    run_monotone_round()

    table._check_chain()
    return table
