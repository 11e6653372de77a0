import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests_helpers import peak_alloc_mb

from rankatlas.hopf import (
    BoundEntry,
    BoundsContradictionError,
    HashBoundsTable,
    alpha,
    bit_disjoint,
    build_bounds_table,
    circ,
    rho,
    stiefel_hopf,
    tau,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def brute_tau(k, h):
    # independent oracle: scan bits directly from the definition
    return sum(
        1
        for j in range(64)
        if (k - h) >> j & 1 == 0 and (k >> j & 1) != (h >> j & 1)
    )


def circ_recursion(r, s):
    # independent oracle: the ceiling-halving recursion for circ
    if r == 1 or s == 1:
        return max(r, s)
    rs, ss = (r + 1) // 2, (s + 1) // 2
    c = circ_recursion(rs, ss)
    if r % 2 == 1 and s % 2 == 1 and c == rs + ss - 1:
        return 2 * c - 1
    return 2 * c


def brute_stiefel_hopf(r, s, n):
    # independent oracle: exact binomials via math.comb
    return all(math.comb(n, k) % 2 == 0 for k in range(n - s + 1, r) if 0 <= k <= n)


class TestAlpha:
    def test_values(self):
        assert alpha(1) == 1
        assert alpha(5) == 2
        assert alpha(255) == 8

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            alpha(0)

    @pytest.mark.parametrize("k", range(1, 31))
    def test_powers_of_two(self, k):
        assert alpha(2**k) == 1
        assert alpha(2**k - 1) == k


class TestBitDisjoint:
    def test_values(self):
        assert bit_disjoint(2, 1)
        assert not bit_disjoint(2, 2)
        assert not bit_disjoint(3, 3)

    @given(st.integers(0, 2**20), st.integers(0, 2**20))
    def test_matches_bit_sets(self, a, b):
        sets_disjoint = not (
            {j for j in range(21) if a >> j & 1} & {j for j in range(21) if b >> j & 1}
        )
        assert bit_disjoint(a, b) == sets_disjoint


class TestTau:
    def test_frozen_values(self):
        # expected values computed with brute_tau
        assert brute_tau(4, 2) == 1
        assert tau(4, 2) == 1
        assert brute_tau(2, 1) == 1
        assert tau(2, 1) == 1
        assert brute_tau(3, 1) == 0
        assert tau(3, 1) == 0

    def test_domain(self):
        with pytest.raises(ValueError):
            tau(2, 2)
        with pytest.raises(ValueError):
            tau(1, 3)

    @given(st.integers(1, 3000), st.integers(0, 2999))
    def test_against_oracle_and_disjointness(self, k, h):
        if k <= h:
            k, h = h + 1, k if k <= h else h  # ensure k > h
        assert tau(k, h) == brute_tau(k, h)
        assert (tau(k, h) == 0) == bit_disjoint(h, k - h)


class TestRho:
    def test_values(self):
        assert [rho(n) for n in (1, 2, 4, 8, 16)] == [1, 2, 4, 8, 9]
        assert rho(2) == 2 and rho(4) == 4

    @given(st.integers(1, 10**6))
    def test_decomposition(self, n):
        # reconstruct (b, c) from the definition and compare
        e = 0
        q = n
        while q % 2 == 0:
            q //= 2
            e += 1
        b, c = e % 4, e // 4
        assert rho(n) == 2**b + 8 * c

    @given(st.integers(1, 512))
    def test_depends_only_on_two_part(self, n):
        e = (n & -n).bit_length() - 1
        assert rho(n) == rho(2**e)


class TestStiefelHopf:
    def test_values(self):
        assert stiefel_hopf(3, 3, 4)
        assert not stiefel_hopf(3, 3, 3)
        for n in range(1, 40):
            assert stiefel_hopf(1, 1, n)

    @given(st.integers(1, 24), st.integers(1, 24), st.integers(1, 48))
    def test_against_binomial_oracle(self, r, s, n):
        assert stiefel_hopf(r, s, n) == brute_stiefel_hopf(r, s, n)


class TestCirc:
    def test_values(self):
        assert circ(2, 2) == 2
        assert circ(3, 3) == 4
        for s in range(1, 30):
            assert circ(1, s) == s

    def test_search_equals_recursion_to_64(self):
        for r in range(1, 65):
            for s in range(1, 65):
                assert circ(r, s) == circ_recursion(r, s), (r, s)

    @settings(max_examples=60)
    @given(st.integers(1, 40), st.integers(1, 40))
    def test_is_minimum_of_true_set(self, r, s):
        # monotonicity in n is NOT assumed; only minimality is asserted
        c = circ(r, s)
        assert stiefel_hopf(r, s, c)
        assert not any(stiefel_hopf(r, s, n) for n in range(max(r, s), c))
        # H always holds at n = r+s-1 (vacuous range)
        assert stiefel_hopf(r, s, r + s - 1)

    @given(st.integers(1, 48), st.integers(1, 48))
    def test_chain(self, r, s):
        assert max(r, s) <= circ(r, s) <= r + s - 1

    @given(st.integers(1, 48), st.integers(1, 48))
    def test_symmetric(self, r, s):
        assert circ(r, s) == circ(s, r)


@pytest.fixture(scope="module")
def table16():
    return build_bounds_table(16)


class TestBoundsTable:
    def test_pinned_diagonal_values(self, table16):
        for n, val in [(2, 2), (3, 4), (4, 4), (5, 8), (9, 16)]:
            assert table16.interval(n, n) == (val, val), f"{n}#{n}"

    def test_three_five(self, table16):
        assert table16.interval(3, 5) == (7, 7)

    def test_symmetry(self, table16):
        for m in range(1, 17):
            for n in range(1, 17):
                assert table16.interval(m, n) == table16.interval(n, m)

    def test_chain_everywhere(self, table16):
        for m in range(1, 17):
            for n in range(m, 17):
                lo, hi = table16.interval(m, n)
                assert max(m, n) <= circ(m, n) <= lo <= hi <= m + n - 1

    def test_monotone_in_each_argument(self, table16):
        for m in range(1, 16):
            for n in range(1, 16):
                assert table16.lower(m, n) <= table16.lower(m + 1, n)
                assert table16.lower(m, n) <= table16.lower(m, n + 1)
                assert table16.upper(m, n) <= table16.upper(m + 1, n)
                assert table16.upper(m, n) <= table16.upper(m, n + 1)

    def test_one_row(self, table16):
        for n in range(1, 17):
            assert table16.interval(1, n) == (n, n)

    def test_bit_disjoint_equality(self, table16):
        for m in range(2, 17):
            for n in range(m, 17):
                if bit_disjoint(m - 1, n - 1):
                    assert table16.interval(m, n) == (m + n - 1, m + n - 1)
                else:
                    assert table16.upper(m, n) <= m + n - 2

    def test_hurwitz_radon_rows(self, table16):
        # n # rho(n) <= n and n # (rho(n)+1) >= n+1
        for n in range(1, 17):
            if rho(n) <= 16:
                assert table16.upper(n, rho(n)) <= n
            if rho(n) + 1 <= 16:
                assert table16.lower(n, rho(n) + 1) >= n + 1

    def test_rules_recorded(self, table16):
        e = table16.entry(3, 5)
        assert e.lower_rule and e.upper_rule

    def test_max_dim_validation(self):
        with pytest.raises(ValueError):
            build_bounds_table(1)

    def test_survey_guard_fires_at_octonions(self):
        # the guarded survey rule would otherwise contradict 8#8 = 8
        t = build_bounds_table(10)
        assert t.interval(8, 8) == (8, 8)
        assert any("davis" in s and "(8,8)" in s for s in t.skipped)


def test_rules_the_seeds_imply_hold_at_64():
    # Levine's diagonal bound, (n+1) # (n + tau(2n, n)) <= 2n and the scaled
    # hypercomplex ka # kb <= k(a+b-1) have no rule of their own; the
    # Stiefel-Hopf seed, the tau family and convolution give them
    table = build_bounds_table(64)
    for k in (2, 4, 8):
        for a in range(1, 64 // k + 1):
            for b in range(a, 64 // k + 1):
                assert table.upper(k * a, k * b) <= k * (a + b - 1)
    assert all("hopf-mult" not in (e.lower_rule, e.upper_rule)
               for e in table.entries.values())
    for a in range(1, 6):  # n = 3, 5, 9, 17, 33
        n = 2**a + 1
        assert table.lower(n, n) >= 2 ** (a + 1)
    for n in range(1, 64):
        second = n + tau(2 * n, n)
        if second <= 64:
            assert table.upper(n + 1, second) <= 2 * n


def test_skipped_rejections_are_distinct(table16):
    # each constant rule is applied once, so no rejection is recorded twice
    assert table16.skipped
    assert len(set(table16.skipped)) == len(table16.skipped)


@pytest.mark.parametrize("max_dim, values_sha, skipped_sha", [
    (16, "79ca733ea46258cfc5a2e76714d90926cb414d4dbb8593733b0a4d1f90744b99",
     "3bfe65988edbf22227e07c10bf43db127e8569335a175f10fa115beb661f1b25"),
    (64, "39e1f7127d0b6b7da3d1a1cc9690571948f157699262ae19d720ec8092128eaa",
     "c96421d7f08b266bf24da1fc55085f3530af9de17966226e715ef3eebf621303"),
], ids=["16", "64"])
def test_table_values_are_pinned(max_dim, values_sha, skipped_sha):
    # every interval and rejection message, apart from the rule names: a
    # change of closure order may relabel a bound, never move one
    table = build_bounds_table(max_dim)
    values = "\n".join(f"{m} {n} {e.lower} {e.upper}"
                       for (m, n), e in sorted(table.entries.items()))
    assert hashlib.sha256(values.encode()).hexdigest() == values_sha
    assert hashlib.sha256(
        "\n".join(table.skipped).encode()).hexdigest() == skipped_sha


@pytest.mark.parametrize("max_dim, text_sha, skipped_sha", [
    (16, "cc39ce1bd363c66150b7f71b5699ea83f45f03a1589055f97d406f674afb512b",
     "3bfe65988edbf22227e07c10bf43db127e8569335a175f10fa115beb661f1b25"),
    (64, "b7c5aee809ce9d44d2120e5f0bb9b4744d2718e80728a921b66f94e55066db12",
     "c96421d7f08b266bf24da1fc55085f3530af9de17966226e715ef3eebf621303"),
], ids=["16", "64"])
def test_table_bytes_are_pinned(max_dim, text_sha, skipped_sha):
    # what ``bounds --json`` writes, byte for byte.  Values and rejections
    # are pinned apart, above; the rule names change here only with every
    # relabel listed in CHANGES.md
    table = build_bounds_table(max_dim)
    assert hashlib.sha256(table.to_json().encode()).hexdigest() == text_sha
    assert hashlib.sha256(
        "\n".join(table.skipped).encode()).hexdigest() == skipped_sha


def test_improve_past_the_other_bound():
    # a survey rule is recorded and skipped, any other rule is fatal
    table = HashBoundsTable(max_dim=3, entries={
        (2, 3): BoundEntry(3, 4, "stiefel-hopf", "trivial")})
    assert not table._improve(3, 2, 3, "restriction", "lower")
    assert not table._improve(2, 3, 5, "davis", "lower")
    assert not table._improve(2, 3, 2, "milgram", "upper")
    assert table.skipped == [
        "davis: lower(2,3)>=5 rejected, upper is 4 [trivial]",
        "milgram: upper(2,3)<=2 rejected, lower is 3 [stiefel-hopf]"]
    with pytest.raises(BoundsContradictionError,
                       match=r"^rule adams wants lower\(2,3\) = 5 > upper 4 "
                             r"\[trivial\]$"):
        table._improve(2, 3, 5, "adams", "lower")
    with pytest.raises(BoundsContradictionError,
                       match=r"^rule cohen wants upper\(2,3\) = 2 < lower 3 "
                             r"\[stiefel-hopf\]$"):
        table._improve(2, 3, 2, "cohen", "upper")
    assert table._improve(3, 2, 4, "adams", "lower")
    assert table.entry(2, 3) == BoundEntry(4, 4, "adams", "trivial")


def test_exact_helper(table16):
    assert table16.exact(4, 4) == 4
    # somewhere in a 16-table an interval should remain open; exact() -> None
    opens = [
        (m, n)
        for m in range(1, 17)
        for n in range(m, 17)
        if table16.exact(m, n) is None
    ]
    for m, n in opens:
        lo, hi = table16.interval(m, n)
        assert lo < hi


def indent_one_json(table):
    # independent oracle: the standard encoder on the full payload
    return json.dumps({
        "max_dim": table.max_dim,
        "entries": [
            {"m": m, "n": n, "lower": e.lower, "upper": e.upper,
             "lower_rule": e.lower_rule, "upper_rule": e.upper_rule}
            for (m, n), e in sorted(table.entries.items())
        ],
    }, indent=1)


class TestTableJson:
    @pytest.mark.parametrize("max_dim", [2, 8, 16, 33, 64])
    def test_text_is_the_standard_encoding(self, max_dim):
        table = build_bounds_table(max_dim)
        text = table.to_json()
        assert text == indent_one_json(table)

    def test_empty_table(self):
        table = HashBoundsTable(max_dim=5)
        assert table.to_json() == indent_one_json(table)

    def test_broken_bound_chain_rejected(self):
        table = HashBoundsTable(max_dim=2, entries={
            (1, 1): BoundEntry(5, 2, "stiefel-hopf", "trivial")})
        with pytest.raises(BoundsContradictionError, match=r"\(1,1\)"):
            table._check_chain()

    def test_peak_memory_at_64(self):
        # the pure-Python indent encoder peaked at about 3 MB here
        table = build_bounds_table(64)
        assert peak_alloc_mb(table.to_json) < 1.5

    def test_dropped_table_leaves_little_behind(self):
        # in a fresh interpreter, so that no earlier test has filled the
        # caches: what stays allocated once the table is gone is circ's
        # cache, about 0.18 MB
        script = (
            "import gc, tracemalloc\n"
            "from rankatlas.hopf import build_bounds_table\n"
            "tracemalloc.start()\n"
            "table = build_bounds_table(64)\n"
            "del table\n"
            "gc.collect()\n"
            "print(tracemalloc.get_traced_memory()[0] / 2**20)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 0.25
