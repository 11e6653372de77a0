import importlib
import itertools

import numpy as np
import pytest

from rankatlas.classify import classify
from rankatlas.hopf import bit_disjoint, build_bounds_table


class TestKnownValues:
    def test_three_cube_family(self):
        assert classify(3, 3, 7).ranks == (7,)
        assert classify(3, 3, 6).ranks == (6,)
        assert classify(3, 3, 5).ranks == (5, 6)

    def test_four_cube_plural_window(self):
        for p in (10, 11, 12):
            result = classify(4, 4, p)
            assert result.kind == "exact"
            assert result.ranks == (p, p + 1), p

    def test_four_cube_unique_above(self):
        assert classify(4, 4, 13).ranks == (13,)
        assert classify(4, 4, 17).ranks == (16,)

    def test_two_slice(self):
        for n in (2, 3, 5, 9):
            assert classify(2, n, n).ranks == (n, n + 1)
        assert classify(2, 3, 4).ranks == (min(4, 6),)
        assert classify(2, 3, 9).ranks == (6,)
        assert classify(2, 5, 7).ranks == (7,)

    def test_matrix_case(self):
        assert classify(1, 4, 7).ranks == (4,)
        assert classify(7, 1, 4).ranks == (4,)

    def test_boundary_p_equals_m_minus_1_n(self):
        # p = (m-1)n: plural iff m#n <= n; 3#3 = 4 > 3, 4#4 = 4 <= 4
        assert classify(3, 3, 6).ranks == (6,)
        assert classify(4, 4, 12).ranks == (12, 13)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            classify(0, 3, 3)


class TestStructure:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            dims = tuple(int(d) for d in rng.integers(1, 11, size=3))
            results = {classify(*perm).describe()
                       for perm in itertools.permutations(dims)}
            assert len(results) == 1, dims

    def test_exact_sets_are_short_intervals(self):
        for m in range(3, 6):
            for n in range(m, 7):
                corner = (m - 1) * (n - 1) + 1
                for p in range(corner, (m - 1) * n + 1):
                    r = classify(m, n, p)
                    if r.kind == "exact":
                        assert r.ranks in ((p,), (p, p + 1))
                        assert max(r.ranks) <= p + 1

    def test_conditional_collapses_when_table_pins(self):
        # all (m, n) up to 8 are pinned, so no conditional can appear
        table = build_bounds_table(8)
        for m in range(3, 9):
            for n in range(m, 9):
                if table.exact(m, n) is None:
                    continue
                corner = (m - 1) * (n - 1) + 1
                for p in range(corner + 1, (m - 1) * n + 1):
                    assert classify(m, n, p).kind == "exact"

    def test_conditional_when_interval_straddles(self):
        # find an unpinned pair and aim p at the branch point
        table = build_bounds_table(24)
        found = None
        for m in range(3, 25):
            for n in range(m, 25):
                lo, hi = table.interval(m, n)
                p = m * n - lo  # plural iff m#n <= lo; table cannot decide
                if lo < hi and (m - 1) * (n - 1) + 2 <= p <= (m - 1) * n:
                    found = (m, n, p)
                    break
            if found:
                break
        assert found, "expected at least one straddling case up to 24"
        result = classify(*found)
        assert result.kind == "conditional"
        assert result.ranks_if_true == (found[2], found[2] + 1)
        assert result.ranks_if_false == (found[2],)

    def test_corner_undetermined_when_bit_disjoint(self):
        # m=3, n=5: m-1=2 and n-1=4 are bit-disjoint
        assert bit_disjoint(2, 4)
        r = classify(3, 5, 9)
        assert r.kind == "interval"
        assert r.floor == 9 and r.cap == 10

    def test_below_corner_propagation(self):
        # m=3, n=5, corner 9; propagation pins p = 8 and 7 to {9}
        assert classify(3, 5, 8).ranks == (9,)
        assert classify(3, 5, 7).ranks == (9,)
        # window ends: k=2 has k(m+n-1) = 14 >= 8
        r = classify(3, 5, 6)
        assert r.kind == "interval"

    def test_uncovered_regime_floor(self):
        r = classify(5, 5, 9)
        assert r.kind == "interval"
        assert r.floor >= int(np.ceil(5 * 5 * 9 / (5 + 5 + 9 - 2)))


def test_describe_readable():
    text = classify(3, 3, 5).describe()
    assert "{5, 6}" in text
    text = classify(3, 3, 7).describe()
    assert "{7}" in text


class TestDefaultTable:
    def test_table_to_2n_minus_1_matches_table_to_p(self):
        # a table over dimensions up to 2n - 1 pins m#n as tightly as one
        # up to p, on both sides of 2n - 1; classify reads its table only
        # through interval(m, n), and reads the one to 2n - 1
        tables = {d: build_bounds_table(d) for d in range(3, 43)}
        for n in range(3, 8):
            for m in range(3, n + 1):
                narrow = tables[2 * n - 1].interval(m, n)
                for p in range(n, (m - 1) * n + 1):
                    wide = tables[max(p, 2 * n - 1)].interval(m, n)
                    assert wide == narrow, (m, n, p)
                    assert classify(m, n, p).hash_bounds in (None, narrow)

    def test_small_caller_table_is_not_weaker(self):
        # a table to 7 < 2n - 1 = 13 lacks entries the closure needs for
        # 5#7; classify's own table reaches 13
        assert classify(5, 7, 27).ranks == (27, 28)

    def test_default_table_does_not_grow_with_p(self, monkeypatch):
        module = importlib.import_module("rankatlas.classify")
        sizes = []

        def recording_build(max_dim):
            sizes.append(max_dim)
            return build_bounds_table(max_dim)

        monkeypatch.setattr(module, "_TABLE_CACHE", {})
        monkeypatch.setattr(module, "build_bounds_table", recording_build)
        assert classify(16, 16, 230).ranks == (230, 231)
        assert sizes and max(sizes) <= 31
