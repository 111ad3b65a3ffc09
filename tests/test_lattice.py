import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import meandim as md
from meandim import IntRect, LatticeSet
from meandim.errors import NotTotallyOrderedError, ResourceGuardError


class TestRectTriple:
    def test_formula_cases(self):
        assert md.rect_triple(IntRect(0, 2, 0, 0)) == IntRect(-2, 4, 0, 0)
        assert md.rect_triple(IntRect(1, 1, 1, 1)) == IntRect(1, 1, 1, 1)
        assert md.rect_triple(IntRect(-1, 0, 2, 4)) == IntRect(-2, 1, 0, 6)

    @given(st.integers(-100, 100), st.integers(0, 40),
           st.integers(-100, 100), st.integers(0, 40))
    def test_contains_and_size(self, a, w, c, h):
        r = IntRect(a, a + w, c, c + h)
        t = md.rect_triple(r)
        assert t.contains(r)
        assert t.cardinality() <= 9 * r.cardinality()

    def test_degenerate_rect_rejected(self):
        with pytest.raises(ValueError):
            IntRect(1, 0, 0, 0)


class TestRectOrder:
    def test_examples(self):
        assert md.rect_leq(IntRect(0, 1, 0, 5), IntRect(2, 4, 1, 6))
        r, s = IntRect(0, 3, 0, 0), IntRect(0, 0, 0, 3)
        assert not md.rect_leq(r, s) and not md.rect_leq(s, r)
        assert md.rect_leq(r, r)

    @given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10),
           st.integers(0, 10), st.integers(0, 10), st.integers(0, 10))
    def test_transitive(self, w1, h1, w2, h2, w3, h3):
        r1, r2, r3 = (IntRect(0, w, 0, h) for w, h in ((w1, h1), (w2, h2), (w3, h3)))
        if md.rect_leq(r1, r2) and md.rect_leq(r2, r3):
            assert md.rect_leq(r1, r3)


class TestBoundary:
    def test_domino_window(self):
        omega = LatticeSet((m, 0) for m in range(4))
        lam = LatticeSet([(0, 0), (1, 0)])
        assert set(md.boundary_set(omega, lam)) == {(-1, 0), (3, 0)}

    def test_singleton_window_never_straddles(self):
        omega = LatticeSet.from_rect(IntRect(-2, 3, 0, 2))
        assert len(md.boundary_set(omega, LatticeSet([(0, 0)]))) == 0

    def test_square_window(self):
        omega = LatticeSet.from_rect(IntRect(0, 1, 0, 1))
        lam = LatticeSet.from_rect(IntRect(0, 1, 0, 1))
        bd = md.boundary_set(omega, lam)
        expect = {(m, n) for m in (-1, 0, 1) for n in (-1, 0, 1)} - {(0, 0)}
        assert set(bd) == expect
        assert set(md.interior_set(omega, lam)) == {(0, 0)}

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            md.boundary_set(LatticeSet([(0, 0)]), LatticeSet(()))

    def test_partition_of_omega(self):
        # interior and (boundary restricted to omega) partition omega
        rng = np.random.default_rng(7)
        for _ in range(50):
            omega = LatticeSet(
                (int(m), int(n)) for m, n in rng.integers(-6, 7, size=(rng.integers(1, 25), 2)))
            lam = LatticeSet(
                (int(m), int(n)) for m, n in rng.integers(-2, 3, size=(rng.integers(1, 5), 2)))
            bd = md.boundary_set(omega, lam)
            interior = md.interior_set(omega, lam)
            bd_in = [u for u in bd if u in omega]
            assert set(interior) | set(bd_in) == set(omega)
            assert not (set(interior) & set(bd_in))


def chain_family(rng, n, max_size=30, span=100):
    """A random totally ordered family: sorted widths paired with sorted heights."""
    ws = np.sort(rng.integers(0, max_size + 1, n))
    hs = np.sort(rng.integers(0, max_size + 1, n))
    rects = []
    for w, h in zip(ws, hs):
        a = int(rng.integers(-span, span - w + 1))
        c = int(rng.integers(-span, span - h + 1))
        rects.append(IntRect(a, a + int(w), c, c + int(h)))
    order = rng.permutation(n)
    return [rects[i] for i in order]


class TestGreedyCover:
    def test_worked_example(self):
        fam = [IntRect(0, 2, 0, 2), IntRect(1, 3, 1, 3), IntRect(10, 12, 0, 2)]
        assert md.greedy_disjoint_subcover(fam) == [0, 2]
        assert md.rect_triple(fam[0]).contains(fam[1])

    def test_single_rect(self):
        assert md.greedy_disjoint_subcover([IntRect(0, 5, 0, 1)]) == [0]

    def test_disjoint_family_all_selected(self):
        fam = [IntRect(10 * i, 10 * i + 2, 0, 2) for i in range(5)]
        assert sorted(md.greedy_disjoint_subcover(fam)) == list(range(5))

    def test_empty_family(self):
        assert md.greedy_disjoint_subcover([]) == []

    def test_incomparable_pair_reported(self):
        fam = [IntRect(0, 3, 0, 0), IntRect(0, 0, 0, 3)]
        with pytest.raises(NotTotallyOrderedError) as ei:
            md.greedy_disjoint_subcover(fam)
        assert ei.value.pair == (0, 1)

    def test_random_families(self):
        rng = np.random.default_rng(12345)
        for _ in range(100):
            fam = chain_family(rng, int(rng.integers(1, 51)))
            sel = md.greedy_disjoint_subcover(fam)
            for i, a in enumerate(sel):
                for b in sel[i + 1:]:
                    assert not fam[a].intersects(fam[b])
            for r in fam:
                assert any(md.rect_triple(fam[i]).contains(r) for i in sel)


def translated_balls(a, b, M, N, norm):
    """Lambda_{a,b}(M, N) by brute force: every point of every translate."""
    r = M - 1
    ball = [(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)
            if (max(abs(x), abs(y)) <= r if norm == "linf" else x * x + y * y <= r * r)]
    return {(a * n + x, b * n + y) for n in range(N) for x, y in ball}


class TestLambdaSets:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 7), st.integers(1, 40),
           st.sampled_from(["linf", "l2"]))
    def test_matches_translated_balls(self, a, b, M, N, norm):
        # steps wider than 2M - 1 leave gaps between the balls
        assume((a, b) != (0, 0))
        window = md.lambda_set(a, b, M, N, norm)
        want = translated_balls(a, b, M, N, norm)
        assert window.points == tuple(sorted(want))
        assert window._set == set(window.points) == want
        if norm == "linf":
            assert len(window) == md.lambda_count(a, b, M, N)

    def test_presorted_constructors_match_the_sorting_one(self):
        for rect in (IntRect(0, 0, 0, 0), IntRect(-3, 2, 4, 9), IntRect(5, 5, -2, 3)):
            fast = LatticeSet.from_rect(rect)
            assert fast == LatticeSet(list(rect.points())[::-1])
            assert fast._set == set(fast.points)
        for norm in ("linf", "l2"):
            for r in range(6):
                ball = md.norm_ball(r, norm)
                assert ball.points == tuple(sorted(translated_balls(1, 0, r + 1, 1, norm)))
                assert ball._set == set(ball.points)

    def test_horizontal_is_a_segment(self):
        s = md.lambda_set(1, 0, 1, 5)
        assert set(s) == {(n, 0) for n in range(5)}

    def test_diagonal_19_points(self):
        assert len(md.lambda_set(1, 1, 2, 3)) == 19
        assert md.lambda_count(1, 1, 2, 3) == 19

    def test_enumeration_matches_closed_form(self):
        for a in range(-2, 3):
            for b in range(-2, 3):
                if (a, b) == (0, 0):
                    continue
                for M in range(1, 5):
                    for N in range(1, 7):
                        assert len(md.lambda_set(a, b, M, N)) == md.lambda_count(a, b, M, N)

    def test_new_cells_recurrence_diagonal(self):
        # count = (2M-1)^2 + (N-1) * fresh, fresh found by brute force at small M
        for M in (1, 2, 3):
            fresh_brute = len(md.lambda_set(1, 1, M, 2)) - len(md.lambda_set(1, 1, M, 1))
            for N in range(1, 7):
                assert md.lambda_count(1, 1, M, N) == (2 * M - 1) ** 2 + (N - 1) * fresh_brute

    def test_density_trend_monotone(self):
        # The N-limit of the density is the per-step growth (new cells)/M;
        # along M = 2^k it climbs monotonically to 2(|a|+|b|).  (At finite
        # N = 64 M the raw density overshoots the limit by O(1/64), which
        # the 3% acceptance check at M=64, N=4096 absorbs.)
        for (a, b) in ((1, 0), (1, 1), (2, 1)):
            limit = 2 * (abs(a) + abs(b))
            gaps = []
            for k in range(2, 9):
                M = 2 ** k
                incremental = (md.lambda_count(a, b, M, 2) - md.lambda_count(a, b, M, 1)) / M
                gaps.append(abs(incremental - limit))
            assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
            assert gaps[-1] < 0.02 * limit

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            md.lambda_set(0, 0, 2, 2)
        with pytest.raises(ValueError):
            md.lambda_count(0, 0, 2, 2)

    def test_enumeration_guard(self):
        with pytest.raises(ResourceGuardError):
            md.lambda_set(1, 1, 4096, 100000)

    def test_guard_fires_before_any_point(self, monkeypatch):
        def no_ball(*args):
            raise AssertionError("the ball was built")
        monkeypatch.setattr(md.lattice, "norm_ball", no_ball)
        # 3e8 points under the sup norm, 10^8 discs of 13 points each, and
        # one disc of radius 10^9
        for norm, M, N in (("linf", 2, 10 ** 8), ("l2", 3, 10 ** 8), ("l2", 10 ** 9, 1)):
            with pytest.raises(ResourceGuardError):
                md.lambda_set(1, 0, M, N, norm)
        with pytest.raises(ValueError):
            md.lambda_set(1, 0, 2, 2, "l1")


class TestNormBall:
    def test_l2_membership_is_exact(self):
        ball = md.norm_ball(5, "l2")
        for (m, n) in ball:
            assert m * m + n * n <= 25
        assert (3, 4) in ball and (4, 4) not in ball

    def test_negative_radius_empty(self):
        assert len(md.norm_ball(-1)) == 0
