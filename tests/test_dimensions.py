import functools
import math

import numpy as np
import pytest

import meandim as md
from meandim import ActionSpec, IntRect, LatticeSet, MetricSpec, Pattern
from meandim.errors import ResourceGuardError
from meandim.estimates import resolution_depth

from conftest import LOG2_PHI


def mmdim(sft, spec, **kw):
    return md.mmdim_estimate(md.bowen_table(sft, None, spec, **kw))


def mhdim(sft, measure, spec, **kw):
    return md.mhdim_bounds(md.bowen_table(sft, measure, spec, **kw))


def count_slope(table, M):
    """Growth per iterate of the log2 window counts at depth M."""
    row = table.rows[M]
    return (row.log2_counts[1] - row.log2_counts[0]) / (row.Ns[1] - row.Ns[0])


def pattern_pair(support, symsA, symsB):
    pts = support.points
    return (Pattern(tuple(zip(pts, symsA))), Pattern(tuple(zip(pts, symsB))))


class TestMetricEval:
    def test_disagreement_at_origin(self, spec2):
        ball = md.norm_ball(1)
        a = ["0"] * len(ball)
        b = list(a)
        b[ball.points.index((0, 0))] = "1"
        p, q = pattern_pair(ball, a, b)
        assert md.metric_eval(spec2, p, q) == (1.0, True)

    def test_sup_norm_weighting(self, spec2):
        ball = md.norm_ball(3)
        a = ["0"] * len(ball)
        b = list(a)
        b[ball.points.index((2, 1))] = "1"
        p, q = pattern_pair(ball, a, b)
        assert md.metric_eval(spec2, p, q) == (0.25, True)

    def test_euclidean_weighting(self):
        spec = MetricSpec(2.0, "l2")
        ball = md.norm_ball(2, "l2")
        a = ["0"] * len(ball)
        b = list(a)
        b[ball.points.index((1, 1))] = "1"
        p, q = pattern_pair(ball, a, b)
        val, exact = md.metric_eval(spec, p, q)
        assert exact and abs(val - 2 ** -math.sqrt(2)) < 1e-15

    def test_certificate_on_agreement(self, spec2):
        ball = md.norm_ball(2)
        p, _ = pattern_pair(ball, ["0"] * len(ball), ["0"] * len(ball))
        val, exact = md.metric_eval(spec2, p, p)
        assert not exact and val == 2.0 ** -3

    def test_mismatched_supports_rejected(self, spec2):
        p = Pattern.from_dict({(0, 0): "0"})
        q = Pattern.from_dict({(1, 0): "0"})
        with pytest.raises(ValueError):
            md.metric_eval(spec2, p, q)

    def test_certificate_without_origin_is_trivial(self, spec2):
        # a support missing the origin cannot rule out disagreement there
        p = Pattern.from_dict({(5, 5): "0"})
        assert md.metric_eval(spec2, p, p) == (1.0, False)

    def test_ultrametric_inequality_randomised(self, spec2):
        rng = np.random.default_rng(321)
        ball = md.norm_ball(2)
        pts = ball.points
        trips = rng.integers(0, 2, size=(10_000, 3, len(pts)))
        # bulk check on the exponent level, vectorised
        norms = np.array([max(abs(m), abs(n)) for m, n in pts], float)

        def expo(u, v):
            diff = u != v
            return np.where(diff, norms, np.inf).min(axis=-1)

        e_pq = expo(trips[:, 0], trips[:, 1])
        e_qr = expo(trips[:, 1], trips[:, 2])
        e_pr = expo(trips[:, 0], trips[:, 2])
        assert (e_pr >= np.minimum(e_pq, e_qr)).all()
        # and through the public op on a subsample
        for row in trips[:200]:
            p, q, r = (Pattern(tuple(zip(pts, map(str, syms)))) for syms in row)
            d_pq = md.metric_eval(spec2, p, q).value
            d_qr = md.metric_eval(spec2, q, r).value
            d_pr = md.metric_eval(spec2, p, r).value
            assert d_pr <= max(d_pq, d_qr) + 1e-15


class TestResolutionIndex:
    # resolution_depth(alpha, eps) is the resolution index of eps
    def test_bracket_examples(self):
        assert resolution_depth(2.0, 0.5) == 2
        assert resolution_depth(2.0, 1.0) == 1
        assert resolution_depth(2.0, 0.25) == 3

    def test_out_of_range(self):
        for eps in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError, match="epsilon"):
                resolution_depth(2.0, eps)

    def test_bracket_property(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            alpha = float(rng.uniform(1.1, 6.0))
            eps = float(rng.uniform(1e-6, 1.0))
            M = resolution_depth(alpha, eps)
            assert alpha ** -M < eps <= alpha ** (-(M - 1))

    def test_depth_matches_linear_search(self):
        # the rule once stepped M up from 1 (and from 0 for the strip bound
        # of rd_lower_bound, at scale delta); the log-estimate start must
        # land on the same M, including on the boundaries eps = scale * alpha^-k
        def linear(alpha, eps, scale):
            M = 1
            while scale * alpha ** -M >= eps:
                M += 1
            return M

        rng = np.random.default_rng(7)
        for _ in range(300):
            alpha = float(rng.uniform(1.01, 10.0))
            scale = float(rng.choice([1.0, rng.uniform(0.001, 0.5)]))
            k = int(rng.integers(0, 60))
            for eps in (scale * alpha ** -k, scale * alpha ** -k * (1 - 1e-15),
                        scale * float(rng.uniform(1e-12, 1.0))):
                if 0 < eps <= scale:
                    assert resolution_depth(alpha, eps, scale) == linear(alpha, eps, scale)

    def test_depth_work_does_not_grow_with_m(self):
        # stepping from 1 would take about 7e11 and 1e17 steps here; in the
        # second case the log estimate overshoots and M is settled downwards
        for alpha, eps in ((1 + 1e-12, 0.5), (1 + 3 * 2 ** -52, 1e-200)):
            M = resolution_depth(alpha, eps)
            assert alpha ** -M < eps <= alpha ** -(M - 1)
        for bad in (1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="alpha"):
                resolution_depth(bad, 0.5)


class TestBowenWindow:
    def test_single_step_square(self, act10):
        w = md.bowen_window(act10, 1, 3)
        assert w.as_rect() == IntRect(-2, 2, -2, 2) and len(w) == 25

    def test_horizontal_strip(self, act10):
        w = md.bowen_window(act10, 4, 2)
        assert w.as_rect() == IntRect(-1, 4, -1, 1) and len(w) == 18

    def test_skew_equals_lambda_set(self):
        # the union of the radius-(M-1) balls at (na, nb), 0 <= n < N, built
        # as runs, is the swept point set found by brute force
        for norm in ("linf", "l2"):
            for a in range(-2, 3):
                for b in range(-2, 3):
                    if (a, b) == (0, 0):
                        continue
                    for M in range(1, 5):
                        r = M - 1
                        ball = [(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)
                                if (max(abs(x), abs(y)) <= r if norm == "linf"
                                    else x * x + y * y <= r * r)]
                        assert md.norm_ball(r, norm) == LatticeSet(ball)
                        for N in range(1, 7):
                            swept = {(a * n + x, b * n + y) for n in range(N) for x, y in ball}
                            window = md.bowen_window(ActionSpec(a, b), N, M, norm)
                            assert window == md.lambda_set(a, b, M, N, norm) == \
                                LatticeSet(swept)
                            assert window.points == tuple(sorted(swept))
                            assert len(window) == len(swept)

    def test_window_characterises_distance(self, spec2, act10):
        # Single-site disagreements give the Bowen distance exactly:
        # d_N < eps_M iff the disagreement site lies outside W(M, N).
        N, M = 4, 2
        big = LatticeSet.from_rect(IntRect(-2, 5, -2, 2))
        window = md.bowen_window(act10, N, M)
        base = {pt: "0" for pt in big}
        eps = spec2.epsilon_at(M)
        for site in big:
            other = dict(base)
            other[site] = "1"
            vals = []
            for n in range(N):
                ps = Pattern.from_dict({(m - n, y): s for (m, y), s in base.items()})
                qs = Pattern.from_dict({(m - n, y): s for (m, y), s in other.items()})
                vals.append(md.metric_eval(spec2, ps, qs).value)
            dist = max(vals)
            assert (dist < eps) == (site not in window), site


class TestCoveringNumbers:
    def test_full_shift_912(self, full2, spec2, act10):
        assert md.covering_number(full2, spec2, act10, 1, 0.5) == 512

    def test_golden_row_three(self, goldenrow, spec2, act10):
        assert md.covering_number(goldenrow, spec2, act10, 2, 1.0) == 3

    def test_diameter_exceeded(self, threedot, spec2, act10):
        assert md.covering_number(threedot, spec2, act10, 7, 1.25) == 1

    def test_monotone_in_eps_and_N(self, goldenrow, spec2, act10):
        eps = [1.0, 0.5, 0.25, 0.125]
        covers = [md.covering_number(goldenrow, spec2, act10, 4, e) for e in eps]
        assert covers == sorted(covers)
        byN = [md.covering_number(goldenrow, spec2, act10, N, 0.5) for N in (1, 2, 4, 8)]
        assert byN == sorted(byN)


class TestEntropyAtResolution:
    # the growth per iterate of the log2 window counts at one depth
    def test_full_shift_window_height(self, full2, spec2, act10):
        table = md.bowen_table(full2, None, spec2, act10, (3, 4, 5))
        assert count_slope(table, 3) == 5.0

    def test_golden_row(self, goldenrow, spec2, act10):
        table = md.bowen_table(goldenrow, None, spec2, act10, (2, 3, 4))
        assert table.rows[2].Ns == (16, 32)
        assert abs(count_slope(table, 2) - 3 * LOG2_PHI) < 1e-8

    def test_three_dot(self, threedot, spec2, act10):
        table = md.bowen_table(threedot, None, spec2, act10, (2, 3, 4), Nfactor=8)
        assert table.rows[2].Ns == (8, 16)
        assert count_slope(table, 2) == 1.0

    def test_each_window_built_once(self, goldenrow, threedot, parry, spec2, monkeypatch):
        # planning a skew or l2 window of a row or linear spec builds it; the
        # count and the weight then read that build, not a second one
        builds = []
        build = md.lattice.SweptWindow.__dict__["lattice_set"].func

        def counted(window):
            builds.append((window.M, window.N))
            return build(window)

        prop = functools.cached_property(counted)
        prop.__set_name__(md.lattice.SweptWindow, "lattice_set")
        monkeypatch.setattr(md.lattice.SweptWindow, "lattice_set", prop)
        for sft, measure, action, norm in ((goldenrow, None, ActionSpec(1, 1), "linf"),
                                           (goldenrow, parry, ActionSpec(2, 1), "linf"),
                                           (threedot, None, ActionSpec(1, 1), "linf"),
                                           (goldenrow, parry, ActionSpec(1, 0), "l2")):
            builds.clear()
            table = md.bowen_table(sft, measure, MetricSpec(2.0, norm), action)
            assert sorted(builds) == sorted((M, N) for M, row in table.rows.items()
                                            for N in row.Ns)
        builds.clear()
        md.covering_number(goldenrow, spec2, ActionSpec(1, 1), 40, 0.3)
        assert builds == [(2, 40)]

    def test_needs_two_scales(self, full2, spec2, act10):
        # at M = 1 with Nfactor 1 both windows would have N = 1
        with pytest.raises(ValueError, match="degenerate"):
            md.bowen_table(full2, None, spec2, act10, (1, 2, 3), Nfactor=1)


class TestMmdim:
    def test_full_shift_exact_sequence(self, full2, spec2):
        est = mmdim(full2, spec2)
        assert est.sequence == tuple((2 * M - 1) / (M - 1) for M in range(2, 7))
        assert abs(est.value - 2.0) < 1e-12
        assert est.kind == "exact"

    def test_full_shift_alpha4(self, full2):
        est = mmdim(full2, MetricSpec(4.0))
        assert abs(est.value - 1.0) < 1e-12

    def test_three_dot_vanishes(self, threedot, spec2):
        est = mmdim(threedot, spec2)
        assert est.sequence == tuple(1 / (M - 1) for M in range(2, 7))
        assert abs(est.value) < 1e-12

    def test_degenerate_schedule_rejected(self, full2, spec2):
        with pytest.raises(ValueError):
            mmdim(full2, spec2, Mschedule=(2, 2))

    def test_empty_subshift_reported(self, spec2):
        bad = tuple(Pattern.from_dict({(0, 0): s}) for s in ("0", "1"))
        empty = md.SftSpec(2, md.alphabet("0", "1"), bad)
        with pytest.raises(md.EmptyLanguageError):
            mmdim(empty, spec2)

    def test_non_dyadic_base(self, full2):
        est = mmdim(full2, MetricSpec(3.0))
        assert abs(est.value - 2 / math.log2(3)) < 1e-12

    def test_ternary_row_lift(self, spec2):
        # three symbols exercise the transfer sweep beyond the binary fixtures
        bad = Pattern.from_dict({(0, 0): "2", (1, 0): "2"})
        base = md.SftSpec(1, md.alphabet("0", "1", "2"), (bad,))
        h = md.transfer_matrix_entropy_1d(base)
        lifted = md.row_lift(base)
        assert lifted.certified == "row-lift"
        rect = md.IntRect(0, 3, 0, 2)
        assert (md.RectCounter(lifted).try_count(rect.ncols, rect.nrows)
                == md.count_locally_admissible(lifted, rect, algorithm="backtracking"))
        est = mmdim(lifted, spec2, Mschedule=(2, 3, 4), Nfactor=8)
        assert abs(est.value - 2 * h) < 1e-6


class TestHausdorffAtScale:
    # the per-scale Hausdorff exponents of mhdim_bounds
    def test_mass_distribution_matches_for_uniform(self, full2, bern_half, spec2):
        # Bernoulli-1/2 cylinders of a window all have mass 2^-cells
        lower, upper = mhdim(full2, bern_half, spec2, Mschedule=(2, 3, 4))
        assert all(abs(lo - up) < 1e-12 for lo, up in zip(lower.sequence, upper.sequence))

    def test_single_symbol_zero(self, spec2):
        one = md.full_shift(("0",))
        m = md.MeasureSpec.bernoulli(md.alphabet("0"), (1.0,))
        lower, upper = mhdim(one, m, spec2, Mschedule=(2, 3, 4))
        assert lower.sequence == upper.sequence == (0.0, 0.0, 0.0)

    def test_parry_bracket(self, goldenrow, parry, spec2):
        lower, upper = mhdim(goldenrow, parry, spec2, Mschedule=(2, 3, 4))
        assert all(lo <= up + 1e-12 for lo, up in zip(lower.sequence, upper.sequence))

    def test_measure_mismatch_rejected(self, threedot, parry, spec2):
        with pytest.raises(ValueError):
            mhdim(threedot, parry, spec2, Mschedule=(2, 3, 4))


class TestMhdim:
    def test_full_shift_both_sides(self, full2, bern_half, spec2):
        lower, upper = mhdim(full2, bern_half, spec2)
        assert abs(upper.value - 2.0) < 1e-12
        assert abs(lower.value - 2.0) < 1e-12
        assert upper.sequence == tuple((2 * M - 1) / M for M in range(2, 7))

    def test_three_dot_upper_vanishes(self, threedot, spec2):
        _, upper = mhdim(threedot, None, spec2)
        assert abs(upper.value) < 1e-12

    def test_upper_below_mmdim_pointwise(self, goldenrow, spec2):
        table = md.bowen_table(goldenrow, None, spec2)
        mm = md.mmdim_estimate(table)
        _, up = md.mhdim_bounds(table)
        assert all(u <= v + 1e-12 for u, v in zip(up.sequence, mm.sequence))
        assert up.value <= mm.value + 1e-9

    def test_lower_requires_supported_measure(self, goldenrow, bern_half, spec2):
        with pytest.raises(ValueError):
            mhdim(goldenrow, bern_half, spec2)

    def test_no_measure_no_lower(self, goldenrow, spec2):
        lower, upper = mhdim(goldenrow, None, spec2)
        assert lower is None and upper is not None

    def test_counts_at_scheduled_depths_masses_over_the_range(self, goldenrow, parry,
                                                                spec2):
        # the lower bound minimises over every depth up to the last one
        table = md.bowen_table(goldenrow, parry, spec2, Mschedule=(3, 5, 7))
        assert table.schedule == (3, 5, 7) and sorted(table.rows) == [3, 4, 5, 6, 7]
        for M, row in table.rows.items():
            assert row.Ns == (8 * M, 16 * M)
            assert (row.log2_counts is not None) == (M in (3, 5, 7))
            assert row.mass_bits is not None
        assert sorted(md.bowen_table(goldenrow, None, spec2, Mschedule=(3, 5, 7)).rows) \
            == [3, 5, 7]


class TestSkewAndEuclidean:
    def test_full_shift_skew_density_trend(self, full2, spec2):
        # covering exponents of the skew actions per iterate and per
        # log(1/eps) climb down to 2(|a|+|b|) * log2|A| / log2(alpha)
        for (a, b) in ((1, 1), (2, 1)):
            limit = 2 * (abs(a) + abs(b))
            gaps = []
            for M in (4, 8, 16):
                N = 64 * M
                c = md.covering_number(full2, spec2, ActionSpec(a, b), N,
                                       spec2.epsilon_at(M))
                ratio = math.log2(c) / (N * (M - 1))
                gaps.append(abs(ratio - limit))
            assert gaps == sorted(gaps, reverse=True)
            assert gaps[-1] < 0.05 * limit

    def test_m_schedule_starts_where_windows_skip_nothing(self):
        m_schedule = md.dimensions.m_schedule
        for a in range(-6, 7):
            for b in range(-6, 7):
                if (a, b) == (0, 0):
                    continue
                act = ActionSpec(a, b)
                skip_free = []
                for M in range(1, 6):
                    w = md.bowen_window(act, 3, M)
                    box = w.bounding_box()
                    skip_free.append({m for m, _ in w} == set(range(box.a, box.b + 1))
                                     and {n for _, n in w} == set(range(box.c, box.d + 1)))
                first = skip_free.index(True) + 1
                assert all(skip_free[first - 1:])
                assert m_schedule(act) == list(range(max(2, first), max(2, first) + 5))
                if first > 1:
                    with pytest.raises(ValueError, match=f"M = {first}"):
                        m_schedule(act, range(first - 1, first + 2))
        # horizontal runs keep their schedules, depth 1 included
        assert m_schedule(ActionSpec(1, 0)) == [2, 3, 4, 5, 6]
        assert m_schedule(ActionSpec(1, 0), (3, 1, 2, 2)) == [1, 2, 3]

    def test_full_shift_euclidean_mmdim(self, full2):
        # the Euclidean-ball windows gain one full vertical diameter per
        # iterate, so the full-shift sequence and limit match the sup norm
        est = mmdim(full2, MetricSpec(2.0, "l2"))
        assert abs(est.value - 2.0) < 1e-9

    def test_euclidean_covering_count(self, full2, act10):
        spec = MetricSpec(2.0, "l2")
        w = md.bowen_window(act10, 1, 3, "l2")
        assert md.covering_number(full2, spec, act10, 1, spec.epsilon_at(3)) == \
            2 ** len(w)
        assert len(w) == 13  # disc of radius 2


class TestTameGrowth:
    def test_full_shift_closed_form(self, full2, spec2):
        res = md.tame_growth_check(full2, spec2, 0.1, 32)
        for M, v in res.table:
            assert abs(v - 2.0 ** (-0.1 * (M - 1)) * (2 * M - 1) ** 2) < 1e-9

    def test_consistent_at_large_depth(self, full2, spec2):
        assert md.tame_growth_check(full2, spec2, 0.1, 64).verdict == "consistent"
        assert md.tame_growth_check(full2, spec2, 1.0, 16).verdict == "consistent"

    def test_square_route_matches_point_sets(self, full2, goldenrow, threedot):
        # sup-norm balls are counted as squares; l2 balls are not rectangles
        # and go to backtracking, which visits every golden-row pattern
        for sft in (full2, goldenrow, threedot):
            for norm, Mmax in (("linf", 6), ("l2", 3)):
                spec = md.MetricSpec(2.0, norm)
                res = md.tame_growth_check(sft, spec, 0.1, Mmax)
                for M, v in res.table:
                    c = md.count_locally_admissible(sft, md.norm_ball(M - 1, norm))
                    assert v == spec.epsilon_at(M) ** 0.1 * math.log2(c)

    def test_refusal_planned_before_any_count(self, threedot, spec2, monkeypatch):
        # the 203 x 203 square at M = 102 is over the elimination guard, so
        # Mmax = 256 is refused before the 101 squares under it are counted
        def no_solve(*args):
            raise AssertionError("a window was counted")
        monkeypatch.setattr(md.subshift._LinearSpec, "_solve", no_solve)
        with pytest.raises(ResourceGuardError, match=r"depth M = 102 \(eliminating .* "
                           r"elimination guard .*largest Mmax it can count on this "
                           r"subshift is 101$"):
            md.tame_growth_check(threedot, spec2, 0.1, 256)

    def test_single_symbol_all_zero(self, spec2):
        res = md.tame_growth_check(md.full_shift(("0",)), spec2, 0.5, 8)
        assert all(v == 0.0 for _, v in res.table)
        assert res.verdict == "consistent"


class TestFitLimit:
    def test_recovers_affine_data_exactly(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            v_inf = float(rng.uniform(-5, 5))
            c = float(rng.uniform(-5, 5))
            Ms = sorted(rng.choice(np.arange(2, 40), size=5, replace=False))
            xs = [1.0 / M for M in Ms]
            vs = [v_inf + c * x for x in xs]
            got_v, got_c = md.fit_limit(xs, vs)
            assert abs(got_v - v_inf) < 1e-9
            assert abs(got_c - c) < 1e-8

    def test_degenerate_abscissae_rejected(self):
        with pytest.raises(ValueError):
            md.fit_limit([0.5, 0.5], [1.0, 2.0])


class TestOneDimensional:
    def test_golden_sequence_at_depth(self, golden1d, spec2):
        table = dict(md.minkowski_sequence_1d(golden1d, spec2, [10, 20]))
        assert abs(table[20] - LOG2_PHI) < 0.02

    def test_extrapolation(self, golden1d, spec2):
        est = md.minkowski_estimate_1d(golden1d, spec2)
        assert abs(est.value - LOG2_PHI) < 5e-3

    def test_bracket(self, golden1d, parry, spec2):
        lo, up = md.hausdorff_bracket_1d(golden1d, parry, spec2, 20)
        assert lo <= up
        assert abs(lo - LOG2_PHI) < 0.02 and abs(up - LOG2_PHI) < 0.02

    def test_full_shift_1d(self, spec2):
        fs1 = md.full_shift(("0", "1"), dimension=1)
        est = md.minkowski_estimate_1d(fs1, spec2)
        assert abs(est.value - 1.0) < 1e-12
