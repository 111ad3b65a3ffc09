import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import meandim as md
from meandim import FiniteDistribution, IntRect, JointDistribution, MeasureSpec
from meandim.errors import MeandimError
from meandim.subshift import perron_eigendata

from conftest import LOG2_PHI


def random_joint(rng, nx, ny):
    m = rng.random((nx, ny)) ** 2
    return m / m.sum()


class TestDistributions:
    def test_entropy_examples(self):
        uni8 = FiniteDistribution(tuple(range(8)), (0.125,) * 8)
        assert md.shannon_entropy(uni8) == 3.0
        point = FiniteDistribution(("a", "b"), (1.0, 0.0))
        assert md.shannon_entropy(point) == 0.0
        skew = FiniteDistribution(("a", "b"), (0.25, 0.75))
        assert abs(md.shannon_entropy(skew) - 0.811278) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteDistribution(("a",), (0.7,))
        with pytest.raises(ValueError):
            FiniteDistribution(("a", "b"), (1.2, -0.2))

    @given(st.floats(0.0, 1.0))
    def test_binary_entropy_range_and_symmetry(self, d):
        v = md.binary_entropy(d)
        assert 0.0 <= v <= 1.0
        assert abs(v - md.binary_entropy(1.0 - d)) < 1e-12

    def test_binary_entropy_examples(self):
        assert md.binary_entropy(0.5) == 1.0
        assert md.binary_entropy(0.0) == 0.0
        assert abs(md.binary_entropy(0.01) - 0.080793) < 1e-6
        with pytest.raises(ValueError):
            md.binary_entropy(1.5)


class TestMutualInformation:
    def test_examples(self):
        indep = JointDistribution.from_array([[0.25, 0.25], [0.25, 0.25]])
        assert md.mutual_information(indep) == 0.0
        diag = JointDistribution.from_array([[0.5, 0.0], [0.0, 0.5]])
        assert md.mutual_information(diag) == 1.0
        f = 0.25
        bsc = JointDistribution.from_array(
            [[0.5 * (1 - f), 0.5 * f], [0.5 * f, 0.5 * (1 - f)]])
        assert abs(md.mutual_information(bsc) - (1 - md.binary_entropy(f))) < 1e-12

    def test_random_suite(self):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            nx, ny = rng.integers(2, 6, size=2)
            m = random_joint(rng, nx, ny)
            joint = JointDistribution.from_array(m)
            I = md.mutual_information(joint)
            assert I >= -1e-9
            assert abs(I - md.mutual_information(JointDistribution.from_array(m.T))) < 1e-9
            hx = md.shannon_entropy(FiniteDistribution(tuple(range(nx)),
                                                       tuple(m.sum(axis=1))))
            hy = md.shannon_entropy(FiniteDistribution(tuple(range(ny)),
                                                       tuple(m.sum(axis=0))))
            assert I <= min(hx, hy) + 1e-9

    def test_data_processing(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            nx, ny = rng.integers(2, 6, size=2)
            m = random_joint(rng, nx, ny)
            f = rng.integers(0, rng.integers(1, nx + 1), size=nx)
            g = rng.integers(0, rng.integers(1, ny + 1), size=ny)
            pushed = np.zeros((f.max() + 1, g.max() + 1))
            for i in range(nx):
                for j in range(ny):
                    pushed[f[i], g[j]] += m[i, j]
            assert (md.mutual_information_of(pushed)
                    <= md.mutual_information_of(m) + 1e-9)


class TestMeasures:
    def test_bernoulli_validation(self):
        with pytest.raises(ValueError):
            MeasureSpec.bernoulli(md.alphabet("0", "1"), (0.7, 0.7))

    def test_markov_validation(self):
        with pytest.raises(ValueError):
            MeasureSpec.markov_row(md.alphabet("0", "1"), [[0.5, 0.6], [1, 0]])
        # wrong stationary vector
        with pytest.raises(ValueError):
            MeasureSpec("markov-row", md.alphabet("0", "1"),
                        transition=((0.5, 0.5), (1.0, 0.0)),
                        stationary=(0.5, 0.5))

    def test_stationary_computed(self):
        m = MeasureSpec.markov_row(md.alphabet("0", "1"), [[0.5, 0.5], [1.0, 0.0]])
        pi = m.pi()
        assert np.abs(pi @ m.P() - pi).max() < 1e-12

    def test_parry_is_golden_maximal(self, golden1d, parry):
        phi = (1 + math.sqrt(5)) / 2
        P = parry.P()
        assert abs(P[0, 0] - 1 / phi) < 1e-12
        assert abs(P[0, 1] - 1 / phi ** 2) < 1e-12
        assert P[1, 1] == 0.0
        assert abs(md.ks_entropy(parry) - LOG2_PHI) < 1e-12

    def test_parry_needs_irreducible_graph(self):
        # forbidding "10" leaves a reducible graph (no path back from 1 to 0)
        bad = (md.Pattern.from_dict({(0, 0): "1", (1, 0): "0"}),)
        sft = md.SftSpec(1, md.alphabet("0", "1"), bad)
        with pytest.raises(ValueError):
            md.parry_measure(sft)

    def test_parry_needs_nearest_neighbour(self):
        bad = (md.Pattern.from_dict({(0, 0): "1", (1, 0): "1", (2, 0): "1"}),)
        sft = md.SftSpec(1, md.alphabet("0", "1"), bad)
        with pytest.raises(ValueError):
            md.parry_measure(sft)

    def test_parry_on_periodic_graph(self):
        # the alternating shift has a period-2 transition graph, whose two
        # eigenvalues of modulus 1 must not hide its (zero-entropy) measure
        bad = (md.Pattern.from_dict({(0, 0): "0", (1, 0): "0"}),
               md.Pattern.from_dict({(0, 0): "1", (1, 0): "1"}))
        alt = md.SftSpec(1, md.alphabet("0", "1"), bad)
        pm = md.parry_measure(alt)
        assert pm.stationary == (0.5, 0.5)
        assert md.ks_entropy(pm) == 0.0

    def test_parry_on_long_cycle_with_self_loop(self):
        # a 12-cycle plus one self-loop: irreducible, aperiodic, and slow for
        # power iteration, which left rows off 1 by 3e-10 after 300 steps
        q = 12
        syms = tuple(str(i) for i in range(q))
        allowed = {(i, (i + 1) % q) for i in range(q)} | {(0, 0)}
        bad = tuple(md.Pattern.from_dict({(0, 0): syms[i], (1, 0): syms[j]})
                    for i in range(q) for j in range(q) if (i, j) not in allowed)
        pm = md.parry_measure(md.SftSpec(1, md.alphabet(*syms), bad))
        P, pi = pm.P(), pm.pi()
        assert np.abs(P.sum(axis=1) - 1).max() < 1e-12
        assert np.abs(pi @ P - pi).max() < 1e-12
        # the entropy is log2 of the Perron root of x^12 = x^11 + 1
        lam = max(r.real for r in np.roots([1, -1] + [0] * 10 + [-1]) if abs(r.imag) < 1e-9)
        assert abs(md.ks_entropy(pm) - math.log2(lam)) < 1e-12

    def test_perron_check_refuses_non_positive_vector(self):
        # a Jordan block has no positive eigenvector; the self-check says so
        with pytest.raises(MeandimError):
            perron_eigendata(np.array([[1, 1], [0, 1]]))

    def test_check_support(self, goldenrow, threedot, parry, bern_half):
        md.check_support(parry, goldenrow)  # fine
        with pytest.raises(ValueError):
            md.check_support(bern_half, goldenrow)
        with pytest.raises(ValueError):
            md.check_support(parry, threedot)


class TestWindowMarginals:
    def test_uniform_cube(self, bern_half):
        dist = md.window_marginal(bern_half, md.row_interval(3))
        assert len(dist.outcomes) == 8
        assert all(abs(p - 0.125) < 1e-15 for p in dist.probs)

    def test_point_mass(self):
        m = MeasureSpec.bernoulli(md.alphabet("0", "1"), (1.0, 0.0))
        dist = md.window_marginal(m, md.row_interval(2))
        probs = dict(zip(("00", "01", "10", "11"),
                         [p for p in dist.probs]))
        assert max(dist.probs) == 1.0
        top = dist.outcomes[int(np.argmax(dist.probs))]
        assert all(sym == "0" for _, sym in top.cells)

    def test_parry_pair_probabilities(self, parry):
        dist = md.window_marginal(parry, md.row_interval(2))
        P, pi = parry.P(), parry.pi()
        expect = sorted(pi[i] * P[i, j] for i in range(2) for j in range(2))
        assert np.allclose(sorted(dist.probs), expect)

    def test_interior_marginal_is_stationary(self, parry):
        # marginalising a 6-cell chain law onto two interior cells must
        # reproduce the stationary pair law
        six = md.window_marginal(parry, md.row_interval(6))
        agg = {}
        for pat, p in zip(six.outcomes, six.probs):
            agg[(pat[(2, 0)], pat[(3, 0)])] = agg.get((pat[(2, 0)], pat[(3, 0)]), 0.0) + p
        pair = md.window_marginal(parry, md.row_interval(2))
        direct = {(pat[(0, 0)], pat[(1, 0)]): p
                  for pat, p in zip(pair.outcomes, pair.probs)}
        for key, val in agg.items():
            assert abs(val - direct[key]) < 1e-12

    def test_triple_probabilities_fix_orientation(self):
        # pair fluxes of 2-state stationary chains are symmetric, so only a
        # 3-cell marginal can distinguish the chain from its reversal
        P = [[0.9, 0.1], [0.5, 0.5]]
        m = MeasureSpec.markov_row(md.alphabet("0", "1"), P)
        pi = m.pi()
        assert abs(pi[0] - 5 / 6) < 1e-12
        dist = md.window_marginal(m, md.row_interval(3))
        got = {"".join(sym for _, sym in pat.cells): p
               for pat, p in zip(dist.outcomes, dist.probs)}
        assert abs(got["010"] - pi[0] * 0.1 * 0.5) < 1e-12
        assert abs(got["001"] - pi[0] * 0.9 * 0.1) < 1e-12
        assert abs(got["110"] - pi[1] * 0.5 * 0.5) < 1e-12

    def test_pattern_probability_matches_marginal(self, parry):
        from meandim.information import pattern_log2_prob
        import math as _math
        dist = md.window_marginal(parry, IntRect(0, 2, 0, 1))
        for pat, p in zip(dist.outcomes, dist.probs):
            lp = pattern_log2_prob(parry, pat)
            if p == 0.0:
                assert lp == float("-inf")
            else:
                assert abs(lp - _math.log2(p)) < 1e-9

    def test_outcomes_equal_checked_patterns(self, parry):
        # built without Pattern's check and sort, the outcomes are still
        # the canonical patterns, equal and hash-equal to checked ones
        support = md.LatticeSet([(1, 0), (0, 0), (2, 1), (-1, 2)])
        cells = sorted(support)
        dist = md.window_marginal(parry, support)
        for pat, syms in zip(dist.outcomes, itertools.product("01", repeat=len(cells))):
            checked = md.Pattern(tuple(zip(reversed(cells), reversed(syms))))
            assert pat == checked and hash(pat) == hash(checked)
            assert pat.cells == checked.cells and type(pat.cells) is tuple
        assert len(set(dist.outcomes)) == 2 ** len(cells)

    def test_outcome_guard(self, bern_half):
        with pytest.raises(md.ResourceGuardError):
            md.window_marginal(bern_half, IntRect(0, 10, 0, 10))

    def test_entropy_closed_form_matches_enumeration(self, parry, bern_half):
        for measure in (parry, bern_half):
            for support in (md.row_interval(4), IntRect(0, 3, -1, 1),
                            md.LatticeSet([(0, 0), (2, 0), (3, 0), (0, 2)])):
                enum = md.shannon_entropy(md.window_marginal(measure, support))
                closed = md.window_entropy(measure, support)
                assert abs(enum - closed) < 1e-9


class TestKsEntropy:
    def test_bernoulli(self, bern_half):
        assert md.ks_entropy(bern_half) == 1.0
        m = MeasureSpec.bernoulli(md.alphabet("0", "1"), (0.2, 0.8))
        assert abs(md.ks_entropy(m) - md.binary_entropy(0.2)) < 1e-12

    def test_strip_slope_oracle(self, parry):
        # incremental window entropy per site at N=20, M=1
        H20 = md.window_entropy(parry, IntRect(0, 19, -1, 1))
        H19 = md.window_entropy(parry, IntRect(0, 18, -1, 1))
        assert abs((H20 - H19) / 3 - md.ks_entropy(parry)) < 1e-6


class TestRateDistortionBounds:
    def test_upper_window_arithmetic(self, bern_half):
        assert md.rd_upper_bound(bern_half, 2.0, 3, 10) == 7.5

    def test_upper_decreases_to_strip_entropy(self, bern_half):
        vals = [md.rd_upper_bound(bern_half, 2.0, 3, N) for N in (10, 40, 160, 640)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert abs(vals[-1] - 5.0) < 0.05
        assert md.rd_upper_limit(bern_half, 3) == 5.0

    def test_single_symbol_zero(self):
        m = MeasureSpec.bernoulli(md.alphabet("0"), (1.0,))
        assert md.rd_upper_bound(m, 2.0, 3, 10) == 0.0
        assert float(md.rd_lower_bound(m, 2.0, 0.001, 0.01)) == 0.0

    def test_lemma_values(self):
        got = md.mi_lower_bound_lemma(10, 10, 0.1, 2)
        assert abs(got - (10 - 10 * md.binary_entropy(0.1) - 1.0)) < 1e-12
        assert abs(got - 4.31004) < 1e-5
        # vanishing delta recovers HX
        assert abs(md.mi_lower_bound_lemma(10, 10, 1e-9, 2) - 10) < 1e-6
        with pytest.raises(ValueError):
            md.mi_lower_bound_lemma(10, 10, 0.5, 2)

    def test_lemma_is_a_true_lower_bound(self):
        # random near-diagonal channels on B^N with expected disagreements
        # below delta*N: measured I(X;Y) must exceed the bound
        rng = np.random.default_rng(424242)
        for _ in range(200):
            B = int(rng.integers(2, 4))
            N = int(rng.integers(1, 5))
            delta = float(rng.uniform(0.05, 0.45))
            theta = delta * float(rng.uniform(0.2, 0.9))
            px = rng.random(B) ** 2
            px /= px.sum()
            flip = np.full((B, B), theta / (B - 1))
            np.fill_diagonal(flip, 1 - theta)
            # product construction over N coordinates
            nx = B ** N
            joint = np.zeros((nx, nx))
            for x in range(nx):
                xd = [(x // B ** i) % B for i in range(N)]
                for y in range(nx):
                    yd = [(y // B ** i) % B for i in range(N)]
                    p = 1.0
                    for a, b in zip(xd, yd):
                        p *= px[a] * flip[a, b]
                    joint[x, y] = p
            joint /= joint.sum()
            mism = 0.0
            for x in range(nx):
                xd = [(x // B ** i) % B for i in range(N)]
                for y in range(nx):
                    yd = [(y // B ** i) % B for i in range(N)]
                    mism += joint[x, y] * sum(a != b for a, b in zip(xd, yd))
            assert mism < delta * N
            HX = md.shannon_entropy(
                FiniteDistribution(tuple(range(nx)), tuple(joint.sum(axis=1))))
            bound = md.mi_lower_bound_lemma(HX, N, delta, B)
            assert md.mutual_information_of(joint) > bound - 1e-9

    def test_lower_bracket_examples(self, bern_half):
        r = md.rd_lower_bound(bern_half, 2.0, 0.01 * 2 ** -3, 0.01)
        assert r.M == 3 and abs(float(r) - 6.849207) < 1e-5
        r2 = md.rd_lower_bound(bern_half, 2.0, 0.25 * 2 ** -1, 0.25)
        assert r2.M == 1 and abs(float(r2) - 1.438722) < 1e-5

    def test_lower_bracket_boundaries(self, bern_half):
        # epsilon exactly at delta*alpha^-M must select that M
        for M in range(0, 6):
            r = md.rd_lower_bound(bern_half, 2.0, 0.3 * 2.0 ** -M, 0.3)
            assert r.M == M
        with pytest.raises(ValueError):
            md.rd_lower_bound(bern_half, 2.0, 0.4, 0.3)

    def test_lower_clamped_and_raw(self):
        skew = MeasureSpec.bernoulli(md.alphabet("0", "1"), (0.999, 0.001))
        r = md.rd_lower_bound(skew, 2.0, 0.2 * 0.5, 0.2)
        assert float(r) == 0.0 and r.raw < 0

    def test_rd_lower_below_rd_upper(self, bern_half, parry):
        for measure in (bern_half, parry):
            for k in range(3, 10):
                eps = 0.01 * 2.0 ** -k
                low = md.rd_lower_bound(measure, 2.0, eps, 0.01)
                up = md.rd_upper_bound(measure, 2.0, low.M + 7, 64)
                assert float(low) <= up + 1e-12


class TestRdimBounds:
    def test_bernoulli_alpha2(self, bern_half):
        lo, up = md.rdim_bounds(bern_half, 2.0, *md.default_rdim_schedule(2.0))
        assert abs(up.value - 2.0) < 1e-9
        assert abs(lo.value - 1.98) < 1e-9
        assert all(l <= 2.0 <= u for l, u in zip(lo.sequence, up.sequence))

    def test_bernoulli_alpha4(self, bern_half):
        lo, up = md.rdim_bounds(bern_half, 4.0, *md.default_rdim_schedule(4.0))
        assert abs(up.value - 1.0) < 1e-9
        assert abs(lo.value - 0.99) < 1e-9

    def test_single_symbol(self):
        m = MeasureSpec.bernoulli(md.alphabet("0"), (1.0,))
        lo, up = md.rdim_bounds(m, 2.0, *md.default_rdim_schedule(2.0))
        assert up.value == 0.0 and lo.value == 0.0

    def test_schedule_validation(self, bern_half):
        with pytest.raises(ValueError):
            md.rdim_bounds(bern_half, 2.0, [0.5], [0.01])


def loop_marginal(measure, support):
    """The window marginal as a digit loop over outcome codes, each row's
    joint law tabulated by a second digit loop over its chain factors."""
    rows = {}
    for (m, n) in md.LatticeSet(support):
        rows.setdefault(n, []).append(m)
    cells = sorted((m, n) for n, xs in rows.items() for m in xs)
    q = len(measure.alphabet)
    P, pi = measure.P(), measure.pi()
    per_row = []
    for n, xs in sorted(rows.items()):
        powers = [np.linalg.matrix_power(P, xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]
        table = np.zeros(q ** len(xs))
        for code in range(q ** len(xs)):
            digits = [code // q ** (len(xs) - 1 - i) % q for i in range(len(xs))]
            p = pi[digits[0]]
            for i in range(len(xs) - 1):
                p *= powers[i][digits[i], digits[i + 1]]
            table[code] = p
        per_row.append((n, xs, table))
    outcomes, probs = [], []
    for code in range(q ** len(cells)):
        digits = [code // q ** (len(cells) - 1 - i) % q for i in range(len(cells))]
        assign = dict(zip(cells, digits))
        p = 1.0
        for n, xs, table in per_row:
            idx = 0
            for x in xs:
                idx = idx * q + assign[(x, n)]
            p *= table[idx]
        outcomes.append(md.Pattern(tuple((c, measure.alphabet[assign[c]]) for c in cells)))
        probs.append(p)
    total = sum(probs)
    return tuple(outcomes), tuple(p / total for p in probs)


def random_support(rng, ncells):
    """ncells distinct cells of a 6x3 box, so most rows have gaps."""
    box = [(m, n) for m in range(6) for n in range(3)]
    return md.LatticeSet(box[i] for i in rng.choice(len(box), ncells, replace=False))


class TestOneChainPath:
    """A Bernoulli measure runs the row-chain code with P's rows all equal
    to its weights; its closed forms are kept here as oracles."""

    @pytest.mark.parametrize("seed", range(8))
    def test_bernoulli_closed_forms(self, seed):
        rng = np.random.default_rng(seed)
        q = 2 + seed % 2
        w = rng.random(q)
        if seed % 4 == 3:
            w[rng.integers(q)] = 0.0
        w /= w.sum()
        m = MeasureSpec.bernoulli(md.alphabet(*map(str, range(q))), w)
        w = m.pi()
        assert np.array_equal(m.P(), np.array([w] * q))
        h = -sum(x * math.log2(x) for x in w if x > 0)
        assert abs(md.ks_entropy(m) - h) < 1e-12
        for ncells in (1, 3, 5, 7):
            support = random_support(rng, ncells)
            dist = md.window_marginal(m, support)
            for pat, p in zip(dist.outcomes, dist.probs):
                product = math.prod(w[m.alphabet.index(s)] for _, s in pat.cells)
                assert abs(p - product) < 1e-12
                lp = md.information.pattern_log2_prob(m, pat)
                if product == 0.0:
                    assert lp == float("-inf")
                else:
                    assert abs(lp - sum(math.log2(w[m.alphabet.index(s)])
                                        for _, s in pat.cells)) < 1e-12
            assert abs(md.window_entropy(m, support) - ncells * h) < 1e-12
            assert abs(md.max_cylinder_log2_prob(m, support)
                       - ncells * math.log2(w.max())) < 1e-12

    def test_marginal_matches_digit_loop_bit_for_bit(self, parry):
        rng = np.random.default_rng(7)
        measures = [parry]
        for q in (2, 3, 3):
            P = rng.random((q, q)) * (rng.random((q, q)) > 0.2)
            P[:, 0] += 0.05  # every row keeps some mass
            measures.append(MeasureSpec.markov_row(md.alphabet(*map(str, range(q))),
                                                   P / P.sum(axis=1, keepdims=True)))
        for m in measures:
            supports = [md.norm_ball(1), md.norm_ball(2, "l2"),
                        md.LatticeSet.from_rect(IntRect(0, 3, 0, 1)),
                        md.bowen_window(md.ActionSpec(3, 0), 3, 1)]
            supports += [random_support(rng, k) for k in (2, 4, 6)]
            for support in supports:
                if len(m.alphabet) ** len(support) > 1 << 14:
                    continue
                outcomes, probs = loop_marginal(m, support)
                dist = md.window_marginal(m, support)
                assert dist.outcomes == outcomes
                assert np.array_equal(np.array(dist.probs).view(np.int64),
                                      np.array(probs).view(np.int64))


# The four chain readers as they were when each formed its own matrix
# powers, kept as oracles for the shared chain-step helper.


def old_rows_of(support):
    if isinstance(support, IntRect):
        support = md.LatticeSet.from_rect(support)
    elif not isinstance(support, md.LatticeSet):
        support = md.LatticeSet(support)
    rows = {}
    for (m, n) in support:
        rows.setdefault(n, []).append(m)
    for xs in rows.values():
        xs.sort()
    return rows


def old_pattern_log2_prob(measure, pattern):
    rows = {}
    for (m, n), sym in pattern.cells:
        rows.setdefault(n, []).append((m, measure.alphabet.index(sym)))
    total = 0.0
    P, pi = measure.P(), measure.pi()
    for cells in rows.values():
        cells.sort()
        (x0, s0) = cells[0]
        if pi[s0] <= 0:
            return float("-inf")
        total += math.log2(pi[s0])
        prev_x, prev_s = x0, s0
        for (x, s) in cells[1:]:
            pg = np.linalg.matrix_power(P, x - prev_x)[prev_s, s]
            if pg <= 0:
                return float("-inf")
            total += math.log2(pg)
            prev_x, prev_s = x, s
    return total


def old_window_entropy(measure, support):
    rows = old_rows_of(support)
    P, pi = measure.P(), measure.pi()
    total = 0.0
    cond_cache = {}

    def cond_entropy(gap):
        if gap not in cond_cache:
            Q = np.linalg.matrix_power(P, gap)
            cond_cache[gap] = float(sum(pi[i] * md.information.entropy_bits(Q[i])
                                        for i in range(len(pi))))
        return cond_cache[gap]

    h_pi = md.information.entropy_bits(pi)
    for xs in rows.values():
        total += h_pi
        for i in range(len(xs) - 1):
            total += cond_entropy(xs[i + 1] - xs[i])
    return total


def old_ks_entropy(measure):
    P, pi = measure.P(), measure.pi()
    return float(sum(pi[i] * md.information.entropy_bits(P[i]) for i in range(len(pi))))


def old_max_cylinder_log2_prob(measure, support):
    rows = old_rows_of(support)
    P, pi = measure.P(), measure.pi()
    with np.errstate(divide="ignore"):
        logP = np.log2(P)
        logpi = np.log2(pi)
    best_cache = {}
    total = 0.0
    for xs in sorted(rows.values(), key=tuple):
        gaps = tuple(xs[i + 1] - xs[i] for i in range(len(xs) - 1))
        if gaps not in best_cache:
            vec = logpi.copy()
            for g in gaps:
                if g == 1:
                    step = logP
                else:
                    with np.errstate(divide="ignore"):
                        step = np.log2(np.linalg.matrix_power(P, g))
                vec = np.maximum.reduce(vec[:, None] + step)
            best_cache[gaps] = float(np.maximum.reduce(vec))
        total += best_cache[gaps]
    return total


def same_bits(a, b):
    return np.array(a).view(np.int64) == np.array(b).view(np.int64)


class TestChainSteps:
    """Every chain reader goes through one helper for P^g and log2 P^g and
    returns the same bits as when each formed its own powers."""

    def measures(self, fixtures_dir):
        out = [md.parse_measure(fixtures_dir / f"{name}.measure")
               for name in ("bern12", "parry_golden")]
        rng = np.random.default_rng(12)
        for q in (2, 3, 3, 4):
            P = rng.random((q, q)) * (rng.random((q, q)) > 0.3)
            P[:, q - 1] += 0.02  # every row keeps some mass
            out.append(MeasureSpec.markov_row(md.alphabet(*map(str, range(q))),
                                              P / P.sum(axis=1, keepdims=True)))
        w = rng.random(3)
        w[1] = 0.0
        out.append(MeasureSpec.bernoulli(md.alphabet("a", "b", "c"), w / w.sum()))
        return out

    def supports(self, rng):
        out = [IntRect(0, 7, 0, 2), IntRect(-3, 40, -2, 1), IntRect(5, 5, 3, 3),
               md.bowen_window(md.ActionSpec(1, 0), 12, 3),
               md.bowen_window(md.ActionSpec(2, 1), 5, 2), md.norm_ball(3, "l2")]
        for _ in range(6):
            pts = {(int(m), int(n)) for m, n in rng.integers(-6, 12, (20, 2))}
            out.append(md.LatticeSet(pts))
        return out

    def test_same_bits_as_separate_powers(self, fixtures_dir):
        rng = np.random.default_rng(5)
        supports = self.supports(rng)
        for m in self.measures(fixtures_dir):
            assert same_bits(md.ks_entropy(m), old_ks_entropy(m))
            for support in supports:
                assert same_bits(md.window_entropy(m, support),
                                 old_window_entropy(m, support))
                assert same_bits(md.max_cylinder_log2_prob(m, support),
                                 old_max_cylinder_log2_prob(m, support))
                pts = sorted(md.LatticeSet(support.points()) if isinstance(support, IntRect)
                             else support)
                syms = m.alphabet.symbols
                for _ in range(5):
                    pat = md.Pattern(tuple((pt, syms[rng.integers(len(syms))])
                                           for pt in pts))
                    assert same_bits(md.information.pattern_log2_prob(m, pat),
                                     old_pattern_log2_prob(m, pat))

    def test_one_place_forms_the_powers(self, monkeypatch):
        # with the helper's powers replaced by their transposes, every reader
        # changes its answer on a chain that is not reversible
        P = [[0.7, 0.2, 0.1], [0.1, 0.3, 0.6], [0.5, 0.1, 0.4]]
        m = MeasureSpec.markov_row(md.alphabet("0", "1", "2"), P)
        support = md.LatticeSet([(0, 0), (1, 0), (3, 0), (0, 1), (4, 1)])
        pat = md.Pattern(tuple(zip(sorted(support), "01220")))
        readers = [lambda: md.ks_entropy(m),
                   lambda: md.window_entropy(m, support),
                   lambda: md.max_cylinder_log2_prob(m, support),
                   lambda: md.information.pattern_log2_prob(m, pat),
                   lambda: md.window_marginal(m, support).probs]
        before = [f() for f in readers]
        steps = md.information._chain_steps
        monkeypatch.setattr(md.information, "_chain_steps",
                            lambda *a, **k: {g: Q.T for g, Q in steps(*a, **k).items()})
        after = [f() for f in readers]
        assert all(a != b for a, b in zip(before, after))


class TestOutcomeGuards:
    def test_marginal_refused_before_work(self, bern_half, monkeypatch):
        from meandim.information import MAX_MARGINAL_OUTCOMES
        assert MAX_MARGINAL_OUTCOMES == 1 << 16
        monkeypatch.setattr(md.information, "_chain_steps", None)  # never reached
        with pytest.raises(md.ResourceGuardError, match="MAX_MARGINAL_OUTCOMES"):
            md.window_marginal(bern_half, md.row_interval(17))

    def test_window_problem_refused_before_the_marginal(self, bern_half, monkeypatch):
        from meandim.ratedistortion import MAX_PROBLEM_OUTCOMES
        assert MAX_PROBLEM_OUTCOMES == 4096
        monkeypatch.setattr("meandim.ratedistortion.window_marginal", None)
        # 25 cells at depth 3, 13 on the depth-3 Euclidean ball
        for M, norm in ((3, "linf"), (3, "l2")):
            with pytest.raises(md.ResourceGuardError, match="MAX_PROBLEM_OUTCOMES"):
                md.rd_problem_from_measure(bern_half, 2.0, M, norm)
