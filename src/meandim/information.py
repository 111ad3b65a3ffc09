"""Shift-invariant measures, entropies, mutual information and the
finite-scale rate-distortion bounds.

A measure, invariant under the full Z^2 shift action, is stored as one
stationary 1D Markov chain whose independent copies are its rows; a
Bernoulli measure (iid sites) is the rank-one chain whose transition
rows all equal its weights.  Every computation reads a measure only
through ``P()`` and ``pi()``: window marginals are outer products of
per-row chain laws, and entropies follow from the chain rule.  The
rate-distortion bounds combine them with a resolution bracket and the
binary-entropy penalty term.  All information quantities are in bits.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ResourceGuardError
from .estimates import DimensionEstimate, check_alpha, fit_limit, resolution_depth
from .lattice import IntRect, LatticeSet
from .subshift import (Alphabet, Pattern, SftSpec, perron_eigendata,
                       strongly_connected, transfer_graph_1d)

SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10


def entropy_bits(probs: np.ndarray) -> float:
    """-sum p log2 p with the 0 log 0 = 0 convention."""
    p = np.asarray(probs, dtype=float).ravel()
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


@dataclass(frozen=True)
class FiniteDistribution:
    """A probability vector over an ordered outcome list."""

    outcomes: tuple
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.outcomes) != len(self.probs):
            raise ValueError("outcomes and probabilities differ in length")
        p = np.asarray(self.probs, float)
        if (p < -SUM_TOL).any():
            raise ValueError("negative probability")
        if abs(p.sum() - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")

    def prob_array(self) -> np.ndarray:
        return np.asarray(self.probs, float)


def binary_entropy(delta: float) -> float:
    """H(delta) in bits; symmetric about 1/2, zero at the endpoints."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"binary_entropy needs delta in [0, 1], got {delta}")
    if delta in (0.0, 1.0):
        return 0.0
    return float(-delta * math.log2(delta) - (1 - delta) * math.log2(1 - delta))


@dataclass(frozen=True)
class JointDistribution:
    """A joint law over pairs, stored as a matrix of cell masses."""

    matrix: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        m = self.matrix_array()
        if m.ndim != 2:
            raise ValueError("joint matrix must be 2D")
        if (m < -SUM_TOL).any():
            raise ValueError("negative joint mass")
        if abs(m.sum() - 1.0) > SUM_TOL:
            raise ValueError(f"joint mass is {m.sum()}, not 1")

    @classmethod
    def from_array(cls, arr) -> "JointDistribution":
        a = np.asarray(arr, float)
        return cls(tuple(tuple(row) for row in a))

    def matrix_array(self) -> np.ndarray:
        return np.asarray(self.matrix, float)


def mutual_information(joint: JointDistribution) -> float:
    """I(X;Y) = H(X) + H(Y) - H(X,Y), in bits."""
    m = joint.matrix_array()
    return entropy_bits(m.sum(axis=1)) + entropy_bits(m.sum(axis=0)) - entropy_bits(m)


def mutual_information_of(matrix) -> float:
    return mutual_information(JointDistribution.from_array(matrix))


# ---------------------------------------------------------------------------
# measure generators
# ---------------------------------------------------------------------------


def _stationary_of(P: np.ndarray) -> np.ndarray:
    """Stationary row vector of a stochastic matrix, by a direct solve."""
    n = P.shape[0]
    A = np.vstack([P.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    return pi


@dataclass(frozen=True)
class MeasureSpec:
    """A shift-invariant measure on A^(Z^2) whose rows are independent
    copies of one stationary Markov chain, with transition matrix
    ``transition`` and stationary vector ``stationary``; ``P()`` and
    ``pi()`` read them as arrays.  A Bernoulli measure (iid sites) is
    stored as its rank-one chain: every transition row, and the
    stationary vector, equal its weights.
    """

    alphabet: Alphabet
    transition: tuple[tuple[float, ...], ...]
    stationary: tuple[float, ...]

    def __post_init__(self):
        q = len(self.alphabet)
        P = self.P()
        if P.shape != (q, q):
            raise ValueError(f"transition matrix must be {q}x{q}")
        if (P < -SUM_TOL).any():
            raise ValueError("negative transition probability")
        if np.abs(P.sum(axis=1) - 1.0).max() > SUM_TOL:
            raise ValueError("transition rows must sum to 1")
        pi = self.pi()
        if pi.shape != (q,) or (pi < -SUM_TOL).any() or abs(pi.sum() - 1.0) > SUM_TOL:
            raise ValueError("stationary vector must be a distribution")
        if np.abs(pi @ P - pi).max() > STATIONARY_TOL:
            raise ValueError("stationary vector does not satisfy pi P = pi")

    @classmethod
    def bernoulli(cls, alph: Alphabet, weights: Sequence[float]) -> "MeasureSpec":
        w = tuple(float(x) for x in weights)
        if len(w) != len(alph):
            raise ValueError("bernoulli measure needs one weight per symbol")
        if min(w) < -SUM_TOL or abs(np.sum(w) - 1.0) > SUM_TOL:
            raise ValueError("weights must be nonnegative and sum to 1")
        return cls(alph, (w,) * len(w), w)

    @classmethod
    def markov_row(cls, alph: Alphabet, transition, stationary=None) -> "MeasureSpec":
        P = np.asarray(transition, float)
        if stationary is None:
            stationary = _stationary_of(P)
        return cls(alph, tuple(tuple(float(x) for x in row) for row in P),
                   tuple(float(x) for x in np.asarray(stationary, float)))

    def P(self) -> np.ndarray:
        return np.asarray(self.transition, float)

    def pi(self) -> np.ndarray:
        return np.asarray(self.stationary, float)


def parry_measure(sft: SftSpec) -> MeasureSpec:
    """Maximal-entropy Markov measure of an irreducible nearest-neighbour
    1D SFT, from the Perron eigendata of its transition graph."""
    if sft.dimension != 1:
        raise ValueError("parry_measure expects a 1D spec")
    nodes, T = transfer_graph_1d(sft)
    if not nodes or len(nodes[0]) != 1:
        raise ValueError("parry_measure needs a nearest-neighbour presentation "
                         "(forbidden words of width at most 2)")
    if not strongly_connected(T):
        raise ValueError("parry_measure needs an irreducible transition graph")
    lam, v, u = perron_eigendata(T)
    q = len(sft.alphabet)
    node_syms = [w[0] for w in nodes]
    P = np.zeros((q, q))
    pi = np.zeros(q)
    for i, si in enumerate(node_syms):
        ii = sft.alphabet.index(si)
        for j, sj in enumerate(node_syms):
            jj = sft.alphabet.index(sj)
            if T[i, j]:
                P[ii, jj] = v[j] / (lam * v[i])
        pi[ii] = u[i] * v[i]
    # Symbols killed by single-cell forbidden words keep zero mass; give
    # their transition rows a point mass so the matrix stays stochastic.
    for i in range(q):
        if P[i].sum() == 0:
            P[i, i] = 1.0
    pi /= pi.sum()
    return MeasureSpec.markov_row(sft.alphabet, P, pi)


# ---------------------------------------------------------------------------
# window marginals and entropies
# ---------------------------------------------------------------------------


def _rows_of(support) -> dict[int, list[int]]:
    """Group the support by row: {n: sorted column positions}, the rows
    ordered by (first column, n), the order in which the readers sum."""
    rows = {n: [m for lo, hi in runs for m in range(lo, hi + 1)]
            for n0, n1, runs in LatticeSet.of(support).bands for n in range(n0, n1 + 1)}
    return dict(sorted(rows.items(), key=lambda row: (row[1][0], row[0])))


def _chain_steps(measure: MeasureSpec, rows, log: bool = False) -> dict[int, np.ndarray]:
    """{g: P^g}, or {g: log2 P^g} with log2 0 = -inf, for every gap g
    between neighbouring cells of ``rows`` (sorted column lists): the one
    place the row chain's gap transitions are formed."""
    P = measure.P()
    gaps = {g for xs in set(map(tuple, rows)) for g in map(operator.sub, xs[1:], xs)}
    steps = {g: np.linalg.matrix_power(P, g) for g in gaps}
    if log:
        with np.errstate(divide="ignore"):
            steps = {g: np.log2(Q) for g, Q in steps.items()}
    return steps


def _cond_entropy(pi: np.ndarray, Q: np.ndarray) -> float:
    """H(X_g | X_0) in bits for X_0 ~ pi and the g-step transition Q."""
    return float(sum(pi[i] * entropy_bits(Q[i]) for i in range(len(pi))))


def pattern_log2_prob(measure: MeasureSpec, pattern: Pattern) -> float:
    """log2 of the cylinder mass of a fixed finite pattern (-inf if zero)."""
    sym = dict(pattern.cells)
    rows = _rows_of(sym)
    steps = _chain_steps(measure, rows.values())
    pi = measure.pi()
    total = 0.0
    for n, xs in rows.items():
        s = [measure.alphabet.index(sym[(x, n)]) for x in xs]
        for p in [pi[s[0]]] + [steps[b - a][u, v]
                               for a, b, u, v in zip(xs, xs[1:], s, s[1:])]:
            if p <= 0:
                return float("-inf")
            total += math.log2(p)
    return total


def check_support(measure: MeasureSpec, sft: SftSpec) -> None:
    """Raise ValueError unless the measure gives mass zero to every
    forbidden pattern of the SFT."""
    if measure.alphabet.symbols != sft.alphabet.symbols:
        raise ValueError("measure and SFT use different alphabets")
    for f in sft.forbidden:
        if pattern_log2_prob(measure, f) != float("-inf"):
            raise ValueError(
                "measure puts positive mass on a forbidden pattern; "
                "it is not supported on this subshift")


# outcomes of the largest window marginal, refused before any work
MAX_MARGINAL_OUTCOMES = 1 << 16


def window_marginal(measure: MeasureSpec, support) -> FiniteDistribution:
    """Exact marginal law of the pattern seen on a finite support.

    Outcomes are Patterns in canonical enumeration order: the symbol
    indices of outcome k, cells sorted, are the base-q digits of k.  Rows
    are independent copies of the stationary row chain, so the law is the
    outer product of the per-row laws pi(s0) P^g1(s0, s1) ..., gaps g
    bridged by matrix powers; for a Bernoulli measure's rank-one chain
    this is the product law.
    """
    rows = _rows_of(support)
    cells = sorted((m, n) for n, xs in rows.items() for m in xs)
    q = len(measure.alphabet)
    n_out = q ** len(cells)
    if n_out > MAX_MARGINAL_OUTCOMES:
        raise ResourceGuardError(
            f"window marginal would have {n_out} outcomes, above the guard "
            f"MAX_MARGINAL_OUTCOMES = {MAX_MARGINAL_OUTCOMES}")

    steps = _chain_steps(measure, rows.values())
    law = np.ones(())
    row_cells = []
    for n, xs in sorted(rows.items()):
        row = measure.pi()
        for a, b in zip(xs, xs[1:]):
            row = row[..., :, None] * steps[b - a]
        law = np.multiply.outer(law, row)
        row_cells += [(m, n) for m in xs]
    # one axis per cell in row order; canonical order puts the first cell
    # most significant
    axis = {cell: i for i, cell in enumerate(row_cells)}
    probs = law.transpose([axis[cell] for cell in cells]).ravel()
    total = sum(probs.tolist())
    if total > 0:
        probs = probs / total
    # the cells are sorted and product emits symbols in their order, so
    # every outcome is already canonical
    outcomes = tuple(Pattern._canonical(tuple(zip(cells, syms)))
                     for syms in itertools.product(measure.alphabet.symbols,
                                                   repeat=len(cells)))
    return FiniteDistribution(outcomes, tuple(probs.tolist()))


def window_entropy(measure: MeasureSpec, support) -> float:
    """Exact entropy in bits of the window marginal, via the chain rule:
    per row, H(pi) plus one conditional-entropy term per gap between
    visible cells (for a Bernoulli measure each term is H(weights)).
    """
    rows = _rows_of(support)
    pi = measure.pi()
    cond = {g: _cond_entropy(pi, Q)
            for g, Q in _chain_steps(measure, rows.values()).items()}
    h_pi = entropy_bits(pi)
    total = 0.0
    for xs in rows.values():
        total += h_pi
        for a, b in zip(xs, xs[1:]):
            total += cond[b - a]
    return total


class _RowChain:
    """What the chain readers reuse of one measure's row chain: log2 pi,
    the columns of the log2 step matrices {g: log2 P^g} formed so far, the
    entropy rate, and the max-plus DP along unit gaps, ``best[L - 1]``
    being the largest log2 mass of a contiguous row of L cells and ``vec``
    the DP vector at the longest L reached.  Each value is formed by the
    same operations in the same order as a fresh DP from log2 pi, so a warm
    read gives the bits of a cold one."""

    def __init__(self, measure: MeasureSpec):
        self.measure = measure
        with np.errstate(divide="ignore"):
            self.logpi = np.log2(measure.pi()).tolist()
        self.log_cols: dict[int, list[list[float]]] = {}
        self.vec = self.logpi
        self.best = [max(self.vec)]

    @functools.cached_property
    def rate(self) -> float:
        return _cond_entropy(self.measure.pi(), _chain_steps(self.measure, [(0, 1)])[1])

    def cols(self, gaps) -> dict[int, list[list[float]]]:
        """{g: the columns of log2 P^g}, with every gap of ``gaps`` formed."""
        missing = set(gaps) - self.log_cols.keys()
        if missing:
            self.log_cols.update((g, step.T.tolist()) for g, step in _chain_steps(
                self.measure, [(0, g) for g in missing], log=True).items())
        return self.log_cols

    def contiguous(self, length: int) -> float:
        """The largest log2 mass of a row of ``length`` adjacent cells; the
        DP is stepped only past the longest length reached so far."""
        if length > len(self.best):
            cols = self.cols({1})[1]
            vec = self.vec
            for _ in range(length - len(self.best)):
                vec = _max_plus(vec, cols)
                self.best.append(max(vec))
            self.vec = vec
        return self.best[length - 1]


def _max_plus(vec: list[float], cols: list[list[float]]) -> list[float]:
    """One max-plus step in Python floats: entry j is the largest vec[i] +
    log2 P^g(i, j), ``cols`` being the columns of log2 P^g.  Each term is
    one IEEE sum and the maximum is exact, so the bits are those of the
    same step in numpy, without its two calls' overhead on a q-vector."""
    return [max([v + s for v, s in zip(vec, col)]) for col in cols]


# one _RowChain per measure, kept for the life of the process
_row_chain = functools.cache(_RowChain)


def ks_entropy(measure: MeasureSpec) -> float:
    """Entropy per site in bits: the entropy rate of the row chain,
    the conditional entropy of one gap-1 step (H(weights) for a Bernoulli
    measure).

    The rate is formed once per measure and kept in the measure's
    row-chain cache (see ``max_cylinder_log2_prob``), so ``rdim_bounds``
    forms the gap-1 step once however many scales it reads.
    """
    return _row_chain(measure).rate


def _row_key(runs) -> tuple:
    """A key that orders rows as their sorted column lists do, read from
    their runs.  At the first run where two rows differ, the smaller lo
    comes first; with equal lo, a row that ends there comes before one
    that goes on, and of two that go on, the longer run comes first, its
    next column hi + 1 being smaller than the other's next start."""
    *inner, (lo, hi) = runs
    return tuple(x for a, b in inner for x in (a, 1, -b)) + (lo, 0, hi)


def max_cylinder_log2_prob(measure: MeasureSpec, support) -> float:
    """log2 of the largest cylinder mass over patterns on ``support``.

    Per-row max-plus dynamic programming over the row chain, read from
    the support's bands without listing their columns.  A row of adjacent
    cells takes its value from the measure's row-chain cache
    (``_row_chain``, one per measure for the life of the process).  It
    holds log2 pi, the log2 step matrices, the entropy rate and the DP
    along unit gaps: one float per contiguous length reached plus one
    q-vector, no more than the column lists of the rows it has seen.  A
    row with a wider gap runs its DP from log2 pi, once per run pattern.
    Row values are added in the order of the rows' sorted column lists.
    """
    chain = _row_chain(measure)
    gapped: dict[tuple[tuple[int, int], ...], float] = {}
    rows = []
    for n0, n1, runs in LatticeSet.of(support).bands:
        if len(runs) == 1:
            value = chain.contiguous(runs[0][1] - runs[0][0] + 1)
        else:
            # (gap, repeats) pairs along the row: b - a unit gaps inside a
            # run (a, b), then one gap to the next run's start
            shape = tuple((g, k) for (a, b), (c, _) in zip(runs, runs[1:])
                          for g, k in ((1, b - a), (c - b, 1)) if k)
            shape += ((1, runs[-1][1] - runs[-1][0]),)
            if shape not in gapped:
                log_cols = chain.cols(g for g, _ in shape)
                vec = chain.logpi
                for g, k in shape:
                    for _ in range(k):
                        vec = _max_plus(vec, log_cols[g])
                gapped[shape] = max(vec)
            value = gapped[shape]
        rows.append((_row_key(runs), value, n1 - n0 + 1))
    total = 0.0
    for _, value, count in sorted(rows):
        for _ in range(count):
            total += value
    return total


# ---------------------------------------------------------------------------
# rate-distortion bounds
# ---------------------------------------------------------------------------


def rd_upper_bound(measure: MeasureSpec, alpha: float, M: int, N: int) -> float:
    """Entropy of the window (-M, N+M) x (-M, M) divided by N, in bits per
    iterate.  Upper-bounds the rate-distortion function at every
    distortion level above alpha^-M."""
    check_alpha(alpha)
    if M < 1 or N < 1:
        raise ValueError("M and N must be positive")
    window = IntRect(-M + 1, N + M - 1, -M + 1, M - 1)
    return window_entropy(measure, window) / N


def rd_upper_limit(measure: MeasureSpec, M: int) -> float:
    """Large-N limit of rd_upper_bound: (2M-1) rows times the per-site
    entropy (exact for every row-chain measure)."""
    return (2 * M - 1) * ks_entropy(measure)


def mi_lower_bound_lemma(HX: float, N: int, delta: float, Bsize: int) -> float:
    """Lower bound HX - N H(delta) - delta N log2 |B| on the mutual
    information between two B^N-valued variables whose expected number of
    disagreeing coordinates is below delta*N.  May be negative; callers
    clamp."""
    if not 0 < delta < 0.5:
        raise ValueError("the lemma needs 0 < delta < 1/2")
    if N < 1 or Bsize < 1:
        raise ValueError("N and Bsize must be positive")
    return HX - N * binary_entropy(delta) - delta * N * math.log2(Bsize)


class RdLowerBound(NamedTuple):
    """rd_lower_bound's bound ``value`` clamped at 0, ``raw`` unclamped, at strip ``M``."""

    value: float
    raw: float
    M: int


def rd_lower_bound(measure: MeasureSpec, alpha: float, epsilon: float,
                   delta: float) -> RdLowerBound:
    """Lower bound on the rate-distortion function at distortion epsilon.

    Uses the strip of half-height M from the bracket
    delta*alpha^-(M+1) < epsilon <= delta*alpha^-M, one strip pattern read
    as one symbol of A^(2M+1) in ``mi_lower_bound_lemma``:
    (2M+1) * per-site entropy - H(delta) - delta log2 |A|^(2M+1),
    clamped at zero in ``.value`` (the raw value stays available as ``.raw``).
    """
    if not 0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    # the smallest M >= 0 with delta * alpha^-(M+1) < epsilon
    M = resolution_depth(alpha, epsilon, delta) - 1
    width = 2 * M + 1
    raw = mi_lower_bound_lemma(width * ks_entropy(measure), 1, delta,
                               len(measure.alphabet) ** width)
    return RdLowerBound(max(raw, 0.0), raw, M)


def default_rdim_schedule(alpha: float, k_range: Iterable[int] = range(8, 17),
                          delta: float = 0.01):
    """Distortion schedule eps_k = alpha^-k with a fixed small delta.

    Every eps_k must lie in (0, delta], where the strip lower bound is
    defined; the schedule is checked here, before any bound is computed,
    and a refusal names the CLI flags (``--alpha``, ``--delta``) that set
    alpha and delta.
    """
    check_alpha(alpha)
    if not 0 < delta < 0.5:
        raise ValueError(f"--delta must lie in (0, 1/2), got {delta}")
    k_range = list(k_range)
    if min(k_range, default=1) < 1:
        raise ValueError(f"scale indices k must be at least 1, got {min(k_range)}")
    eps = [alpha ** (-k) for k in k_range]
    for k, e in zip(k_range, eps):
        if not 0 < e <= delta:
            raise ValueError(f"at scale k = {k}, eps = alpha^-k = {e:.6g} lies outside "
                             f"(0, delta] for --alpha {alpha} and --delta {delta}")
    return eps, [delta] * len(eps)


def rdim_bounds(measure: MeasureSpec, alpha: float, eps_schedule,
                delta_schedule) -> tuple[DimensionEstimate, DimensionEstimate]:
    """Finite-scale sandwich for the rate-distortion dimension.

    For each scheduled distortion eps the upper sequence is the large-N
    limit of the strip-entropy bound over log2(1/eps) and the lower
    sequence is rd_lower_bound over log2(1/eps).  Both are extrapolated
    linearly in 1/log2(1/eps).  With a fixed delta the lower limit is
    2*(h - delta log2|A|)/log2(alpha), i.e. sits below the upper limit
    2h/log2(alpha) by ``rdim_delta_bias``.
    """
    eps_schedule = list(eps_schedule)
    delta_schedule = list(delta_schedule)
    if len(eps_schedule) != len(delta_schedule):
        raise ValueError("epsilon and delta schedules differ in length")
    if len(eps_schedule) < 2:
        raise ValueError("need at least two scheduled scales")
    check_alpha(alpha)
    for eps in eps_schedule:
        if not 0 < eps < 1:
            raise ValueError(f"every scheduled eps must lie in (0, 1), got {eps}")
    uppers = []
    lowers = []
    xs = []
    sched = []
    for eps, delta in zip(eps_schedule, delta_schedule):
        log_inv = math.log2(1.0 / eps)
        Mu = resolution_depth(alpha, eps)
        up = rd_upper_limit(measure, Mu) / log_inv
        low = rd_lower_bound(measure, alpha, eps, delta).value / log_inv
        xs.append(1.0 / log_inv)
        uppers.append(up)
        lowers.append(low)
        sched.append((eps, delta, Mu))
    u_inf, uc = fit_limit(xs, uppers)
    l_inf, lc = fit_limit(xs, lowers)
    model = "v = v_inf + c/log2(1/eps)"
    upper = DimensionEstimate(u_inf, "upper-bound", tuple(sched), tuple(uppers),
                              model, (u_inf, uc))
    lower = DimensionEstimate(l_inf, "lower-bound", tuple(sched), tuple(lowers),
                              model, (l_inf, lc))
    return lower, upper


def rdim_delta_bias(measure: MeasureSpec, alpha: float, delta: float) -> float:
    """2 delta log2|A| / log2 alpha: how far the lower limit of
    ``rdim_bounds`` sits below the upper one at a fixed delta."""
    return 2 * delta * math.log2(len(measure.alphabet)) / math.log2(alpha)
