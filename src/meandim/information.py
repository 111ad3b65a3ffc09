"""Shift-invariant measures, entropies, mutual information and the
finite-scale rate-distortion bounds.

Measures come in two generator families, both invariant under the full
Z^2 shift action: ``markov-row`` (rows are independent copies of one
stationary 1D Markov chain) and Bernoulli (iid sites), which is the
rank-one row chain whose transition rows all equal its weights.  Every
computation reads a measure only through ``P()`` and ``pi()``, so both
families share one code path: window marginals are outer products of
per-row chain laws, and entropies follow from the chain rule.  The
rate-distortion bounds combine them with a resolution bracket and the
binary-entropy penalty term.  All information quantities are in bits.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

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


def shannon_entropy(dist: FiniteDistribution) -> float:
    """Entropy of a finite distribution in bits."""
    return entropy_bits(dist.prob_array())


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
    """A shift-invariant measure generator on A^(Z^2).

    kind "bernoulli": iid sites with the given symbol weights.
    kind "markov-row": each row an independent stationary Markov chain
    with transition matrix ``transition`` and stationary vector
    ``stationary`` (rows are iid copies).

    ``P()`` and ``pi()`` give the row chain of either kind; a bernoulli
    measure is the chain whose transition rows all equal its weights.
    The kind is a label for validation and the file format only.
    """

    kind: str
    alphabet: Alphabet
    weights: tuple[float, ...] | None = None
    transition: tuple[tuple[float, ...], ...] | None = None
    stationary: tuple[float, ...] | None = None

    def __post_init__(self):
        q = len(self.alphabet)
        if self.kind == "bernoulli":
            if self.weights is None or len(self.weights) != q:
                raise ValueError("bernoulli measure needs one weight per symbol")
            w = np.asarray(self.weights, float)
            if (w < -SUM_TOL).any() or abs(w.sum() - 1.0) > SUM_TOL:
                raise ValueError("weights must be nonnegative and sum to 1")
        elif self.kind == "markov-row":
            if self.transition is None:
                raise ValueError("markov-row measure needs a transition matrix")
            P = np.asarray(self.transition, float)
            if P.shape != (q, q):
                raise ValueError(f"transition matrix must be {q}x{q}")
            if (P < -SUM_TOL).any():
                raise ValueError("negative transition probability")
            if np.abs(P.sum(axis=1) - 1.0).max() > SUM_TOL:
                raise ValueError("transition rows must sum to 1")
            if self.stationary is None:
                raise ValueError("markov-row measure needs its stationary vector")
            pi = np.asarray(self.stationary, float)
            if pi.shape != (q,) or (pi < -SUM_TOL).any() or abs(pi.sum() - 1.0) > SUM_TOL:
                raise ValueError("stationary vector must be a distribution")
            if np.abs(pi @ P - pi).max() > STATIONARY_TOL:
                raise ValueError("stationary vector does not satisfy pi P = pi")
        else:
            raise ValueError(f"unknown measure kind {self.kind!r}")

    @classmethod
    def bernoulli(cls, alph: Alphabet, weights: Sequence[float]) -> "MeasureSpec":
        return cls("bernoulli", alph, weights=tuple(float(w) for w in weights))

    @classmethod
    def markov_row(cls, alph: Alphabet, transition, stationary=None) -> "MeasureSpec":
        P = np.asarray(transition, float)
        if stationary is None:
            stationary = _stationary_of(P)
        return cls("markov-row", alph,
                   transition=tuple(tuple(float(x) for x in row) for row in P),
                   stationary=tuple(float(x) for x in np.asarray(stationary, float)))

    def P(self) -> np.ndarray:
        if self.kind == "bernoulli":
            return np.tile(self.pi(), (len(self.alphabet), 1))
        return np.asarray(self.transition, float)

    def pi(self) -> np.ndarray:
        if self.kind == "bernoulli":
            return np.asarray(self.weights, float)
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
    """Group the support by row: {n: sorted column positions}."""
    if isinstance(support, IntRect):
        return {n: list(range(support.a, support.b + 1))
                for n in range(support.c, support.d + 1)}
    if not isinstance(support, LatticeSet):
        support = LatticeSet(support)
    rows: dict[int, list[int]] = {}
    for (m, n) in support:
        rows.setdefault(n, []).append(m)
    return rows


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
    outcomes = tuple(Pattern(tuple(zip(cells, syms)))
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


def ks_entropy(measure: MeasureSpec) -> float:
    """Entropy per site in bits: the entropy rate of the row chain,
    the conditional entropy of one gap-1 step (H(weights) for a Bernoulli
    measure)."""
    return _cond_entropy(measure.pi(), _chain_steps(measure, [(0, 1)])[1])


def max_cylinder_log2_prob(measure: MeasureSpec, support) -> float:
    """log2 of the largest cylinder mass over patterns on ``support``.

    Per-row max-product dynamic programming over the row chain.
    """
    rows = _rows_of(support)
    log_steps = _chain_steps(measure, rows.values(), log=True)
    with np.errstate(divide="ignore"):
        logpi = np.log2(measure.pi())
    best: dict[tuple[int, ...], float] = {}
    total = 0.0
    for xs in sorted(rows.values(), key=tuple):
        gaps = tuple(map(operator.sub, xs[1:], xs))
        if gaps not in best:
            vec = logpi
            for g in gaps:
                vec = np.maximum.reduce(vec[:, None] + log_steps[g])
            best[gaps] = float(np.maximum.reduce(vec))
        total += best[gaps]
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
    entropy (exact for both measure families)."""
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


class RdLowerBound(float):
    """rd_lower_bound result: a float (clamped at 0) carrying diagnostics."""

    raw: float
    M: int

    def __new__(cls, value: float, raw: float, M: int):
        obj = super().__new__(cls, value)
        obj.raw = raw
        obj.M = M
        return obj


def rd_lower_bound(measure: MeasureSpec, alpha: float, epsilon: float,
                   delta: float) -> RdLowerBound:
    """Lower bound on the rate-distortion function at distortion epsilon.

    Uses the strip of half-height M from the bracket
    delta*alpha^-(M+1) < epsilon <= delta*alpha^-M:
    (2M+1) * per-site entropy - H(delta) - delta (2M+1) log2 |A|,
    clamped at zero (the raw value stays available as ``.raw``).
    """
    if not 0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    # the smallest M >= 0 with delta * alpha^-(M+1) < epsilon
    M = resolution_depth(alpha, epsilon, delta) - 1
    q = len(measure.alphabet)
    h = ks_entropy(measure)
    raw = (2 * M + 1) * h - binary_entropy(delta) - delta * (2 * M + 1) * math.log2(q)
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
                             f"(0, delta] for --alpha {alpha:g} and --delta {delta:g}")
    return eps, [delta] * len(eps)


def rdim_bounds(measure: MeasureSpec, alpha: float, eps_schedule,
                delta_schedule) -> tuple[DimensionEstimate, DimensionEstimate]:
    """Finite-scale sandwich for the rate-distortion dimension.

    For each scheduled distortion eps the upper sequence is the large-N
    limit of the strip-entropy bound over log2(1/eps) and the lower
    sequence is rd_lower_bound over log2(1/eps).  Both are extrapolated
    linearly in 1/log2(1/eps).  With a fixed delta the lower limit is
    2*(h - delta log2|A|)/log2(alpha), i.e. sits below the upper limit
    2h/log2(alpha) by the documented delta bias.
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
        low = rd_lower_bound(measure, alpha, eps, delta) / log_inv
        xs.append(1.0 / log_inv)
        uppers.append(up)
        lowers.append(float(low))
        sched.append((eps, delta, Mu))
    u_inf, uc = fit_limit(xs, uppers)
    l_inf, lc = fit_limit(xs, lowers)
    model = "v = v_inf + c/log2(1/eps)"
    upper = DimensionEstimate(u_inf, "upper-bound", tuple(sched), tuple(uppers),
                              model, (u_inf, uc))
    lower = DimensionEstimate(l_inf, "lower-bound", tuple(sched), tuple(lowers),
                              model, (l_inf, lc))
    return lower, upper
