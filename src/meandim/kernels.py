"""Hot numeric kernels: the backtracking pattern search and Blahut-Arimoto.

Both are vectorised numpy with one implementation each.  The search
extends whole blocks of admissible prefixes by one cell per step, with a
few array operations a block.  Exact rectangle counts do not live here:
subshift.py counts them by rank over GF(p) for linear specs and by the
big-integer transfer sweep otherwise.
"""

from collections import Counter

import numpy as np

from .errors import ResourceGuardError

# descents (admissible prefixes shorter than the support) one search may
# make; at 30-50 ns a descent, a walk refused here ran 0.12-0.21 s (2-core Xeon VM)
MAX_NODES = 1 << 22

# prefixes in one block, split before it is extended so that its children
# fit in BLOCK_ROWS rows (n_symbols, if more).  One block a cell is live: at most
# n_cells^2 x BLOCK_ROWS symbols of a byte (more from 256 symbols), 16 MiB at 64 cells
BLOCK_ROWS = 4096


def backtrack(n_cells, n_symbols, groups):
    """Yield every admissible assignment of ``n_symbols`` symbols to ``n_cells`` cells.

    Cells are indexed 0..n_cells-1 in assignment order.  ``groups[i]``
    lists the forbidden placements that complete at cell ``i``, each a
    sequence of (cell index, required symbol) pairs whose largest cell
    index is ``i``.  A placement is checked as soon as its last cell
    receives a value, so the search prunes a prefix the moment a
    forbidden pattern completes.  Assignments come in lexicographic
    order, each a new list of symbol indices.  Raises
    ``ResourceGuardError`` past ``MAX_NODES`` descents, since the search
    visits every admissible pattern and its run time grows with the count.
    """
    if n_cells == 0:
        yield []
        return
    for block, allowed in _walk(n_cells, n_symbols, groups):
        rows, syms = np.nonzero(allowed)
        leaves = np.take(block, rows, axis=0)
        leaves[:, -1] = syms
        yield from leaves.tolist()


def backtrack_count(n_cells, n_symbols, groups) -> int:
    """The number of assignments ``backtrack`` yields.

    Refused before the walk when the walk would pass ``MAX_NODES``
    anyway: if no placement's required symbols all lie in a symbol set
    S, every assignment over S is admissible, and the walk descends at
    least once for each of their |S|^(n_cells-1) prefixes.
    """
    if n_cells > 1:
        free = len(_free_symbols(n_symbols, groups))
        if free ** (n_cells - 1) > MAX_NODES:
            raise ResourceGuardError(
                f"backtracking would make at least {free}^{n_cells - 1} descents, above "
                f"the search guard of {MAX_NODES}; the {n_cells}-cell support has too "
                f"many admissible patterns")
    return sum(int(a.sum()) for _, a in _walk(n_cells, n_symbols, groups)) if n_cells else 1


def _walk(n_cells, n_symbols, groups):
    """``backtrack``'s walk in blocks: yields, in lexicographic order, each block
    of admissible prefixes of n_cells - 1 cells and its ``allowed[row, symbol]``."""
    dtype = np.min_scalar_type(n_symbols)
    cols, syms = _cell_tests(n_symbols, groups, dtype)
    piece = max(1, BLOCK_ROWS // n_symbols)
    descents = 0
    stack = [(0, np.zeros((1, n_cells), dtype))]
    while stack:
        i, block = stack.pop()
        if len(block) > piece:
            stack.append((i, block[piece:]))
            block = block[:piece]
        allowed = ~np.logical_or.reduce(np.logical_and.reduce(block.T[cols[i]] == syms[i])).T
        if i == n_cells - 1:
            yield block, allowed
            continue
        rows, at = np.nonzero(allowed)
        if (descents := descents + len(rows)) > MAX_NODES:
            raise ResourceGuardError(
                f"backtracking made {MAX_NODES} descents, above the search guard; "
                f"the {n_cells}-cell support has too many admissible patterns")
        if len(rows):
            children = np.take(block, rows, axis=0)
            children[:, i] = at
            stack.append((i + 1, children))


def _cell_tests(n_symbols, groups, dtype):
    """(cols, syms), [i, :, j, s] the other cells and symbols of the j-th placement
    completing at cell i with s.  Cell i is 0 in the prefixes extended at i, so
    the padding (i, 0) always holds, and (i, n_symbols), for no placement, never."""
    rests = [[[] for _ in range(n_symbols)] for _ in groups]
    for i, group in enumerate(groups):
        for placement in group:
            rests[i][dict(placement)[i]].append([(c, t) for c, t in placement if c != i])
    k = max([1] + [len(rest) for cell in rests for by in cell for rest in by])
    m = max([1] + [len(by) for cell in rests for by in cell])
    table = np.array([[[rest + [(i, 0)] * (k - len(rest)) for rest in by]
                       + [[(i, n_symbols)] * k] * (m - len(by)) for by in cell]
                      for i, cell in enumerate(rests)])
    cols, syms = table.transpose(4, 0, 3, 2, 1).copy()
    return cols, syms[..., None].astype(dtype)


def _free_symbols(n_symbols, groups) -> set:
    """A set of symbols that contains no placement's required symbols.

    Greedy: drop the symbol the most remaining placements require until
    every placement requires a dropped one.
    """
    needs = {frozenset(s for _, s in placement) for group in groups for placement in group}
    free = set(range(n_symbols))
    while needs:
        tally = Counter(s for need in needs for s in need)
        drop = max(tally, key=tally.get)
        free.discard(drop)
        needs = {need for need in needs if drop not in need}
    return free


# bytes of kernel matrices and ring slots one stacked Blahut-Arimoto run
# may hold (a longer slope schedule is run in chunks of at most this
# much), and bytes of the arrays one stacked reading of points may hold
BATCH_BYTES = 1 << 23

# iterations in one block: the stop test and the subnormal flush run at
# block ends, and each slope has a ring of this many c and q slots.  32,
# 48 and 64 ran as fast as each other, 16 and 128 slower, and 32 holds
# the smallest ring of the three (2-core Xeon VM)
FLUSH_EVERY = 32

# a stack of this many slopes or fewer runs its slopes alone, one after
# another; 1-4 ran fastest on the Hamming sweeps and golden window sweeps,
# 8 and 12 slower (2-core Xeon VM)
LONE_SLOPES = 3


def slope_bytes(rho, classes=None) -> int:
    """Bytes one slope of a stacked ``ba_sweep`` run holds, on the class
    problem when ``classes`` is given: its kernel, its ring of
    ``FLUSH_EVERY`` slots for c and as many for q, its Z and the q its
    point reads (its iteration count, gap and flag, 17 bytes, are not
    counted)."""
    mx, my = rho.shape if classes is None else (int(c.max()) + 1 for c in classes)
    return 8 * (mx * my + (2 * FLUSH_EVERY + 1) * my + mx)


def ba_solve(p, rho, beta, tol, max_iter, classes=None):
    """One rate-distortion point at Lagrange slope ``beta`` (bits).

    ``ba_sweep`` at the one slope; returns (rate_bits, distortion,
    iterations, gap, converged).
    """
    return ba_sweep(p, rho, [beta], tol, max_iter, classes)[0]


def ba_sweep(p, rho, betas, tol, max_iter, classes=None):
    """Rate-distortion points at the Lagrange slopes ``betas`` (bits).

    Alternates the reproduction marginal q, started uniform, and the
    optimal conditional for the kernel K = 2^(-beta * rho), in four numpy
    calls: Z = K q, Z <- p / Z, c = Z K, q <- q c.  q is not renormalised:
    q c sums to sum_x p(x) (K q)(x) / Z(x) = sum p = 1 whatever q sums to,
    so every iteration resets the sum to 1 up to its own rounding, and the
    point's conditional K q / Z ignores the sum anyway.  The stopping rule
    is the Csiszar bound: with c(y) = sum_x p(x) K(x,y) / Z(x), the current
    free energy exceeds the optimum by at most gap = max_y log2 c(y), and a
    slope stops once gap < tol.

    ``classes`` is an equitable partition (see ``RdProblem.reduced``): one
    label array for the rows and one for the columns, each numbering its
    classes 0, 1, ... in first-occurrence order; None means identity
    labels, every row and column a class of its own.  p is constant on
    every row class R, every row of R sees the same multiset of
    distortions in each column class C, and every column of C the same
    multiset in R.  The uniform start is constant on C, so Z(x) is
    constant on R and c(y) on C at every iteration, and the loop runs on
    the class problem: source P(R) = sum of p over R, kernel Kbar(R, C) =
    (1/|R|) sum over x in R of K(x, y_C), y_C the first column of C, and
    start Q0(C) = |C|/ny.  Its c(C) is the common c(y) of C, so in exact
    arithmetic its gaps and stopping iteration are the dense run's.  The
    point is read with q(y) = Q(C)/|C| on one row per row class, over
    every column, weighted by P(R): the optimal output marginal, like q,
    is constant on each C, so every row of R sees the same multiset of
    kernel values, q and output marginal in each C, and has the same rate
    and distortion terms.  With identity labels this is the dense
    arithmetic, bit for bit.

    The slopes iterate together as one stack of kernels while more than
    ``LONE_SLOPES`` of them run.  The stacked products call the same BLAS
    matrix-vector routine per slope as a lone product would, so every
    slope follows the same iterates, bit for bit, whatever else is in the
    stack and wherever its slices start.  A stacked iteration costs a
    fixed overhead of several lone ones, so once the stack is down to
    ``LONE_SLOPES`` slopes (at once, for every ``ba_solve`` call), each
    slope left runs alone, one after another, from the stack's iteration
    count: the same loop body on plain views of the stack's first slice,
    through the bound ``dot`` of K and Z.  The caller bounds the stack's
    size (see ``BATCH_BYTES`` and ``slope_bytes``).

    The loop runs in blocks of ``FLUSH_EVERY`` iterations (the last one
    shorter when ``max_iter`` is not a multiple), and each iteration
    writes its c and q into its own slot of a ring of ``FLUSH_EVERY``
    slots per slope.  The stop test runs once per block: one maximum over
    the block's c rows gives every iteration's max_y c(y), and its log2
    that iteration's gap; a slope stops at the first iteration whose gap
    passes, with that iteration's q: the stopping iteration and the bits
    of a test on every iteration.  A slope that stops inside a block runs
    on to the block's end on its own kernel and slots, which changes
    nothing its point reads, and the stack drops it there.  Every block
    starts at a multiple of ``FLUSH_EVERY``, stacked or alone.  The points
    are read once every slope has stopped, in stacks of slopes
    (``_ba_points``).

    Reproductions the source does not use lose mass geometrically, and
    their q(y) would sink into subnormal doubles, where every product
    and sum costs many times the normal rate.  At the end of every block,
    and in every q a point is read from, each entry below the smallest
    normal double is therefore set to exactly 0.  Such an entry times
    K(x, y) <= 1 is below half an ulp of Z(x) >= min_y K(x, y) unless
    beta * rho exceeds about 960 along a whole row, so it changes no bit
    of Z, c, the gap, the normal entries of q or the stopping iteration,
    whether it is flushed at once or up to ``FLUSH_EVERY`` - 1 iterations
    later.  The one difference from no flush at all: a flushed entry stays
    0, where a subnormal one grows back if c(y) later exceeds 1 by more
    than its rounding step (1/(2n) for n subnormal units); that needs c(y)
    to turn upwards after the long decay, and no problem in the tests or
    the benchmark does it.

    Returns one (rate_bits, distortion, iterations, gap, converged) per
    slope, in the order of ``betas``.
    """
    p = np.ascontiguousarray(p, dtype=np.float64)
    rho = np.ascontiguousarray(rho, dtype=np.float64)
    nx, ny = rho.shape
    rows, cols = (np.arange(nx), np.arange(ny)) if classes is None else classes
    order, first, size = _runs(rows)
    col_order, col_first, width = _runs(cols)
    # the first column of each column class, rows grouped by class
    rep = rho[np.ix_(order, col_order[col_first])]
    ps = np.add.reduceat(p[order], first)

    F = FLUSH_EVERY
    n = len(betas)
    mx, my = len(size), len(width)
    K = np.empty((n, mx, my))
    for k, beta in enumerate(betas):
        # the average, not the sum, over each row class: the iterates are
        # the same, and Kbar <= 1, as the flush below needs
        np.divide(np.add.reduceat(np.exp2(-beta * rep), first, axis=0), size[:, None],
                  out=K[k])
    qs = np.empty((F, n, my))  # ring slot, slope
    cs = np.empty((F, n, my))
    qs[0] = np.bincount(cols) / ny
    Z = np.empty((n, mx))
    # per slope in the order of betas: the q its point reads, its
    # iterations, its last tested gap and whether it converged
    Q = np.empty((n, my))
    iters, gap, converged = np.empty(n, int), np.empty(n), np.empty(n, bool)
    slot = np.arange(n)  # the index in betas of each stacked slope
    it = 0
    while len(slot) > LONE_SLOPES and it < max_iter:
        n = len(slot)
        Kv, Zv = K[:n], Z[:n]
        Z3, W3 = Zv[:, :, None], Zv[:, None, :]
        ring = [(qs[j, :n], qs[j, :n, :, None], cs[j, :n], cs[j, :n, None, :],
                 qs[(j + 1) % F, :n]) for j in range(F)]
        # each block starts at a multiple of F, reading its q from slot 0
        while True:
            m = min(F, max_iter - it)
            for qi, q3, ci, c3, qo in ring[:m]:
                np.matmul(Kv, q3, Z3)
                np.divide(ps, Zv, Zv)
                np.matmul(W3, Kv, c3)
                np.multiply(qi, ci, qo)
            it += m
            # per iteration and slope
            gaps = np.log2(np.maximum.reduce(cs[:m, :n], axis=-1))
            hit = gaps < tol
            if hit.any() or it == max_iter:
                break
            _flush(qs[0, :n])
        # iteration it - m + j + 1 of block slot j left its q in slot j + 1;
        # a slope that never passed ends at max_iter, block slot m - 1
        j = np.argmax(hit, axis=0)
        passed = hit[j, np.arange(n)]
        j[~passed] = m - 1
        done = passed | (it == max_iter)
        r, k = np.flatnonzero(done), slot[done]
        Q[k] = qs[(j[r] + 1) % F, r]
        iters[k], gap[k], converged[k] = it - m + j[r] + 1, gaps[j[r], r], passed[r]
        # move the slopes still running to the front
        keep = np.flatnonzero(~done)
        K[:len(keep)] = K[keep]
        qs[0, :len(keep)] = qs[0, keep]
        slot = slot[keep]
        _flush(qs[0, :len(slot)])
    if len(slot):
        # the slopes left run one after another in the stack's first slice
        ring = [(qs[j, 0], cs[j, 0], qs[(j + 1) % F, 0]) for j in range(F)]
        for r, k in enumerate(slot.tolist()):
            K[0], qs[0, 0] = K[r], qs[0, r]
            Q[k], iters[k], gap[k], converged[k] = _run_alone(K[0], Z[0], ps, ring, cs[:, 0],
                                                              it, max_iter, tol)
    _flush(Q)
    lead, betas = rho[order[first]], np.asarray(betas, dtype=np.float64)
    # a reading holds at most four float arrays of lead's size per slope
    step = max(1, BATCH_BYTES // (32 * lead.size))
    points = []
    for s in range(0, len(betas), step):
        points += _ba_points(ps, lead, betas[s:s + step], cols, width, Q[s:s + step])
    runs = zip(iters.tolist(), gap.tolist(), converged.tolist())
    return [point + run for point, run in zip(points, runs)]


def _run_alone(K, Z, ps, ring, cs, it, max_iter, tol):
    """One slope's loop from iteration ``it`` (a block start, its q in the
    ring's slot 0) to its stop: (q, iterations, gap, converged)."""
    F = len(ring)
    Kdot, Zdot, divide, multiply = K.dot, Z.dot, np.divide, np.multiply
    while True:
        m = min(F, max_iter - it)
        for qi, ci, qo in ring[:m]:
            Kdot(qi, Z)
            divide(ps, Z, Z)
            Zdot(K, ci)
            multiply(qi, ci, qo)
        it += m
        gaps = np.log2(np.maximum.reduce(cs[:m], axis=-1))
        hit = gaps < tol
        if hit.any():
            j = int(np.argmax(hit))
            return ring[j][2], it - m + j + 1, gaps[j], True
        if it == max_iter:
            return ring[m - 1][2], it, gaps[-1], False
        _flush(ring[0][0])


def _runs(labels):
    """(order, first, size): the indices in stable order of their class
    label, where each class starts in that order, and its size."""
    order = np.argsort(labels, kind="stable")
    size = np.bincount(labels)
    return order, np.concatenate(([0], np.cumsum(size)[:-1])), size


def _flush(q) -> None:
    """Set the entries of q below the smallest normal double to 0."""
    q[q < _TINY] = 0.0


_TINY = np.finfo(np.float64).tiny


def _ba_points(P, rho, betas, cols, width, Q):
    """(rate, distortion) of the optimal conditional for each class
    marginal Q[k] at slope betas[k], read on one row per row class
    (``rho`` at those rows, every column) weighted by the class masses P.
    The stack is read with a lone slope's arithmetic, bit for bit: the
    same BLAS matrix-vector routine per slope, the other steps elementwise
    or in index order, and each sum over one slope's contiguous slice."""
    n, nc = len(betas), len(width)
    K = np.exp2(-betas[:, None, None] * rho)
    q = (Q / width)[:, cols]
    Z = np.matmul(K, q[:, :, None])
    # the conditional K q / Z, formed in K
    cond = K
    cond *= q[:, None, :]
    cond /= Z
    # the output marginal is constant on each column class: its class mean
    at = np.arange(n)[:, None] * nc + cols
    qbar = np.bincount(at.ravel(), np.matmul(P, cond).ravel(), n * nc).reshape(n, nc)
    qbar = (qbar / width)[:, None, cols]
    ratio = np.divide(cond, qbar, out=np.ones_like(cond), where=(cond > 0) & (qbar > 0))
    terms = P[:, None] * cond
    # log2 in place: ratio is not read again
    terms *= np.log2(ratio, out=ratio)
    rates = np.add.reduce(terms.reshape(n, -1), axis=1)
    terms = np.multiply(P[:, None], cond, out=terms)
    terms *= rho
    return list(zip(rates.tolist(), np.add.reduce(terms.reshape(n, -1), axis=1).tolist()))

