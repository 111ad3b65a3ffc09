"""Hot numeric kernels: the backtracking pattern search and Blahut-Arimoto.

Both are plain code with one implementation each: the search walks
Python lists (list indexing is cheaper than numpy scalar indexing in an
interpreted loop), and Blahut-Arimoto is vectorised numpy.  Exact
rectangle counts do not live here: subshift.py counts them by rank over
GF(p) for linear specs and by the big-integer transfer sweep otherwise.
"""

from collections import Counter

import numpy as np

from .errors import ResourceGuardError

# descents one backtracking search may make; the largest search in the
# test suite makes about 5e5 node visits
MAX_NODES = 1 << 22


def backtrack(n_cells, n_symbols, groups):
    """Yield every admissible assignment of ``n_symbols`` symbols to ``n_cells`` cells.

    Cells are indexed 0..n_cells-1 in assignment order.  ``groups[i]``
    lists the forbidden placements that complete at cell ``i``, each a
    sequence of (cell index, required symbol) pairs whose largest cell
    index is ``i``.  A placement is checked as soon as its last cell
    receives a value, so the search prunes a branch the moment a
    forbidden pattern completes.  Assignments come in lexicographic
    order, each as the same list of symbol indices, updated in place
    after the yield.  Raises ``ResourceGuardError`` after ``MAX_NODES``
    descents, since the search visits every admissible pattern and its
    run time grows with the count.
    """
    if n_cells == 0:
        yield []
        return
    # checks[i][s]: the other cells of each placement that completes at
    # cell i with symbol s; an empty tuple forbids s at i outright
    checks = [[[] for _ in range(n_symbols)] for _ in range(n_cells)]
    for i, group in enumerate(groups):
        for placement in group:
            rest = tuple((c, s) for c, s in placement if c != i)
            checks[i][dict(placement)[i]].append(rest)
    assign = [0] * n_cells
    trial = [0] * n_cells
    last = n_cells - 1
    level = 0
    budget = MAX_NODES
    while level >= 0:
        s = trial[level]
        if s >= n_symbols:
            level -= 1
            continue
        trial[level] = s + 1
        assign[level] = s
        blocked = False
        for rest in checks[level][s]:
            for c, t in rest:
                if assign[c] != t:
                    break
            else:
                blocked = True
                break
        if blocked:
            continue
        if level == last:
            yield assign
        else:
            budget -= 1
            if budget < 0:
                raise ResourceGuardError(
                    f"backtracking made {MAX_NODES} descents, above the search guard; "
                    f"the {n_cells}-cell support has too many admissible patterns")
            level += 1
            trial[level] = 0


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
    return sum(1 for _ in backtrack(n_cells, n_symbols, groups))


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
# may hold; a longer slope schedule is run in chunks of at most this much
BATCH_BYTES = 1 << 23

# iterations in one block: the stop test and the subnormal flush run at
# block ends
FLUSH_EVERY = 16


def slope_bytes(rho, classes=None) -> int:
    """Bytes one slope of a stacked ``ba_sweep`` run holds: its kernel, on
    the class problem when ``classes`` is given, and its ring of
    ``FLUSH_EVERY`` c and q slots."""
    mx, my = rho.shape if classes is None else (int(c.max()) + 1 for c in classes)
    return 8 * (mx * my + 2 * FLUSH_EVERY * my)


def ba_solve(p, rho, beta, tol, max_iter, q0=None, classes=None):
    """One rate-distortion point at Lagrange slope ``beta`` (bits).

    ``ba_sweep`` at the one slope; returns (rate_bits, distortion,
    iterations, gap, converged).
    """
    return ba_sweep(p, rho, [beta], tol, max_iter, q0, classes)[0]


def ba_sweep(p, rho, betas, tol, max_iter, q0=None, classes=None):
    """Rate-distortion points at the Lagrange slopes ``betas`` (bits).

    Alternates the reproduction marginal q and the optimal conditional for
    the kernel K = 2^(-beta * rho).  The stopping rule is the Csiszar
    bound: with c(y) = sum_x p(x) K(x,y) / Z(x), the current free energy
    exceeds the optimum by at most gap = max_y log2 c(y), and a slope stops
    once gap < tol.  The loop tests max_y c(y) <= m instead, where m is the
    largest double with log2(m) < tol (``_stop_threshold``, found once per
    call), and takes log2 only of the gap it reports.  q starts at ``q0``,
    or uniform when it is None.

    ``classes``, when given, is an equitable partition (see
    ``RdProblem.classes``): one label array for the rows and one for the
    columns, each numbering its classes 0, 1, ... in first-occurrence
    order.  p is constant on every row class R and q0 on every column
    class C, every row of R sees the same multiset of distortions in C,
    and every column of C the same multiset in R.  Then Z(x) is constant
    on R and c(y) on C at every iteration, so the loop runs on the class
    problem: source P(R) = sum of p over R, kernel Kbar(R, C) = (1/|R|)
    sum over x in R of K(x, y_C), y_C the first column of C, and start
    Q0(C) = sum of q0 over C.  Its c(C) is the common c(y) of C, so in
    exact arithmetic its gaps and stopping iteration are the dense run's.
    Rate and distortion are read on the dense arrays with q(y) = Q(C)/|C|:
    columns that are equitable but not equal do not merge without
    changing the rate.

    All slopes iterate together as one stack of kernels.  Each slope's
    kernel and work vectors start on a 64-byte boundary (the
    matrix-vector products run about a fifth faster on an aligned K), and
    the stacked products call the same BLAS matrix-vector routine per
    slope as a lone product would, so every slope follows the same
    iterates, bit for bit, whatever else is in the stack.  A stack of one
    slope (every ``ba_solve`` call, and a sweep's tail) runs the same loop
    body on plain matrix-vector views with 0-d reduction outputs, which
    saves numpy's broadcasting over the stack axis.  The caller bounds the
    stack's size (see ``BATCH_BYTES`` and ``slope_bytes``).

    The loop runs in blocks of ``FLUSH_EVERY`` iterations (the last one
    shorter when ``max_iter`` is not a multiple), and each iteration
    writes its c and q into its own slot of a ring of that many slots.
    The stop test runs once per block: one maximum over the block's c
    rows gives every iteration's max_y c(y), and a slope stops at the
    first iteration whose maximum passes, with that iteration's q: the
    stopping iteration and the bits of a test on every iteration.  A slope
    that stops inside a block runs on to the block's end on its own
    kernel and slots, which changes nothing its point reads, and the stack
    drops it there.

    Reproductions the source does not use lose mass geometrically, and
    their q(y) would sink into subnormal doubles, where every product
    and sum costs many times the normal rate.  At the end of every block,
    and in every q a point is read from, each entry below the smallest
    normal double is therefore set to exactly 0.  Such an entry times
    K(x, y) <= 1 is below half an ulp of Z(x) >= min_y K(x, y) unless
    beta * rho exceeds about 960 along a whole row, and below half an ulp
    of the mass sum, so it changes no bit of Z, c, the gap, the sum, the
    normal entries of q or the stopping iteration, whether it is flushed
    at once or up to ``FLUSH_EVERY`` - 1 iterations later.  The one
    difference from no flush at all: a flushed entry stays 0, where a
    subnormal one grows back if c(y) later exceeds 1 by more than its
    rounding step (1/(2n) for n subnormal units); that needs c(y) to turn
    upwards after the long decay, and no problem in the tests or the
    benchmark does it.

    Returns one (rate_bits, distortion, iterations, gap, converged) per
    slope, in the order of ``betas``.
    """
    p = np.ascontiguousarray(p, dtype=np.float64)
    rho = np.ascontiguousarray(rho, dtype=np.float64)
    ny = rho.shape[1]
    start = np.full(ny, 1.0 / ny) if q0 is None else np.asarray(q0, dtype=np.float64)
    if classes is None:
        ps, shape = p, rho.shape

        def fill(beta, out):
            np.exp2(-beta * rho, out=out)
    else:
        rows, cols = classes
        order, first, size = _runs(rows)
        col_order, col_first, width = _runs(cols)
        # the first column of each column class, rows grouped by class
        rep = rho[np.ix_(order, col_order[col_first])]
        ps, start = np.add.reduceat(p[order], first), np.bincount(cols, start)
        shape = (len(size), len(width))

        def fill(beta, out):
            # the average, not the sum, over each row class: the iterates are
            # the same, and Kbar <= 1, as the flush below needs
            np.divide(np.add.reduceat(np.exp2(-beta * rep), first, axis=0), size[:, None],
                      out=out)

    def point(r, k, q, it, top, converged):
        _flush(q)
        if classes is None:
            return _ba_point(p, rho, K[r], q, it, float(np.log2(top)), converged)
        dense = np.multiply(rho, -betas[k])
        np.exp2(dense, out=dense)
        return _ba_point(p, rho, dense, (q / width)[cols], it, float(np.log2(top)), converged)

    F = FLUSH_EVERY
    n = len(betas)
    mx, my = shape
    K = _aligned_stack(n, shape)
    for k, beta in enumerate(betas):
        fill(beta, K[k])
    qs = _aligned_stack(F * n, (my,)).reshape(F, n, my)  # ring slot, slope
    cs = _aligned_stack(F * n, (my,)).reshape(F, n, my)
    qs[0] = start
    Z = _aligned_stack(n, (mx,))
    mass = np.empty(n)
    stop = _stop_threshold(tol)
    slot = list(range(n))  # the index in betas of each stacked slope
    out = [None] * n
    it = 0
    while slot and it < max_iter:
        n = len(slot)
        if n == 1:
            # plain matrix-vector views and 0-d reduction outputs ([0, ...]
            # is a view, not a scalar)
            Kv, Zv, sv = K[0], Z[0], mass[0, ...]
            Z3, W3, s2 = Zv, Zv, sv
            ring = [(qs[j, 0], qs[j, 0], cs[j, 0], cs[j, 0], qs[(j + 1) % F, 0])
                    for j in range(F)]
        else:
            Kv, Zv, sv = K[:n], Z[:n], mass[:n]
            Z3, W3, s2 = Zv[:, :, None], Zv[:, None, :], sv[:, None]
            ring = [(qs[j, :n], qs[j, :n, :, None], cs[j, :n], cs[j, :n, None, :],
                     qs[(j + 1) % F, :n]) for j in range(F)]
        # each block starts at a multiple of F, reading its q from slot 0
        while it < max_iter:
            m = min(F, max_iter - it)
            for qi, q3, ci, c3, qo in ring[:m]:
                np.matmul(Kv, q3, out=Z3)
                np.divide(ps, Zv, out=Zv)
                np.matmul(W3, Kv, out=c3)
                np.multiply(qi, ci, out=qo)
                # ufunc reductions, since np.sum adds about 1 us per call
                np.add.reduce(qo, axis=-1, out=sv)
                np.divide(qo, s2, out=qo)
            it += m
            top = np.maximum.reduce(cs[:m, :n], axis=-1)  # per iteration and slope
            hit = top <= stop
            if hit.any() or it == max_iter:
                break
            _flush(qs[0, :n])
        keep = []
        # iteration it - m + j + 1 of block slot j left its q in slot j + 1
        for r, j in enumerate(np.argmax(hit, axis=0).tolist()):
            if hit[j, r]:
                out[slot[r]] = point(r, slot[r], qs[(j + 1) % F, r], it - m + j + 1,
                                     top[j, r], True)
            elif it == max_iter:
                out[slot[r]] = point(r, slot[r], qs[m % F, r], it, top[-1, r], False)
            else:
                keep.append(r)
        # move the slopes still running to the front, slice by slice, so
        # that every slice keeps its alignment
        for dst, src in enumerate(keep):
            if dst != src:
                K[dst] = K[src]
                qs[0, dst] = qs[0, src]
        slot = [slot[r] for r in keep]
        _flush(qs[0, :len(slot)])
    return out


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


def _stop_threshold(tol) -> float:
    """The largest double m with log2(m) < tol.

    log2 is nondecreasing, so for every double x, x <= m exactly when
    log2(x) < tol.
    """
    big = np.finfo(np.float64).max
    m = 2.0 ** tol if tol < 1024 else big
    while np.log2(m) >= tol:
        m = np.nextafter(m, 0.0)
    while m < big and np.log2(np.nextafter(m, np.inf)) < tol:
        m = np.nextafter(m, np.inf)
    return float(m)


def _ba_point(p, rho, K, q, it, gap, converged):
    """Rate and distortion of the optimal conditional for marginal q."""
    Z = K @ q
    cond = K * q[None, :] / Z[:, None]
    qbar = p @ cond
    ratio = np.divide(cond, qbar[None, :], out=np.ones_like(cond),
                      where=(cond > 0) & (qbar[None, :] > 0))
    # log2 in place: ratio is not read again, and the point holds one
    # nx x ny array fewer at its peak
    rate = float(np.sum(p[:, None] * cond * np.log2(ratio, out=ratio)))
    dist = float(np.sum(p[:, None] * cond * rho))
    return rate, dist, it, gap, converged


def _aligned_stack(n, shape) -> np.ndarray:
    """An uninitialised float64 array of shape (n, *shape) whose n slices
    are C-contiguous and each start on a 64-byte boundary."""
    size = int(np.prod(shape))
    stride = -(-size // 8) * 8
    buf = np.empty(8 * (n * stride + 8), dtype=np.uint8)
    start = -buf.ctypes.data % 64
    flat = buf[start:start + 8 * n * stride].view(np.float64)
    return flat.reshape(n, stride)[:, :size].reshape((n, *shape))
