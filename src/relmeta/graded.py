"""The vectorized kernels of the graded-monad laws (numpy).

lawcheck imports this module on the first graded check, so that no other
law set, and no other subcommand, loads numpy.

The graded checks live over implicit finite sets (declared carriers with
computed function spaces) rather than an explicit FinCategory: the
quantification domains are astronomically larger than the 64-morphism cap
allows, so the heavy sweeps are vectorized.  Values are integer-coded, the
extension operator of a combination of grades and carriers is tabulated
for all its maps at once, and the overrides are matched once per table.
One check builds each such table once, in a store (_Tables) that its laws
share and that goes with them, so its memory is the distinct tables of
that check.  The laws quantified over two function spaces report their
first failing instance in the order of the loops outer row, then cell,
then inner row, and are decided in blocks of at most GRADED_BLOCK_ELEMENTS
elements, so the witnesses do not depend on the block size: associativity
(over f and g) in blocks of whole cells, once per class of the (f, cell)
pairs whose two sides read the same of f; context naturality (over u and
f) in blocks of whole arrays.
"""

from __future__ import annotations

import functools
import itertools

import numpy as _np

from .lawcheck import GradedMonadData, Guard, Law, LawError


# int32 elements per block of context naturality's (u, f) pairs and of the
# rows in which an extension table is built.  It bounds those transient
# arrays; the tables themselves stay until the check ends.
GRADED_BLOCK_ELEMENTS = 1 << 16


class _GradedCodec:
    """Integer coding of one combo's value spaces plus the vectorized
    extension operator."""

    def __init__(self, gd: GradedMonadData, X, cap):
        self.gd = gd
        self.X = X
        self.vals = gd.tvals(cap, X)
        self.code = {v: i for i, v in enumerate(self.vals)}
        n = len(self.vals)
        # cat[a, b] codes a ++ b, or is -1 where that leaves the value
        # space; its extra last row, all -1, is the one a = -1 reads
        cat = _np.full((n + 1, n), -1, dtype=_np.int32)
        for i, a in enumerate(self.vals):
            for j, b in enumerate(self.vals):
                c = a + b
                if c in self.code:
                    cat[i, j] = self.code[c]
        self._flat = cat.ravel()
        self.empty = self.code[()]

    def join(self, a, b):
        """Codes of a ++ b, elementwise, for codes a (or -1, a list outside
        the value space) and b: -1 where the list leaves the value space,
        and wherever a is -1, also when b is the empty list."""
        # a = -1 indexes from the end of the flat table: its last row
        return self._flat[a * len(self.vals) + b]


def _all_maps_array(dom_size, n_codes):
    """All functions dom -> codes as an int array (N, dom_size)."""
    total = n_codes ** dom_size
    if total > 600000:
        raise LawError(f"graded sweep too large: {n_codes}^{dom_size}")
    ar = _np.arange(total, dtype=_np.int32)
    out = _np.empty((total, dom_size), dtype=_np.int32)
    for i in range(dom_size):
        out[:, i] = (ar // (n_codes ** (dom_size - 1 - i))) % n_codes
    return out


def _coded_overrides(overrides, fkeys, codec, cell_index) -> list:
    """The overrides that can apply to maps on the domain fkeys (in column
    order) coded in codec's space: (coded table, cell column, value code)
    each."""
    out = []
    for ftab, cell, val in overrides:
        try:
            coded = _np.array([codec.code[ftab[k]] for k in fkeys],
                              dtype=_np.int32)
        except KeyError:
            continue
        if cell in cell_index and val in codec.code:
            out.append((coded, cell_index[cell], codec.code[val]))
    return out


def _concat_plan(cells, key_index) -> list:
    """How to fill the cells (g, xs) by concatenation: per list length k >=
    1, the cells of that length, their prefixes (g, xs[:-1]), which are
    cells of length k - 1, and the key (g, xs[-1]) of their last part."""
    cell_index = {c: i for i, c in enumerate(cells)}
    levels = {}
    for ci, (g, xs) in enumerate(cells):
        if xs:
            levels.setdefault(len(xs), []).append(
                (ci, cell_index[(g, xs[:-1])], key_index[(g, xs[-1])]))
    return [tuple(_np.array(a, dtype=_np.intp) for a in zip(*level))
            for _, level in sorted(levels.items())]


def _concat(plan, codec, parts, ncells):
    """out[:, c] = the concatenation of parts[:, key] over the keys of cell
    c, by one cat gather per list length; the cells axis is axis 1."""
    out = _np.full((parts.shape[0], ncells), codec.empty, dtype=_np.int32)
    for idx, pre, key in plan:
        out[:, idx] = codec.join(out[:, pre], parts[:, key])
    return out


class _ExtVec:
    """Vectorized f*_{m,n} for every row of fmat at once: one column per
    cell (g, xs), with the overrides of its (G, m, n, X, Y) applied by
    matching rows against each override's coded table."""

    def __init__(self, gd, overrides, G, m, X, fmat, dom_index, codec_y,
                 codec_x):
        # fmat: (Nf, |G x X|) codes of T_n Y values (in codec_y space),
        # its columns in the order of dom_index
        self.gs = gd.carriers[G]
        self.gpos = {g: i for i, g in enumerate(self.gs)}
        self.codec_x, self.dom_index = codec_x, dom_index
        self.cells = [(g, xs) for g in self.gs for xs in gd.tvals(m, X)]
        self.cell_index = {c: i for i, c in enumerate(self.cells)}
        plan, width = _concat_plan(self.cells, dom_index), len(self.cells)
        self.mat = _np.empty((fmat.shape[0], width), dtype=_np.int32)
        # in row blocks, which bound _concat's temporaries
        rows = max(1, GRADED_BLOCK_ELEMENTS // max(1, width))
        for r in range(0, fmat.shape[0], rows):
            self.mat[r:r + rows] = _concat(plan, codec_y, fmat[r:r + rows],
                                           width)
        for coded, ci, v in _coded_overrides(overrides, list(dom_index),
                                             codec_y, self.cell_index):
            self.mat[(fmat == coded).all(axis=1), ci] = v

    @functools.cached_property
    def colmap(self):
        """(position of g in G, code of v in X's space) -> the column of
        the cell (g, v), or the number of cells where v is no cell's or g
        is the padding position len(G)."""
        cm = _np.full((len(self.gs) + 1, len(self.codec_x.vals)),
                      len(self.cells), dtype=_np.int32)
        for (g, v), ci in self.cell_index.items():
            cm[self.gpos[g], self.codec_x.code[v]] = ci
        return cm

    @functools.cached_property
    def parts(self):
        """Per cell (g, xs) and x in xs, padded to the longest cell, two
        arrays: the domain's column at (g, x) and g's row of colmap, or at
        the padding 0 and the padding row."""
        width = max((len(xs) for _, xs in self.cells), default=0)
        pad = [(0, len(self.gs))] * width
        return _np.array([([(self.dom_index[g, x], self.gpos[g]) for x in xs]
                           + pad)[:width] for g, xs in self.cells],
                         dtype=_np.intp).reshape(len(self.cells), width, 2) \
            .transpose(2, 0, 1)


def _fmat_for(gd, G, X, n, codec_y):
    """All maps G x X -> T_n Y coded in codec_y's space, plus the domain
    index."""
    gelems = gd.carriers[G]
    xelems = gd.carriers[X]
    dom = [(g, x) for g in gelems for x in xelems]
    dom_index = {k: i for i, k in enumerate(dom)}
    level_vals = gd.tvals(n, codec_y.X)
    level_codes = _np.array([codec_y.code[v] for v in level_vals],
                            dtype=_np.int32)
    raw = _all_maps_array(len(dom), len(level_vals))
    return level_codes[raw], dom_index


class _Tables:
    """The coded function spaces and extension tables of one graded check.

    Each is built on its first use and kept until the check ends, so the
    combos of every law that read one table share it.  An extension table
    is keyed by what fixes its contents: (G, m, n, X, Y), whether that
    key's overrides are applied, and the regrade its maps are recoded
    through."""

    def __init__(self, gd: GradedMonadData):
        self.gd = gd
        self.codecs = {X: _GradedCodec(gd, X, max(gd.grades))
                       for X in sorted(gd.carriers)}
        self.ovr = gd.overrides()
        self._built = {}

    def _once(self, key, build):
        """The value stored under key, built by build() on first use."""
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def fmat(self, G, X, n, Y):
        """Every map G x X -> T_n Y coded in Y's space, and the index of
        the domain's columns."""
        return self._once(("fmat", G, X, n, Y), lambda: _fmat_for(
            self.gd, G, X, n, self.codecs[Y]))

    def ext(self, G, m, n, X, Y):
        """f*_{m,n} of every f : G x X -> T_n Y, with the overrides."""
        return self._ext((G, m, n, X, Y), True, None)

    def plain(self, G, m, n, X, Y):
        """f*_{m,n} of every f : G x X -> T_n Y, without the overrides."""
        return self._ext((G, m, n, X, Y), False, None)

    def regraded(self, G, m, n, n2, X, Y):
        """(T_xi o f)*_{m,n} of every f : G x X -> T_n2 Y, xi : n >= n2,
        with the overrides of (G, m, n, X, Y): its rows are the f.  The
        identity regrade gives the table ext gives."""
        lut = self.regrade_lut(n, n2, Y)
        if n == n2 and (lut == _np.arange(len(lut))).all():
            return self.ext(G, m, n, X, Y)
        return self._ext((G, m, n, X, Y), True, n2)

    def _ext(self, gkey, applied, regrade):
        G, m, n, X, Y = gkey
        over = self.ovr.get(gkey, ()) if applied else ()

        def build():
            if regrade is None:
                fmat, dom = self.fmat(G, X, n, Y)
            else:
                fmat, dom = self.fmat(G, X, regrade, Y)
                fmat = self.regrade_lut(n, regrade, Y)[fmat]
            return _ExtVec(self.gd, over, G, m, X, fmat, dom, self.codecs[Y],
                           self.codecs[X])
        return self._once(("ext", gkey, bool(over), regrade), build)

    def regrade_lut(self, hi, lo, Y):
        """The code of each value of T_lo Y -> the code of its regrade into
        T_hi Y (other codes map to themselves)."""
        cy = self.codecs[Y]
        lut = _np.arange(len(cy.vals), dtype=_np.int32)
        for v in self.gd.tvals(lo, Y):
            lut[cy.code[v]] = cy.code[self.gd.tx[(hi, lo, Y, v)]]
        return lut


def _first_diff(lhs, rhs):
    """The first column in which the arrays lhs and rhs differ and its
    first differing row, or None."""
    bad = lhs != rhs
    cols = _np.flatnonzero(bad.any(axis=0))
    return (int(cols[0]), int(bad[:, cols[0]].argmax())) if cols.size else None


def _first_hit(n_outer, n_inner, width, block):
    """The first (outer, cell, inner) at which block's mask is True, or
    None.  block(outer, inner) takes two slices and returns the mask of
    that block laid out (outer, cell, inner); width is the number of int32
    elements a block holds per (outer, inner) pair.  A block spans as many
    whole outer rows as GRADED_BLOCK_ELEMENTS allows; when one outer row
    is more than that, its inner axis is cut too, and the least failing
    inner row of each cell is kept across the cuts before the first failing
    cell is chosen."""
    pairs = max(1, GRADED_BLOCK_ELEMENTS // max(1, width))
    if pairs >= n_inner:
        step = pairs // max(1, n_inner)
        for o0 in range(0, n_outer, step):
            mask = block(slice(o0, o0 + step), slice(0, n_inner))
            if mask.any():
                o, c, i = _np.unravel_index(mask.argmax(), mask.shape)
                return o0 + int(o), int(c), int(i)
        return None
    for o in range(n_outer):
        first = None
        for i0 in range(0, n_inner, pairs):
            mask = block(slice(o, o + 1), slice(i0, i0 + pairs))[0]
            at = _np.where(mask.any(axis=1), i0 + mask.argmax(axis=1),
                           n_inner)
            first = at if first is None else _np.minimum(first, at)
        hit = first < n_inner
        if hit.any():
            c = int(hit.argmax())
            return o, c, int(first[c])
    return None


def graded_laws(gd: GradedMonadData) -> list[Law]:
    """The graded-monad laws over the declared fragment: unit laws,
    associativity, regrade functoriality and compatibility, and naturality
    in the context; out-of-fragment tensors are reported as skips.  The
    engine quantifies over grades and carriers; the vectorized kernels
    sweep the function spaces.  The laws share one store of tables, which
    lives as long as the list returned."""
    grades, e, car, tx, tensor = (gd.grades, gd.unit_grade, gd.carriers,
                                  gd.tx, gd.tensor)
    names = sorted(car)
    tables = _Tables(gd)

    def below(m):
        return [n for n in grades if m >= n]

    def lifts(m, n, X, Y):
        # every carrier map h : X -> Y as a table
        return [dict(zip(car[X], h))
                for h in itertools.product(car[Y], repeat=len(car[X]))]

    def regrade_natural(m, n, X, Y, htab, v):
        # regrades commute with the lifted action of every carrier map
        return tx[(m, n, Y, tuple(htab[x] for x in v))] == \
            tuple(htab[x] for x in tx[(m, n, X, v)])

    def unit_right(G, m, A, g, xs):
        # (eta o pi)*_{m,e} agrees with the projection
        f = {(g2, a): gd.eta[(A, a)] for g2 in car[G] for a in car[A]}
        got = gd.ext_value(G, m, e, A, A, f, (g, xs))
        me = tensor(m, e)
        return got == (tx[(me, m, A, xs)] if me != m else xs) or (got,)

    def unit_left(G, m, A, B):
        # f*_{e,m} o (G x eta) = f for every f, at each (g, a) in loop order
        fmat, dom_index = tables.fmat(G, A, m, B)
        extv = tables.ext(G, e, m, A, B)
        keys = list(dom_index)
        hit = _first_diff(extv.mat[:, [extv.cell_index[(g, gd.eta[(A, a)])]
                                       for g, a in keys]], fmat)
        return True if hit is None else (*keys[hit[0]], f"f#{hit[1]}")

    def naturality(m, n, G2, G, A, B):
        # f*_{m,n} o (u x T_m A) = (f o (u x A))*_{m,n} for u : G2 -> G.
        # Without overrides (f o (u x A))* at (g2, xs) is f* at (u g2, xs),
        # so both sides are columns of f*, before and after G's overrides,
        # and the left one gets the overrides at G2 that match f o (u x A).
        fmat, dom_index = tables.fmat(G, A, n, B)
        plain, extv = (tables.plain(G, m, n, A, B),
                       tables.ext(G, m, n, A, B))
        us = list(itertools.product(car[G], repeat=len(car[G2])))
        utabs = [dict(zip(car[G2], u)) for u in us]
        cells = [(g2, xs) for g2 in car[G2] for xs in gd.tvals(m, A)]
        keys = sorted((g2, a) for g2 in car[G2] for a in car[A])
        # per u: the f* column of (u g2, xs) for each cell (g2, xs), and
        # the f column of (u g2, a) for each (g2, a) of f o (u x A)
        ucells = _np.array([[extv.cell_index[(ut[g2], xs)] for g2, xs in cells]
                            for ut in utabs], dtype=_np.intp)
        ukeys = _np.array([[dom_index[(ut[g2], a)] for g2, a in keys]
                           for ut in utabs], dtype=_np.intp)
        over2 = _coded_overrides(tables.ovr.get((G2, m, n, A, B), ()), keys,
                                 tables.codecs[B],
                                 {c: i for i, c in enumerate(cells)})
        if extv is plain and not over2:
            return True  # both sides are the same columns of f*
        ptab, etab = (_np.ascontiguousarray(t.mat.T) for t in (plain, extv))
        ftab = _np.ascontiguousarray(fmat.T) if over2 else None

        # a block laid out (u, cell, f): table.T[ucells[u, c], f]
        def block(outer, inner):
            lhs = ptab[ucells[outer], inner]
            if over2:
                f2 = ftab[ukeys[outer], inner]
                for coded, ci, v in over2:
                    lhs[:, ci][(f2 == coded[:, None]).all(axis=1)] = v
            return lhs != etab[ucells[outer], inner]

        hit = _first_hit(len(us), len(fmat), len(cells) + len(keys), block)
        if hit is None:
            return True
        o, c, i = hit
        return (us[o], *cells[c], f"f#{i}")

    return [
        Law("graded-functor-identity", "tx-id",
            (grades, names, lambda m, X: gd.tvals(m, X)),
            lambda m, X, v: tx[(m, m, X, v)] == v),
        Law("graded-functor-composition", "tx-comp",
            (grades, below, lambda m, n: below(n), names,
             lambda m, n, l, X: gd.tvals(l, X)),
            lambda m, n, l, X, v:
                tx[(m, l, X, v)] == tx[(m, n, X, tx[(n, l, X, v)])]),
        Law("graded-regrade-naturality", "tx-naturality",
            (grades, below, names, names, lifts,
             lambda m, n, X, Y, htab: gd.tvals(n, X)), regrade_natural),
        Law("graded-unit-right", "unit-right",
            (names, grades, Guard(lambda G, m: tensor(m, e) in grades),
             names, lambda G, m, A: car[G],
             lambda G, m, A, g: gd.tvals(m, A)), unit_right),
        Law("graded-unit-left", "unit-left",
            (names, grades, Guard(lambda G, m: tensor(e, m) in grades),
             names, names), unit_left),
        Law("graded-associativity", "assoc",
            (grades, grades, grades,
             Guard(lambda l, m, n: tensor(l, m) in grades and
                   tensor(m, n) in grades and
                   tensor(tensor(l, m), n) in grades),
             names, names, names, names),
            lambda l, m, n, G, A, B, Cc: _graded_assoc_combo(
                tables, G, A, B, Cc, l, m, n)),
        Law("graded-context-naturality", "naturality",
            (grades, grades, Guard(lambda m, n: tensor(m, n) in grades),
             names, names, names, names), naturality),
        Law("graded-regrade-compatibility", "regrade-compat",
            (grades, grades, grades,
             Guard(lambda m, n, n2: n >= n2 and tensor(m, n) in grades and
                   tensor(m, n2) in grades),
             names, names, names),
            lambda m, n, n2, G, A, B: _graded_regrade_combo(
                tables, G, A, B, m, n, n2)),
    ]


def _graded_assoc_combo(tables, G, A, B, Cc, l, m, n):
    """g*_{l (x) m, n} o f*_{l,m} vs (g*_{m,n} o f)*_{l, m (x) n} for all f,
    g at once: True, or the evidence of the first failing (f, g, cell).

    At a cell c = (g0, xs) both sides depend on f only through its key
    there: the column of g*_{l (x) m, n} at f*_{l,m}(c), and the columns of
    g*_{m,n} at f's values at (g0, x), x in xs, padded to the longest cell
    with a last g*_{m,n} column of empty lists, which the concatenation
    leaves unchanged.  In blocks of whole cells whose arrays stay within
    GRADED_BLOCK_ELEMENTS elements (one cell at least), the (f, cell) pairs
    are numbered by their keys, and the sides are compared once per class
    of one key, for every g: a column of g*_{l (x) m, n} against the
    concatenation of g*_{m,n}'s columns.  The overrides of the extension of
    h = g*_{m,n} o (pi, f) depend on the whole of h, so the (f, g) pairs
    they apply to are matched and patched one by one.  The first failing
    instance is the one of the loops outer row, cell, inner row, the outer
    one over the smaller of the f and g spaces: each block's least (outer,
    cell) pair and its first inner row, the block with the least outer row
    winning, the earlier one on a tie."""
    gd = tables.gd
    lm, mn = gd.tensor(l, m), gd.tensor(m, n)
    cc = tables.codecs[Cc]
    fmat, fdom = tables.fmat(G, A, m, B)
    extF = tables.ext(G, l, m, A, B)
    extG1 = tables.ext(G, lm, n, B, Cc)
    extG2 = tables.ext(G, m, n, B, Cc)
    nf, ng = len(fmat), len(extG2.mat)
    cm1, cm2 = extG1.colmap, extG2.colmap
    # the offset in colmap of each cell's row, and each part's column of f
    # and row offset, where the padding row gives g2's last column
    off1 = _np.arange(len(extF.cells)) // len(gd.tvals(l, A)) * cm1.shape[1]
    parts, rows = extF.parts
    off2, span2 = rows * cm2.shape[1], len(extG2.cells) + 1
    g1 = extG1.mat
    g2 = _np.hstack([extG2.mat, _np.full((ng, 1), cc.empty, _np.int32)])
    # the overrides of h's extension by cell and table: two that code the
    # same table apply to the same pairs, and the later one wins
    hover = {}
    for coded, ci, v in _coded_overrides(tables.ovr.get((G, l, mn, A, Cc), ()),
                                         list(fdom), cc, extF.cell_index):
        hover[ci, coded.tobytes()] = coded, v
    # per override: its cell, the f rows and g rows of the pairs it
    # patches, and its value
    fcol2 = cm2[_np.arange(len(fdom)) // len(gd.carriers[A]), fmat] \
        if hover else None
    patches = [(ci, *_h_matches(extG2.mat, fcol2, coded), v)
               for (ci, _), (coded, v) in hover.items()]
    # f* at a cell is the concatenation of f's values at its elements but
    # where an override of f* sets it: a cell has at most one class per
    # value of f at each of its distinct elements, and one per override
    nvals, novr = len(gd.tvals(m, B)), len(tables.ovr.get((G, l, m, A, B), ()))
    blocks, size = [], 0
    for ci, (_, xs) in enumerate(extF.cells):
        # a pair's key, columns and count, and the cell's classes, each
        # against every g
        cost = (7 + parts.shape[1]) * nf + \
            3 * ng * min(nf, nvals ** len(set(xs)) + novr)
        if not blocks or size + cost > GRADED_BLOCK_ELEMENTS:
            blocks, size = blocks + [ci], 0
        size += cost
    loop_f, best = nf <= ng, None
    for c0, c1 in zip(blocks, blocks[1:] + [len(extF.cells)]):
        # the block's (f, cell) pairs, f-major: their columns of g1 and g2,
        # and their key, renumbered before it outgrows the block's budget
        w = c1 - c0
        col1 = cm1.take(extF.mat[:, c0:c1] + off1[c0:c1])
        col2 = cm2.take(fmat[:, parts[c0:c1]] + off2[c0:c1])
        key, size = col1.astype(_np.intp), len(extG1.cells) + 1
        for col in col2.transpose(2, 0, 1):
            if size * span2 > GRADED_BLOCK_ELEMENTS:
                key, size = _number(key, size)
            key, size = key * span2 + col, size * span2
        inv, size = _number(key.ravel(), size)
        # the sides of one pair of each class, for every g
        rep = _np.empty(size, dtype=_np.intp)
        rep[inv] = _np.arange(len(inv))
        rf, rc = _np.divmod(rep, w)
        # the first part joined to the empty list is the part itself
        cols, left = col2[rf, rc].T, col1[rf, rc]
        rhs = g2[:, cols[0]] if len(cols) else \
            _np.full((ng, size), cc.empty, dtype=_np.int32)
        for col in cols[1:]:
            rhs = cc.join(rhs, g2[:, col])
        # an override can give f*_{l,m} a value outside T_{l (x) m} B: its
        # column is an appended one of -1s, which no value of g* equals
        if g1 is extG1.mat and (left == len(extG1.cells)).any():
            g1 = _np.hstack([g1, _np.full((ng, 1), -1, _np.int32)])
        bad = g1[:, left] != rhs
        # the block's patched pairs, and the change they make to each one's
        # failure
        ps = [(fs * w + ci - c0, gs, _np.full(len(fs), v))
              for ci, fs, gs, v in patches if c0 <= ci < c1]
        pp, pg, pv = map(_np.concatenate, zip(*ps)) if ps else \
            [_np.empty(0, dtype=_np.intp)] * 3
        pfail = g1[pg, col1.ravel()[pp]] != pv
        delta = pfail.astype(_np.intp) - bad[pg, inv[pp]]
        # the failing g of each pair, or the failing pairs at each g
        count = bad.sum(axis=0)[inv] if loop_f else \
            _np.einsum("gk,k->g", bad, _np.bincount(inv))
        _np.add.at(count, pp if loop_f else pg, delta)
        first = _np.flatnonzero(count)
        if not first.size:
            continue
        o = int(first[0])
        if loop_f:
            # the least (f, cell) pair with a failing g, and its first one
            fails = bad[:, inv[o]].copy()
            fails[pg[pp == o]] = pfail[pp == o]
            (o, c), i = divmod(o, w), int(fails.argmax())
        else:
            # the first g with a failing pair, and its least (cell, f) one
            fails = bad[o, inv]
            fails[pp[pg == o]] = pfail[pg == o]
            c, i = divmod(int(fails.reshape(nf, w).T.argmax()), nf)
        if best is None or o < best[0]:
            best = (o, c0 + c, i)
    if best is None:
        return True
    o, c, i = best
    fi, gi = (o, i) if loop_f else (i, o)
    return (f"f#{fi}", f"g#{gi}", *extF.cells[c])


def _number(key, size):
    """The int keys below size numbered 0, 1, ... in their order, and the
    number of distinct keys."""
    seen = _np.zeros(size, dtype=bool)
    seen[key] = True
    present = _np.flatnonzero(seen)
    number = _np.empty(size, dtype=_np.intp)
    number[present] = _np.arange(len(present))
    return number.take(key), len(present)


def _h_matches(g2, fcol2, coded):
    """The (f, g) rows at which h = g*_{m,n} o (pi, f) is the coded table,
    for g*_{m,n}'s rows g2 and its columns fcol2 at f's values on h's
    domain: (f rows, g rows), g-major.  Each position of the domain
    compares every g row with its coded value once per distinct column;
    the g rows that match at each position somewhere are then matched
    against every f in blocks of whole g rows, one gather per position."""
    eqs, live = [], _np.ones(len(g2), dtype=bool)
    for k, want in enumerate(coded):
        cols, inv = _np.unique(fcol2[:, k], return_inverse=True)
        eqs.append((g2[:, cols] == want, inv.ravel()))
        live &= eqs[-1][0].any(axis=1)
    live = _np.flatnonzero(live)
    fs, gs = [_np.empty(0, dtype=_np.intp)], [_np.empty(0, dtype=_np.intp)]
    rows = max(1, GRADED_BLOCK_ELEMENTS // max(1, len(fcol2)))
    for r in range(0, len(live), rows):
        block = live[r:r + rows]
        match = _np.ones((len(block), len(fcol2)), dtype=bool)
        for eq, inv in eqs:
            match &= eq[block][:, inv]
        g, f = _np.nonzero(match)
        fs.append(f)
        gs.append(block[g])
    return _np.concatenate(fs), _np.concatenate(gs)


def _graded_regrade_combo(tables, G, A, B, m, n, n2):
    """ext_{m,n}(T_xi o f) vs T_{m (+) xi} o ext_{m,n2}(f) for xi : n >= n2,
    and the mirrored condition in the first index (evidence tagged "left"):
    True, or the evidence of the first failing cell.  Each condition
    compares all its cells (g, xs), in loop order, in one gather."""
    gd = tables.gd
    # T_xi o f : every value recoded through the (n, n2) regrade table
    extL = tables.regraded(G, m, n, n2, A, B)
    extR = tables.ext(G, m, n2, A, B)
    mn, mn2 = gd.tensor(m, n), gd.tensor(m, n2)
    hit = _first_diff(extL.mat, tables.regrade_lut(mn, mn2, B)[extR.mat])
    if hit is not None:
        return (*extL.cells[hit[0]], f"f#{hit[1]}")
    # first index: ext(f) o (G x T_xi) vs T_{xi (+) n2} o ext at m
    for m2 in gd.grades:
        if not (m >= m2) or gd.tensor(m2, n2) not in gd.grades:
            continue
        extS = tables.ext(G, m2, n2, A, B)
        lut3 = tables.regrade_lut(mn2, gd.tensor(m2, n2), B)
        cols = [extR.cell_index[(g, gd.tx[(m, m2, A, xs)])]
                for g, xs in extS.cells]
        hit = _first_diff(extR.mat[:, cols], lut3[extS.mat])
        if hit is not None:
            return ("left", m2, *extS.cells[hit[0]], f"f#{hit[1]}")
    return True
