"""Row quadrature over the tube {|phi| < r} of a field on the circle or
the torus T^2, for :mod:`gausszonoids.fields`.

A row (fixed trailing coordinates) is cut into cells along x1 and scanned
once (:func:`_row_panels`): each cell is split where it crosses the tube
boundary twice and clipped to the tube, and the panels are integrated by
Gauss-Legendre.  On T^2 the rows come from a rule in x2 whose breaks, the
heights where the row integral is not smooth, are found here as well.  The
names are internal; ``fields`` exports :class:`GridResolutionError`.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .geometry import BODY_KINDS
from .kernels import bisect


class GridResolutionError(ValueError):
    """The requested grid cannot resolve the tube (fewer than 8 cells across),
    resolving it would take more cells than the grid allows, or the rule in
    x2 on T^2 cannot pair or converge for the field."""


def _grad_norm(field, pts):
    """|grad phi| on a batch of points, its squares added in order: the one
    norm of the gradient that the section volumes and the resolution rule
    share."""
    g = np.asarray(field.grad(pts), dtype=float)
    sq = g[..., 0] * g[..., 0]
    for i in range(1, field.dim):
        sq += g[..., i] * g[..., i]
    return np.sqrt(sq)


def _section_volume_vec(field, tau, pts, kinds):
    """Section volumes on a batch of points, one array per kind of
    BODY_KINDS in kinds: the body of offset |grad phi|/tau times (2 pi)^(-m/2)
    exp(-m phi^2/(2 tau^2)).  The field and its gradient are evaluated once
    for all."""
    m = field.dim
    phi = np.asarray(field.phi(pts), dtype=float)
    s = _grad_norm(field, pts) / tau
    scale = (2.0 * math.pi) ** (-m / 2) * np.exp(-m * phi * phi / (2.0 * tau * tau))
    return [scale * BODY_KINDS[kind].volume(m, s) for kind in kinds]


# scan points per block of tube rows, and nodes per volume evaluation of a
# block: bounds the memory of the tube integral (the grid scans take slices
# of montecarlo._SLICE points instead)
_BLOCK = 1 << 18
_GL12_X, _GL12_W = np.polynomial.legendre.leggauss(12)


def _at(t, y):
    """Points with first coordinate t and the others y, broadcast to t's shape."""
    if y.shape[-1] == 0:  # the circle: a view, not a copy of a long row
        return t[..., None]
    y = np.broadcast_to(y, t.shape + y.shape[-1:])
    return np.concatenate([t[..., None], y], axis=-1)


def _grid(t, y):
    """The (rows, E, dim) points pairing the abscissae t, shared (E,) or one
    row each (rows, E), with every row y."""
    return _at(np.broadcast_to(t, (y.shape[0], t.shape[-1])), y[:, None])


def _row_blocks(rows, n):
    """Blocks of rows, about _BLOCK points each at n points per row."""
    step = max(1, _BLOCK // n)
    return (rows[j : j + step] for j in range(0, rows.shape[0], step))


def _flat(fn, pts):
    """fn at points of any leading shape, passed to it as one (N, dim) array."""
    vals = np.asarray(fn(pts.reshape(-1, pts.shape[-1])), dtype=float)
    return vals.reshape(pts.shape[:-1] + vals.shape[1:])


def _dphi(field, pts, axis=0):
    """dphi/dx_(axis+1) at points of any leading shape."""
    return _flat(field.grad, pts)[..., axis]


def _row_panels(field, r, n, y):
    """Panels [lo, hi], and the row of each, covering {|phi| < r} on the n
    cells along x1 of each row of a block y, in x1 order per row.

    phi and dphi/dx1 are evaluated once at the cell edges.  A cell whose
    edges lie on one side of r reaches the other side only around a turn of
    |phi| (a sign change of phi * dphi/dx1), e.g. a zero of phi in a tube
    narrower than the cell.  With at most one turn per cell, each such turn,
    found by bisection, splits its cell into two that cross r once.  The
    cells with an end inside the tube are kept, and each whose ends disagree
    is clipped at its crossing, found by bisection, so the tube cutoff adds
    no first-order error.  For r = inf the cells are whole and phi is not
    evaluated."""
    edges, rows = np.linspace(0.0, 2.0 * math.pi, n + 1), y.shape[0]
    if not math.isfinite(r):
        return np.tile(edges[:-1], rows), np.tile(edges[1:], rows), np.repeat(np.arange(rows), n)

    def slope(pts):  # phi, and phi * dphi/dx1, which has the sign of d|phi|/dx1
        phi = _flat(field.phi, pts)
        return phi, phi * _dphi(field, pts)

    phi, s = slope(_grid(edges, y))
    excess = np.abs(phi) - r
    out, falls = excess >= 0.0, s < 0.0
    # only a minimum of |phi| between edges outside the tube, or a maximum
    # between edges inside it, can cross r
    left, right = np.s_[:, :-1], np.s_[:, 1:]
    turning = (falls[left] != falls[right]) & (out[left] == out[right]) & (falls[left] == out[left])
    tr, tc = np.nonzero(turning)
    yt = y[tr]
    turn = bisect(lambda t, i: slope(_at(t, yt[i]))[1], edges[tc], edges[tc + 1], s[tr, tc])
    at_turn = np.abs(_flat(field.phi, _at(turn, yt))) - r
    split = (at_turn >= 0.0) != out[tr, tc]
    # the edges of all rows in turn, each turn between the edges of its cell
    at = (tr * (n + 1) + tc + 1)[split]
    x = np.insert(np.tile(edges, rows), at, turn[split])
    excess = np.insert(excess.ravel(), at, at_turn[split])
    row = np.insert(np.repeat(np.arange(rows), n + 1), at, tr[split])
    inside = excess < 0.0
    i = np.nonzero((row[:-1] == row[1:]) & (inside[:-1] | inside[1:]))[0]
    lo, hi, ri, left_in = x[i], x[i + 1], row[i], inside[i]
    cut = np.nonzero(left_in != inside[i + 1])[0]
    yc = y[ri[cut]]
    at_lo = excess[i[cut]]
    c = bisect(lambda t, i: np.abs(_flat(field.phi, _at(t, yc[i]))) - r, lo[cut], hi[cut], at_lo)
    lo[cut] = np.where(left_in[cut], lo[cut], c)
    hi[cut] = np.where(left_in[cut], c, hi[cut])
    return lo, hi, ri


def _tube_rows(field, tube, grid, kinds, rows):
    """Row integrals of the section volumes over the tube {|phi| < r}: an
    array (kinds, rows) whose entry [i, j] integrates the body kinds[i] over
    the first coordinate on the row of trailing coordinates ``rows[j]``.

    Each row is cut into ``grid.resolution`` cells, split at its turns and
    clipped to the tube in one pass (:func:`_row_panels`), and each panel
    gets 12-point Gauss-Legendre.  Blocks of rows are scanned, bisected and
    evaluated together, one block after another, and each row adds up its
    panels in order."""
    n = grid.resolution
    step = _BLOCK // _GL12_X.size

    def block_rows(y):
        lo, hi, ri = _row_panels(field, tube.r, n, y)
        sums = np.zeros((len(kinds), y.shape[0]))
        for k in range(0, lo.size, step):
            a, b, rk = lo[k : k + step, None], hi[k : k + step, None], ri[k : k + step]
            half = 0.5 * (b - a)
            pts = _at(0.5 * (a + b) + half * _GL12_X, y[rk, None])
            vols = _section_volume_vec(field, tube.tau, pts, kinds)
            cuts = np.flatnonzero(np.diff(rk)) + 1  # the panels of a row are consecutive
            for i, vals in enumerate(vols):
                for j, part in zip(rk[np.r_[0, cuts]], np.split(half * _GL12_W * vals, cuts)):
                    sums[i, j] += float(np.sum(part))
        return sums

    return np.concatenate([block_rows(y) for y in _row_blocks(rows, n)], axis=1)


# the breaks of the x2 rule on T^2: rows that probe for them, and halvings of
# a probe interval whose critical points do not pair
_PROBE_ROWS = 32
_PROBE_SPLITS = 8


def _row_extrema(field, edges, ys):
    """The critical points of phi along each row x2 = ys[j], the sign
    changes of dphi/dx1 on the cells between edges, bisected.  One tuple per
    row: their abscissae, which are minima, and phi and dphi/dx2 there."""
    y = ys[:, None]
    slope = _dphi(field, _grid(edges, y))
    falls = slope < 0.0
    ri, ci = np.nonzero(falls[:, :-1] != falls[:, 1:])
    yt = y[ri]
    t = bisect(lambda t, i: _dphi(field, _at(t, yt[i])), edges[ci], edges[ci + 1], slope[ri, ci])
    pts = _at(t, yt)
    phi = _flat(field.phi, pts)
    d2 = _dphi(field, pts, 1)
    rows = np.searchsorted(ri, np.arange(1, ys.size))
    parts = [np.split(v, rows) for v in (t, falls[ri, ci], phi, d2)]
    return list(zip(*parts))


def _branch_value(field, fn, lo, hi, x2):
    """fn at the critical point of phi(., x2[i]) in [lo[i], hi[i]], for each
    i; a bracket without a sign change of dphi/dx1 raises
    GridResolutionError."""
    y = x2[:, None]
    f_lo, f_hi = _dphi(field, _at(lo, y)), _dphi(field, _at(hi, y))
    if np.any((f_lo < 0.0) == (f_hi < 0.0)):
        raise GridResolutionError(
            "a critical point of phi moves too far between the probe rows of the x2 rule"
        )
    t = bisect(lambda t, i: _dphi(field, _at(t, y[i])), lo, hi, f_lo)
    return fn(_at(t, y))


def _pair(field, y0, y1, a, b):
    """The segments of the branches of critical points of phi between the
    probe rows y0 and y1, whose extrema are a and b (:func:`_row_extrema`):
    x1 brackets and the data at both ends, or None where the extrema do not
    pair.

    They pair when some cyclic shift matches each extremum of a with one of
    the same kind in b, all within a quarter of the least gap between the
    extrema of either row, and each bracket (spanning both ends, plus that
    quarter) still holds one sign change of dphi/dx1 halfway between the
    rows."""
    (ta, min_a, phi_a, d2_a), (tb, min_b, phi_b, d2_b) = a, b
    c = ta.size
    if tb.size != c:
        return None
    if c == 0:
        return np.zeros((8, 0))
    gap = min(np.min(np.diff(np.append(t, t[0] + 2.0 * math.pi))) for t in (ta, tb))
    for shift in range(c):
        k = np.roll(np.arange(c), -shift)
        moved = (tb[k] - ta + math.pi) % (2.0 * math.pi) - math.pi
        if np.array_equal(min_a, min_b[k]) and np.max(np.abs(moved)) < gap / 4:
            lo = ta + np.minimum(moved, 0.0) - gap / 4
            hi = ta + np.maximum(moved, 0.0) + gap / 4
            mid = np.full((c, 1), 0.5 * (y0 + y1))
            falls_lo = _dphi(field, _at(lo, mid)) < 0.0
            falls_hi = _dphi(field, _at(hi, mid)) < 0.0
            if np.array_equal(falls_lo, min_a) and np.array_equal(falls_hi, ~min_a):
                ends = np.full(c, y0), np.full(c, y1)
                return np.stack([*ends, lo, hi, phi_a, phi_b[k], d2_a, d2_b[k]])
    return None


def _fold_breaks(field, r, n):
    """The heights x2 in [0, 2 pi) at which the row integral of the tube
    {|phi| < r} is not smooth, or [0] when there is none.

    Such a height is a fold, where the tube boundary touches a row: a
    critical point of phi along the row at |phi| = r; or a critical point of
    phi on T^2, where the boundary may cross itself.  The critical points
    along the rows are found on _PROBE_ROWS rows of n cells, and those of
    adjacent probe rows are paired into branch segments (:func:`_pair`); an
    interval whose points do not pair is halved, at most _PROBE_SPLITS
    times, before GridResolutionError.  On each segment a sign change of
    dphi/dx2 marks a critical point of phi, which splits the segment where
    phi is monotone; a sign change of phi - r or of phi + r on such a part
    marks a fold, so a part on which phi passes 0 can hold two.  Both are
    bisected in x2."""
    if not math.isfinite(r):
        return np.zeros(1)
    edges = np.linspace(0.0, 2.0 * math.pi, n + 1)
    ys = np.linspace(0.0, 2.0 * math.pi, _PROBE_ROWS + 1)
    rows = _row_extrema(field, edges, ys[:-1])
    rows.append(rows[0])  # x2 = 2 pi is x2 = 0
    todo = [(ys[j], ys[j + 1], rows[j], rows[j + 1], 0) for j in range(_PROBE_ROWS)]
    segments = []
    while todo:
        y0, y1, a, b, depth = todo.pop()
        seg = _pair(field, y0, y1, a, b)
        if seg is not None:
            segments.append(seg)
        elif depth == _PROBE_SPLITS:
            raise GridResolutionError(
                f"the critical points of phi do not pair between the rows x2 = {y0:.6g} "
                f"and {y1:.6g} of the x2 rule"
            )
        else:
            ym = 0.5 * (y0 + y1)
            (mid,) = _row_extrema(field, edges, np.array([ym]))
            todo += [(y0, ym, a, mid, depth + 1), (ym, y1, mid, b, depth + 1)]
    y0, y1, lo, hi, phi0, phi1, d2_0, d2_1 = np.concatenate(segments, axis=1)

    def along(fn, seg, start, stop, f_start):
        """The x2 in [start, stop] where fn changes sign at the critical
        point of the segments seg, by bisection."""
        lo_s, hi_s = lo[seg], hi[seg]
        return bisect(
            lambda x2, i: _branch_value(field, fn, lo_s[i], hi_s[i], x2), start, stop, f_start
        )

    crit = np.nonzero((d2_0 < 0.0) != (d2_1 < 0.0))[0]
    top = along(lambda pts: _dphi(field, pts, 1), crit, y0[crit], y1[crit], d2_0[crit])
    phi = functools.partial(_flat, field.phi)
    phi_top = _branch_value(field, phi, lo[crit], hi[crit], top) if crit.size else top
    # the parts of the segments on which phi is monotone: split at the tops
    part = np.concatenate([np.arange(y0.size), crit])
    start, stop = np.concatenate([y0, top]), np.concatenate([y1, y1[crit]])
    at_start, at_stop = np.concatenate([phi0, phi_top]), np.concatenate([phi1, phi1[crit]])
    stop[crit], at_stop[crit] = top, phi_top
    breaks = [top]
    for v in (r, -r):  # a monotone part passes each level at most once
        fold = np.nonzero((at_start - v < 0.0) != (at_stop - v < 0.0))[0]
        f_start = at_start[fold] - v
        breaks.append(along(lambda pts: phi(pts) - v, part[fold], start[fold], stop[fold], f_start))
    breaks = np.unique(np.mod(np.concatenate(breaks), 2.0 * math.pi))
    return breaks if breaks.size else np.zeros(1)


@functools.lru_cache(maxsize=None)
def _x2_nodes(order):
    """Gauss-Legendre of the given order in u on [0, 1], mapped by
    s = sin^2(pi u / 2): the nodes s and the weights of ds."""
    x, w = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (1.0 + x)
    return np.sin(0.5 * math.pi * u) ** 2, 0.25 * math.pi * w * np.sin(math.pi * u)


def _x2_quad(field, tube, grid, kinds, a, b, order):
    """The rule of the given order on each piece [a, b] of x2: an array
    (kinds, pieces) of integrals of the row integrals."""
    s, w = _x2_nodes(order)
    width = (b - a)[:, None]
    rows = _tube_rows(field, tube, grid, kinds, (a[:, None] + width * s).reshape(-1, 1))
    return np.sum(rows.reshape(len(kinds), a.size, order) * (width * w), axis=-1)
