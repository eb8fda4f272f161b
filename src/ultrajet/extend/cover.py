"""Whitney-type interval covers of the complement of a compact 1D set.

Each gap of the working domain gets geometric ladders of intervals marching
toward its set-adjacent ends, radius proportional to distance (ratio 1/4),
stopping at the truncation depth d_min.  The comparability and overlap
constants are measured on the constructed cover, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ExtensionError
from ..jets import CompactSet1D

RADIUS_RATIO = 0.25      # r_i = d(x_i) / 4
LADDER_STEP = 1.5        # geometric spacing of ladder distances
OVERLAP_C = 1.5          # support inflation factor c
MARGIN = 2.0             # the working domain is E's hull widened by this


@dataclass(frozen=True)
class WhitneyCover1D:
    E: CompactSet1D
    balls: tuple                      # of (center, radius)
    c: float
    a: float                          # measured: a r_i <= d(x) on B(x_i, c r_i)
    b: float                          # measured: d(x) <= b r_i
    n0: int                           # measured overlap bound
    d_min: float
    working: tuple                    # (lo, hi)
    degenerate_gaps: tuple = ()

    def covers(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        # one pass per ball: a (probes x balls) table here shows in peak memory
        hit = np.zeros(len(x), dtype=bool)
        for cx, r in self.balls:
            hit |= np.abs(x - cx) < r
        return hit


def whitney_cover(E: CompactSet1D, d_min: float = 1e-6) -> WhitneyCover1D:
    """Cover of {x in working domain : d(x, E) >= d_min} by open intervals.

    Verifies coverage on a probe grid, measures the distance-comparability
    constants (a, b) and the overlap count n0 of the c-inflated intervals,
    and returns them with the cover.
    """
    if not d_min > 0:
        raise ExtensionError(f"d_min must be positive, got {d_min}", code="NON_POSITIVE")
    lo_E, hi_E = E.hull
    lo, hi = lo_E - MARGIN, hi_E + MARGIN
    balls: list[tuple[float, float]] = []
    degenerate = []
    for (g0, g1, left_is_e, right_is_e) in E.gaps(lo, hi):
        length = g1 - g0
        if not left_is_e and not right_is_e:
            continue
        half = 0.5 * length
        if length < 4.0 * d_min and left_is_e and right_is_e:
            # short interior gap: one central interval of radius in
            # (half - d_min, length / 3) reaches every point with d >= d_min,
            # and its c-inflated interval stays off E
            center = 0.5 * (g0 + g1)
            if float(E.distance(center)[0]) >= d_min:
                balls.append((center, 0.5 * ((half - d_min) + length / 3.0)))
                degenerate.append((g0, g1))
            continue
        interior = left_is_e and right_is_e
        # interior ladders only need to reach the central interval's window
        cover_until = (1.0 - RADIUS_RATIO) * half if interior else length
        if left_is_e:
            _ladder(balls, origin=g0, direction=+1.0,
                    cover_until=cover_until, d_min=d_min)
        if right_is_e:
            _ladder(balls, origin=g1, direction=-1.0,
                    cover_until=cover_until, d_min=d_min)
        if interior:
            center = 0.5 * (g0 + g1)
            balls.append((center, half * RADIUS_RATIO))
    balls.sort()
    return _measure(E, tuple(balls), d_min, (lo, hi), tuple(degenerate))


def _ladder(balls, origin: float, direction: float, cover_until: float,
            d_min: float):
    """Geometric ladder at distances d_min * step^j.

    Each interval covers distances (0.75 d, 1.25 d); consecutive rungs
    overlap since the step 1.5 is below 1.25/0.75.  Marches until coverage
    reaches cover_until."""
    dist = d_min
    while True:
        balls.append((origin + direction * dist, dist * RADIUS_RATIO))
        if dist * (1.0 + RADIUS_RATIO) >= cover_until:
            break
        dist *= LADDER_STEP


def _measure(E: CompactSet1D, balls, d_min, working, degenerate) -> WhitneyCover1D:
    """The cover with its measured constants: a and b, the least and the
    largest d(x) / r_i over 17 even probes of each inflated interval
    [x_i - c r_i, x_i + c r_i] inside the open working domain, and n0, the
    most inflated intervals (itself included) that one of them meets."""
    lo, hi = working
    cx, r = np.reshape(balls, (-1, 2)).T
    left, right = cx - OVERLAP_C * r, cx + OVERLAP_C * r
    probes = np.linspace(left, right, 17, axis=1)
    inside = (probes > lo) & (probes < hi)
    ratios = E.distance(probes[inside]) / np.broadcast_to(r[:, None], probes.shape)[inside]
    meets = (left < right[:, None]) & (right > left[:, None])
    cov = WhitneyCover1D(E, tuple(balls), OVERLAP_C, float(ratios.min(initial=math.inf)),
                         float(ratios.max(initial=0.0)), int(meets.sum(axis=1).max(initial=0)),
                         d_min, working, degenerate)
    _verify_coverage(cov)
    return cov


def _verify_coverage(cov: WhitneyCover1D):
    lo, hi = cov.working
    xs = np.linspace(lo + 1e-12, hi - 1e-12, 1000)
    d = cov.E.distance(xs)
    need = d >= cov.d_min
    missed = need & ~cov.covers(xs)
    if np.any(missed):
        raise ExtensionError(
            f"cover misses {np.count_nonzero(missed)} probes, first at "
            f"x={xs[missed][0]:.6g} (d={d[missed][0]:.3g})", code="COVER_INCOMPLETE")
