"""Rectangular periodic billiard (Lorentz gas) at the diagonal direction.

Obstacles are a x b axis-aligned rectangles centered at the integer lattice,
with the small-obstacle condition a + b <= 1.  A unit-speed ball moves along
slopes +-1 and reflects specularly.  Every reflection toggles the slope, so
the second return to the outgoing-ray section splits into two invariant
copies; on the slope +1 copy the dynamics is conjugate to the rotation by

    alpha = a / (a + b)

via the chart used throughout this module.  With s = a + b, a slope +1 ray
x - y = (m - n) + d meets the obstacle family of diagonal (m - n) iff
|d| <= s/2, and an outgoing state is (direction NE/SW, offset d):

    chart:  NE -> chi = (d + s/2) / (2s) in (0, 1/2),
            SW -> chi = 1 - (d + s/2) / (2s) in (1/2, 1).

Two collisions advance chi by exactly alpha and displace the obstacle index
by 2 * Psi(chi), where the displacement takes the four values

    (0,1) on (0, (1-alpha)/2),   (1,0) on ((1-alpha)/2, 1/2),
    (0,-1) on (1/2, 1-alpha/2),  (-1,0) on (1-alpha/2, 1).

The ray tracer below is deliberately independent of that structure: it walks
x-slabs and intersects rectangles geometrically, in exact integers over the
common denominator D of the start point and a/2, b/2 (slopes +-1 keep every
hit point and path length a multiple of 1/D, and corner hits are exact
equality tests), so its cell sequence against the cocycle is a two-route test.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .contfrac import RationalTruncation
from .errors import (BoundaryError, CertificateError, ConfigError,
                     SingularOrbitError, _at_least, _point, _rational)
from .observables import (TWO_PI, VectorObservable, _table_length,
                          billiard_displacement, reduce_phases, series_weights)
from .ergosum import ErgodicContext
from .sequences import SubsequencePlan
from .stats import ExperimentReport, covariance_2d
from .variance import AlphaFourierTable

__all__ = [
    "ObstacleParams",
    "LatticeState",
    "PathEvent",
    "BilliardOrbit",
    "displacement",
    "psi_components",
    "cell_after",
    "cell_after_direct",
    "section_start",
    "ray_trace",
    "hitting_time",
    "hitting_time_profile",
    "estimate_c",
    "params_for_plan",
    "mild_hypothesis_values",
    "clt_experiment",
]

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ObstacleParams:
    """Rectangle half-axes aligned sides a (width) and b (height), rational."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        a, b = _rational("side a", self.a), _rational("side b", self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not (0 < a < 1 and 0 < b < 1):
            raise ConfigError("sides must lie in (0,1)")
        if a + b > 1:
            raise ConfigError(f"small-obstacle condition violated: a+b = {a + b} > 1")

    @property
    def s(self) -> Fraction:
        return self.a + self.b

    @cached_property
    def alpha(self) -> Fraction:
        return self.a / (self.a + self.b)

    @property
    def strict(self) -> bool:
        return self.s < 1


@dataclass(frozen=True)
class LatticeState:
    """Skew-product state: circle coordinate x and a lattice cell z."""

    x: Fraction
    z: tuple[int, int]


@dataclass(frozen=True)
class PathEvent:
    """One obstacle collision: Euclidean time, exact position, obstacle index,
    and which side was struck."""

    time: float
    t_exact: Fraction       # path length in units of |dx| (time = sqrt(2) t)
    position: tuple[Fraction, Fraction]
    obstacle: tuple[int, int]
    side: str               # left|right|top|bottom


@dataclass(frozen=True)
class BilliardOrbit:
    """A traced orbit.  Each hit is kept as the tracer computed it, in
    integers over the common denominator D: (T, px, py, obstacle, side) with
    path length T/D (in units of |dx|) and hit point (px/D, py/D).
    ``events`` builds the PathEvents from these records on first access."""

    chi: Fraction
    start: tuple[Fraction, Fraction]
    direction0: tuple[int, int]
    D: int
    hits: tuple[tuple[int, int, int, tuple[int, int], str], ...]

    @cached_property
    def events(self) -> tuple[PathEvent, ...]:
        """The hits as PathEvents, built on first access and then kept."""
        D = self.D
        return tuple(
            PathEvent(time=T / D * SQRT2, t_exact=Fraction(T, D),
                      position=(Fraction(px, D), Fraction(py, D)),
                      obstacle=obstacle, side=side)
            for T, px, py, obstacle, side in self.hits)

    def cells(self) -> list[tuple[int, int]]:
        """Cell labels after each double collision: (O_{2j} - O_0)/2."""
        out = []
        for _, _, _, (om, on), _ in self.hits[1::2]:
            if om % 2 or on % 2:
                raise CertificateError("obstacle displacement not even")
            out.append((om // 2, on // 2))
        return out

    def _second_hit_numerator(self) -> int:
        if len(self.hits) < 2:
            raise ConfigError("orbit too short")
        return self.hits[1][0]

    def hitting_time(self) -> float:
        """Path length to the second obstacle collision."""
        return self._second_hit_numerator() / self.D * SQRT2

    def hitting_time_exact(self) -> Fraction:
        return Fraction(self._second_hit_numerator(), self.D)


# ---------------------------------------------------------------------------
# Displacement cocycle and the arithmetic engine
# ---------------------------------------------------------------------------

def _psi(u: int, v: int, p: int, q: int) -> tuple[int, int]:
    """Psi(u/v) for 0 <= u < v and alpha = p/q, by integer cross-multiplying."""
    # 2qu against 2qv times the breakpoints (1-alpha)/2, 1/2, 1-alpha/2
    u2q, c1, c2, c3 = 2 * q * u, v * (q - p), v * q, v * (2 * q - p)
    if u == 0 or u2q in (c1, c2, c3):
        raise BoundaryError(f"x = {Fraction(u, v)} is a displacement breakpoint")
    if u2q < c2:
        return (0, 1) if u2q < c1 else (1, 0)
    return (0, -1) if u2q < c3 else (-1, 0)


def displacement(x: Fraction, params: ObstacleParams) -> tuple[int, int]:
    """Psi(x): the four-valued cell step of one double collision."""
    alpha = params.alpha
    return _psi(*_point("x", x), alpha.numerator, alpha.denominator)


def psi_components(params: ObstacleParams) -> VectorObservable:
    """Psi = (psi1, psi2) as centered step observables."""
    return billiard_displacement(params.alpha)


def step(state: LatticeState, params: ObstacleParams) -> LatticeState:
    """One skew-product move (x, z) -> (x + alpha, z + Psi(x))."""
    u, v = _point("x", state.x)
    p, q = params.alpha.numerator, params.alpha.denominator
    dz1, dz2 = _psi(u, v, p, q)
    z1, z2 = state.z
    vq = v * q
    return LatticeState(Fraction((u * q + p * v) % vq, vq), (z1 + dz1, z2 + dz2))


def cell_after_direct(n: int, x: Fraction, params: ObstacleParams) -> tuple[int, int]:
    """S(n, Psi)(x) by literal skew-product iteration (exact, O(n))."""
    n = _at_least("n", n, 0)
    u, v = _point("x", x)
    p, q = params.alpha.numerator, params.alpha.denominator
    # x_j = u_j / (vq) with u_j = (u q + j p v) mod vq
    w, u, dp = v * q, u * q, p * v
    z1 = z2 = 0
    for _ in range(n):
        dz1, dz2 = _psi(u, w, p, q)
        z1 += dz1
        z2 += dz2
        u = (u + dp) % w
    return (z1, z2)


def cell_after(n: int, x: Fraction, params: ObstacleParams) -> tuple[int, int]:
    """S(n, Psi)(x) via one exact floor-sum context for both components."""
    n = _at_least("n", n, 0)
    u, v = _point("x", x)
    v1, v2 = _cell_context(params, v).sum_at(u, n)
    z1, z2 = int(v1), int(v2)
    if z1 != v1 or z2 != v2:
        raise CertificateError("displacement sums must be integers")
    return (z1, z2)


@lru_cache(maxsize=16)
def _cell_context(params: ObstacleParams, x_den: int) -> ErgodicContext:
    """The context of psi1 and psi2 for one obstacle shape and sample
    denominator, built once.  The rotation by alpha = a/(a+b) is genuinely
    rational, so the kernel sums it exactly at every N."""
    return ErgodicContext(psi_components(params).components, params.alpha,
                          x_den)


# ---------------------------------------------------------------------------
# Geometry: section chart and the exact ray tracer
# ---------------------------------------------------------------------------

def section_start(chi: Fraction, params: ObstacleParams):
    """(position on the boundary of obstacle (0,0), direction) for the
    outgoing slope +1 section coordinate chi in (0,1) \\ {1/2}."""
    chi = Fraction(*_point("chi", chi))
    if chi == 0 or chi == Fraction(1, 2):
        raise BoundaryError("chi on the copy boundary")
    a, b, s = params.a, params.b, params.s
    if chi < Fraction(1, 2):
        d = 2 * s * chi - s / 2
        direction = (1, 1)
        if d <= (a - b) / 2:
            pos = (d + b / 2, b / 2)          # leaves through the top
        else:
            pos = (a / 2, a / 2 - d)          # leaves through the right side
    else:
        d = 2 * s * (1 - chi) - s / 2
        direction = (-1, -1)
        if d <= (b - a) / 2:
            pos = (-a / 2, -a / 2 - d)        # leaves through the left side
        else:
            pos = (d - b / 2, -b / 2)         # leaves through the bottom
    return pos, direction


# Obstacle columns _first_hit walks before giving up on a ray.
_MAX_SLABS = 256


def _first_hit(px: int, py: int, sx: int, sy: int, ha: int, hb: int, D: int):
    """First obstacle intersection of the ray (px,py) + t(sx,sy), t > 0.

    Slab walking on numerators over D (the point, ha = a/2, hb = b/2 and the
    returned t); raises ``SingularOrbitError`` on exact corner/tangent hits.
    The walk runs in the mirror image where the ray moves along (1, 1): the
    obstacle lattice is symmetric, so every t is unchanged, and column m,
    row n there are column sx*m, row sy*n of the ray's own frame.
    """
    X, Y = sx * px, sy * py
    x_side = "left" if sx > 0 else "right"
    y_side = "bottom" if sy > 0 else "top"
    hb2 = 2 * hb
    m = X // D - 1
    tx_mid = m * D - X  # t at which the ray crosses the axis of column m
    for _ in range(_MAX_SLABS):
        m += 1
        tx_mid += D
        # t-interval where the x-coordinate crosses the slab of column m
        tx_lo, tx_hi = tx_mid - ha, tx_mid + ha
        if tx_hi <= 0:
            continue
        # rows whose band meets the ray over the slab, in ascending sy*n
        # (which fixes the obstacle a singular-hit error names)
        n_lo = -((hb - Y - (tx_lo if tx_lo > 0 else 0)) // D)
        n_hi = (Y + tx_hi + hb) // D
        rows = range(n_lo, n_hi + 1) if sy > 0 else range(n_hi, n_lo - 1, -1)
        best = None
        for n in rows:
            ty_lo = n * D - hb - Y
            ty_hi = ty_lo + hb2
            t_enter = tx_lo if tx_lo > ty_lo else ty_lo
            t_exit = tx_hi if tx_hi < ty_hi else ty_hi
            if t_enter <= 0 or t_enter > t_exit:
                continue
            if t_enter == t_exit or tx_lo == ty_lo:
                raise SingularOrbitError(
                    f"corner/tangent hit at obstacle ({sx * m},{sy * n})")
            if best is None or t_enter < best[0]:
                best = (t_enter, (sx * m, sy * n),
                        x_side if tx_lo > ty_lo else y_side)
        if best is not None:
            return best
    raise SingularOrbitError("no obstacle found within the slab horizon")


def ray_trace(chi: Fraction, params: ObstacleParams, collisions: int = 2) -> BilliardOrbit:
    """Event-driven diagonal billiard flow from the section coordinate chi.

    Returns the orbit with ``collisions`` obstacle hits; reflection flips the
    velocity component normal to the struck side.
    """
    collisions = _at_least("collisions", collisions, 1)
    pos, direction = section_start(chi, params)
    exact = (*pos, params.a / 2, params.b / 2)
    D = math.lcm(*(v.denominator for v in exact))
    px, py, ha, hb = (int(v * D) for v in exact)  # numerators over D
    sx, sy = direction
    hits = []
    T = 0
    for _ in range(collisions):
        t, obstacle, side = _first_hit(px, py, sx, sy, ha, hb, D)
        T += t
        px += sx * t
        py += sy * t
        hits.append((T, px, py, obstacle, side))
        if side in ("left", "right"):
            sx = -sx
        else:
            sy = -sy
    return BilliardOrbit(chi=_rational("chi", chi), start=pos, direction0=direction,
                         D=D, hits=tuple(hits))


def hitting_time(chi: Fraction, params: ObstacleParams) -> float:
    """psi(chi): path length from the section point to the second collision."""
    return ray_trace(chi, params, collisions=2).hitting_time()


# ---------------------------------------------------------------------------
# The hitting-time observable as exact piecewise-linear data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewiseLinear:
    """g(x) = slopes[i] * x + intercepts[i] on [breaks[i], breaks[i+1]);
    the physical time is sqrt(2) * g."""

    breaks: tuple[Fraction, ...]
    slopes: tuple[Fraction, ...]
    intercepts: tuple[Fraction, ...]

    def evaluate(self, x: Fraction) -> Fraction:
        x = Fraction(*_point("x", x))
        i = bisect.bisect_right(self.breaks, x) - 1
        return self.slopes[i] * x + self.intercepts[i]

    def mean(self) -> Fraction:
        total = Fraction(0)
        for i, lo in enumerate(self.breaks):
            hi = self.breaks[i + 1] if i + 1 < len(self.breaks) else Fraction(1)
            s, c = self.slopes[i], self.intercepts[i]
            total += s * (hi * hi - lo * lo) / 2 + c * (hi - lo)
        return total

    def gamma_array(self, rmax: int) -> np.ndarray:
        """gamma_r = r c_r of the centered function for r = 1..rmax, from
        the jump at each piece's right edge and the piece's slope, with
        exactly reduced phases.  Real and imaginary parts are summed piece
        by piece in the order and rounding of scalar complex arithmetic,
        so the table equals the one-r-at-a-time closed form bit for bit.
        """
        rmax = _table_length(rmax)

        def unit(t):  # e^{-2 pi i r t} as (cos, sin) float64 rows
            angle = -TWO_PI * reduce_phases(*_point("break", t), rmax)[1]
            return np.cos(angle), np.sin(angle)

        k = len(self.breaks)
        w = TWO_PI * np.arange(1, rmax + 1, dtype=np.float64)
        re = np.zeros(rmax)
        im = np.zeros(rmax)
        cos_lo, sin_lo = unit(self.breaks[0])
        for i in range(k):
            hi = self.breaks[i + 1] if i + 1 < k else Fraction(1)
            nxt = self.slopes[(i + 1) % k] * (hi % 1) + self.intercepts[(i + 1) % k]
            cur = self.slopes[i] * hi + self.intercepts[i]
            jump = float(nxt - cur)  # jump at the right edge of piece i
            cos_hi, sin_hi = unit(hi)
            re += jump * cos_hi
            im += jump * sin_hi
            s = float(self.slopes[i])
            # slope term s (e_hi - e_lo) / (-2 pi i r)
            re -= s * (sin_hi - sin_lo) / w
            im += s * (cos_hi - cos_lo) / w
            cos_lo, sin_lo = cos_hi, sin_hi
        return im / TWO_PI - 1j * (re / TWO_PI)  # acc / (2 pi i)


def hitting_time_profile(params: ObstacleParams) -> PiecewiseLinear:
    """Exact piecewise-linear chart of psi/sqrt(2) in the section coordinate.

    Candidate breakpoints are the collision sub-case boundaries; slopes and
    intercepts are fitted from two exact ray traces per piece and validated
    at a third point.
    """
    a, b, s = params.a, params.b, params.s

    def chi_ne(d):
        return (d + s / 2) / (2 * s)

    def chi_sw(d):
        return 1 - (d + s / 2) / (2 * s)

    cand = {Fraction(0), Fraction(1, 2), Fraction(1)}
    for d in ((b - 3 * a) / 2, (b - a) / 2, (3 * b - a) / 2, (a - b) / 2):
        if -s / 2 <= d <= s / 2:
            cand.add(chi_ne(d))
    for d in ((a - 3 * b) / 2, (a - b) / 2, (3 * a - b) / 2, (b - a) / 2):
        if -s / 2 <= d <= s / 2:
            cand.add(chi_sw(d))
    breaks = sorted(v for v in cand if 0 <= v < 1)
    slopes, intercepts = [], []
    for i, lo in enumerate(breaks):
        hi = breaks[i + 1] if i + 1 < len(breaks) else Fraction(1)
        x1 = lo + (hi - lo) / 5
        x2 = lo + 3 * (hi - lo) / 5
        x3 = lo + 4 * (hi - lo) / 7
        y1 = ray_trace(x1, params, 2).hitting_time_exact()
        y2 = ray_trace(x2, params, 2).hitting_time_exact()
        slope = (y2 - y1) / (x2 - x1)
        intercept = y1 - slope * x1
        y3 = ray_trace(x3, params, 2).hitting_time_exact()
        if slope * x3 + intercept != y3:
            raise CertificateError(
                f"hitting time not affine on piece [{lo},{hi})")
        slopes.append(slope)
        intercepts.append(intercept)
    return PiecewiseLinear(tuple(breaks), tuple(slopes), tuple(intercepts))


def estimate_c(params: ObstacleParams, n_starts: int = 2000, seed: int = 0):
    """(monte_carlo, quadrature): mean hitting time by seeded random starts
    and by exact integration of the piecewise-linear chart."""
    n_starts = _at_least("n_starts", n_starts, 1)
    seed = _at_least("seed", seed, 0)
    rng = np.random.default_rng(seed)
    prof = hitting_time_profile(params)
    exact = float(prof.mean()) * SQRT2
    total = 0.0
    count = 0
    den = 2 ** 40
    while count < n_starts:
        chi = Fraction(int(rng.integers(1, den)), den)
        try:
            total += hitting_time(chi, params)
        except (SingularOrbitError, BoundaryError):
            continue
        count += 1
    return total / count, exact


# ---------------------------------------------------------------------------
# CLT experiment
# ---------------------------------------------------------------------------

def params_for_plan(trunc: RationalTruncation, scale: Fraction = Fraction(1)) -> ObstacleParams:
    """Obstacle sides realizing alpha = trunc.value: a = alpha*s, b = (1-alpha)*s."""
    scale = _rational("scale", scale)
    if not 0 < scale <= 1:
        raise ConfigError("scale must be in (0,1]")
    alpha = trunc.value
    return ObstacleParams(a=alpha * scale, b=(1 - alpha) * scale)


def mild_hypothesis_values(spec, ns) -> list[float]:
    """n^{-1/2} sum_{j <= ln n} a_{j+1} over the given horizons; tends to 0
    for tame quotient growth."""
    out = []
    for n in ns:
        if not 1 <= n < math.inf:
            raise ConfigError(f"horizons must be finite and >= 1, got {n}")
        j_max = int(math.log(n))
        total = sum(spec.a(j + 1) for j in range(1, j_max + 1))
        out.append(total / math.sqrt(n))
    return out


# Plan positions m of the hitting-time drift check, and its series length.
_DRIFT_NS = (10, 20, 40)
_DRIFT_RMAX = 20_000


def clt_experiment(params: ObstacleParams, plan: SubsequencePlan, n: int,
                   samples: int, seed: int) -> ExperimentReport:
    """Vector CLT of the displacement cocycle along the plan, plus the
    hitting-time drift check ||psi0_{L_m}||_2^2 / m at the plan positions
    _DRIFT_NS that the plan reaches.

    The drift norms use the Fourier series of the centered piecewise-linear
    hitting time, truncated at _DRIFT_RMAX (truncation reported, not
    bounded: the astronomical L_m rules out exact integration)."""
    if plan.trunc.value != params.alpha:
        raise ConfigError("plan truncation does not drive this obstacle shape")
    vec = psi_components(params)
    report = covariance_2d(plan, vec, n, samples, seed)
    prof = hitting_time_profile(params)
    mean = prof.mean()
    table = AlphaFourierTable(plan.trunc, _DRIFT_RMAX)
    g = prof.gamma_array(_DRIFT_RMAX)
    # |gamma|^2 rounded as scalar abs(g) ** 2 rounds it (hypot, then pow);
    # np.abs(g) ** 2 differs in the last bit on about a quarter of the terms
    w = series_weights(np.float_power(np.hypot(g.real, g.imag), 2.0))
    drift = {}
    for m in _DRIFT_NS:
        if m > plan.count:
            continue
        val = float(np.sum(w * table.gn(plan.L[m])))
        drift[str(m)] = 2.0 * val / m  # physical time scale: psi = sqrt2 * g
    report.kind = "billiard_clt"
    report.extra.update({
        "psi_mean_time": float(mean) * SQRT2,
        "psi0_norm_sq_over_n": drift,
        "drift_rmax": _DRIFT_RMAX,
        "params": {"a": str(params.a), "b": str(params.b)},
    })
    report.extra["drift_bounded"] = (
        max(drift.values()) <= 4.0 * min(drift.values()) + 1e-9 if drift else None)
    return report
