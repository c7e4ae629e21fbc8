"""Ergodic sums S_N phi(x) = sum_{j<N} phi(x + j alpha) over a rational
truncation of alpha, computed exactly.

One engine, the visit-count kernel ``ErgodicContext``: O(#jumps * log N)
big-integer work.  This is what makes sums at N with hundreds of digits
feasible: with everything written over a common denominator L,

    #{j < N : (A + j P) mod L < C}
        = sum_{j<N} ( floor((A + jP)/L) - floor((A - C + jP)/L) ),

and each floor sum collapses by the Euclid recursion.  The kernel makes
one floor sum per distinct offset C, over the union of the jump points of
all the observables it is given (C = 0 included wherever one jumps
there), and applies each observable's jumps to those counts.  It reads
only the observable's exact form, its jumps plus a constant slope, whose
affine term is closed-form: the sawtooth {x}-1/2 is one jump -1 at 0
plus slope 1.  The billiard's psi1 and psi2 share their four jump
points, so a sample of both costs four floor sums.  ``count_visits`` is
the same kernel applied to an interval's indicator.  The literal O(N)
summation, ``_direct_sum``, stays private as the tests' oracle.

The floor sums of one sample set differ only in their offset A - C, so
``floor_sum`` splits the Euclid recursion into a chain that depends on
(N, P, L) alone, built once per (N, rotation, denominator) and cached,
and a walk per offset.  The chain runs the recursion at each level's
nominal carry, so a walk level adds one stored number and takes one
divmod by a, whose quotient tells whether the carry is the nominal one;
it divides by c only where the carry misses the nominal one.  Its cost is
linear, not quadratic, in the operand size.
``ErgodicContext.sums_at`` draws a whole sample set at one N on this
split: it checks the operands and the window once, fetches the chain once
and walks each offset per point, and it rounds each exact integer
numerator over its denominator once to float64 with int / int, so no
Fraction or gcd is made per sample.

The same module holds the one exact profile of x -> S_n phi(x), used for
exact sup norms, exact L2 integrals and the periodic-approximation error.
It reads the same jumps and slope, and works on integers over the common
denominator L of the rotation and the jump points: the n * #jumps jump
positions are sorted once and the levels are running sums of the integer
jumps, as int64 arrays while every product fits below 2**62 and as object
arrays of Python ints beyond.  The Ostrowski
bound certificate closes the module.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .contfrac import RationalTruncation, ostrowski_digits
from .errors import (CertificateError, ConfigError, _at_least, _integers,
                     _point, _rational)
from .observables import (_INT64_SAFE, Observable, _scalar,
                          _step_from_jumps)

__all__ = [
    "floor_sum",
    "count_visits",
    "ergodic_sum",
    "ErgodicContext",
    "OrbitProfile",
    "orbit_sum_profile",
    "approx_error_sq",
    "ostrowski_bound_check",
]


def floor_sum(n: int, a: int, b: int, c: int) -> int:
    """sum_{j=0}^{n-1} floor((a*j + b)/c) in O(log max(a,c)) integer steps.

    c must be >= 1; a and b may be negative (reduced first).  The operands
    must be integers (Python or numpy); anything else raises ConfigError.
    The Euclid chain of (n, a, c) is built once and cached, so further sums
    with the same (n, a, c) and another b cost one linear-size walk each.
    """
    n, a, b, c = _integers("floor_sum operands", n, a, b, c)
    _at_least("modulus c", c, 1)
    _at_least("n", n, 0)
    if n == 0:
        return 0
    return _walk(_chain(n, a, c), b)


def _tri(n: int) -> int:
    return n * (n - 1) // 2


@lru_cache(maxsize=8)
def _chain(n: int, a: int, c: int):
    """The Euclid recursion of floor_sum(n, a, b, c) at the nominal carries.

    Level i rewrites sum_{j<n} floor((a j + b)/c), 0 <= a, b < c, as
    sum_{j<n'} floor((c j + b')/a) with n' = floor((a n + b)/c).  The chain
    takes n' at its nominal value Q + e, where Q, D = divmod(a n, c) and the
    carry e = round(D / c) is 0 or 1, one comparison; the level keeps
    (D - e c, c, a, k, Q + e), k = c // a, and k T(Q + e) goes into the
    part of the sum that b does not move, so that every quadratic-size
    product and division happens here, once per (n, a, c), and a walk
    level is one divmod by a.  The next level recurses on the nominal
    n = Q + e.  On the CLI's widest sample sets the walk misses the
    nominal carry at about 0.2% of levels.
    """
    ka, a = divmod(a, c)
    base = ka * _tri(n)
    n0, c0 = n, c
    levels = []
    while n and a:
        Q, D = divmod(a * n, c)
        if 2 * D >= c:
            Q += 1
            D -= c
        k, rest = divmod(c, a)
        base += k * _tri(Q)
        levels.append((D, c, a, k, Q))
        n, a, c = Q, rest, a
    return n0, c0, base, tuple(levels)


def _walk(chain, b: int) -> int:
    """floor_sum at offset b along a chain.  A level adds its stored D to
    b, and the sum x = b + D lies in [0, c) exactly when the level's carry
    is the nominal one: then n' is the chain's Q + e, b becomes x mod a and
    the level adds n' s, s = x // a.  One divmod by a gives s and x mod a,
    and every 0 <= s <= k takes that path: at s = k and x >= c the carry
    misses by 1, but the miss adds the same k (Q + e) and leaves the same
    b.  Any other x misses: one divmod by c gives the miss d, so
    n' = Q + e + d; the level adds k (T(n') - T(Q + e)) =
    k (d (Q + e) + T(d)) and n' s, and carries the miss into the next
    level's a n as d times that level's a.  The terms that b moves, about
    as wide as n, gather in a narrow accumulator added to the wide total
    once.

    Where the chain ends, at the level whose nominal n' is 0, a miss
    leaves d terms of a next level, floor((a' j + b) / a) for j < d, and
    the walk skips them: d <= 1 there, and the one term is 0 as b < a.
    For the b a level starts from is below c + a (b < c0 at the first
    level).  Then x < 3c/2 + a, since D < c/2, so d <= 2; d <= 1 leaves a
    next b below a + d a', a' = c - k a the next level's a; and d = 2
    needs a > c/2, so k = 1, x - 2c < (a - a')/2 and the next b is below
    (a + 3a')/2 < a + a'.  At the last level Q = e = 0, and the chain
    built it on a nominal n >= 1, so a <= a n = D < c/2, x < c + 2D < 2c
    and d <= 1."""
    n0, c0, base, levels = chain
    B, b = divmod(b, c0)
    acc = 0
    for D, c, a, k, n in levels:
        b += D
        s, r = divmod(b, a)
        if 0 <= s <= k:
            acc += n * s
            b = r
            continue
        d, b = divmod(b, c)
        acc += k * (d * n + _tri(d))
        s, b = divmod(b, a)
        acc += (n + d) * s
        b += d * (c - k * a)            # the next level's a
    return base + n0 * B + acc


def count_visits(x: Fraction, interval: tuple, N: int, trunc: RationalTruncation) -> int:
    """#{0 <= j < N : {x + j alpha} in [u, w)} exactly (alpha = p_M/q_M).

    ``interval`` is (u, w) with exact rational endpoints in [0, 1]; u > w is
    read as the wrap-around interval [u,1) + [0,w).  The count is the sum of
    the interval's 0/1 indicator, so it runs on the visit-count kernel.
    """
    u, w = _rational("u", interval[0]), _rational("w", interval[1])
    if not (0 <= u <= 1 and 0 <= w <= 1):
        raise ConfigError(f"interval endpoints must lie in [0, 1], got {interval}")
    length = w - u if u <= w else 1 - u + w
    x_num, x_den = _point("x", x)
    indicator = _step_from_jumps(((u, 1), (w, -1)), length, "indicator")
    ctx = ErgodicContext(indicator, trunc, x_den)
    return int(ctx.sum_at(x_num, N))


class ErgodicContext:
    """The visit-count kernel: exact sums S_N phi(x_num / x_den) of one
    observable, or of a tuple of observables sampled at the same points.

    The rotation ``rot`` is a ``RationalTruncation`` p_M/q_M of an irrational
    alpha, whose sums are faithful only inside the window N - 1 < q_(M-1)
    (``PrecisionError`` beyond it), or an exact rational (int or Fraction),
    a genuinely rational rotation whose sums are exact at every N.

    Over the common denominator L of the rotation, the sample denominator
    and the jump points, with A = x L, P = alpha L and
    F(C) = floor_sum(N, P, A - C, L), the visits to [0, C) number
    F(0) - F(C), so

        S_N phi(x) = a N + s (A N + P N(N-1)/2) + sum_C J(C) F(C),

    where J(C) is the jump phi(C) - phi(C-) at C from ``phi.jumps()``,
    a = phi(0-) - slope and s = slope / L.  Each row holds these times
    its denominator d, so a sample costs one floor sum per distinct jump
    point of the union, shared by every observable, and one integer
    numerator per observable.  ``sum_at`` returns each value at one point
    as one exact Fraction: a single value for one observable, a tuple for a
    tuple.  ``sums_at`` draws a whole sample set at one N, each value
    rounded once to float64.
    """

    def __init__(self, phi: Observable | tuple[Observable, ...],
                 rot: RationalTruncation | int | Fraction, x_den: int):
        x_den = _at_least("sample denominator", x_den, 1)
        alpha = (rot.value if isinstance(rot, RationalTruncation)
                 else _rational("rotation", rot))
        self._single = not isinstance(phi, (tuple, list))
        phis = tuple(map(_scalar, (phi,) if self._single else phi))
        self.rot = rot
        self.x_den = x_den
        jumps = [{t: Fraction(v) for t, v in f.jumps().items()} for f in phis]
        L = math.lcm(alpha.denominator, self.x_den,
                     *(t.denominator for js in jumps for t in js))
        self.L = L
        self.P = alpha.numerator * (L // alpha.denominator)
        self.x_scale = L // self.x_den
        columns = {}            # jump point C * L -> index of F(C)
        self._rows = []         # (a d, s d, [(index, J d)])
        self._dens = []         # d
        for f, js in zip(phis, jumps):
            # a = phi(0-) - slope with phi(0-) = phi(0) - J(0)
            a = f.evaluate(0) - js.get(0, 0) - f.slope
            s = Fraction(f.slope, L)
            d = math.lcm(a.denominator, s.denominator,
                         *(v.denominator for v in js.values()))
            terms = [(columns.setdefault(t.numerator * (L // t.denominator),
                                         len(columns)), int(v * d))
                     for t, v in js.items()]
            self._rows.append((int(a * d), int(s * d), terms))
            self._dens.append(d)
        self.offsets = tuple(columns)
        self._ramp = any(row[1] for row in self._rows)

    def sum_at(self, x_num: int, N: int):
        """S_N phi(x) for x = x_num/x_den reduced mod 1, for each observable."""
        x_num, N = _integers("sample numerator and N", x_num, N)
        chain, rows = self._horizon(N)
        vals = tuple(Fraction(v, d) for v, d in zip(
            self._numerators(x_num, N, chain, rows), self._dens))
        return vals[0] if self._single else vals

    def sums_at(self, x_nums, N: int) -> np.ndarray:
        """S_N phi(x) at x = m/x_den for every numerator m of ``x_nums``,
        each rounded once to float64: one row per point, one column per
        observable.  The operands and the window are checked once, the chain
        and each row's part that depends on N alone are built once, and
        each integer numerator is divided by its denominator with int / int,
        which rounds correctly, so every value equals float(sum_at(m, N))
        bit for bit."""
        x_nums = _integers("sample numerators", *x_nums)
        (N,) = _integers("N", N)
        chain, rows = self._horizon(N)
        dens = self._dens
        vals = [v / d for m in x_nums
                for v, d in zip(self._numerators(m, N, chain, rows), dens)]
        return np.array(vals, dtype=np.float64).reshape(len(x_nums), len(dens))

    def _horizon(self, N: int):
        """Checks N against the window; returns the Euclid chain of
        (N, P, L) and the rows with their part a N + s P T(N), which does
        not depend on the point, folded into one constant."""
        _at_least("N", N, 0)
        if N > 1 and isinstance(self.rot, RationalTruncation):
            self.rot.require_window(N - 1, "orbit length")
        PT = self.P * _tri(N) if self._ramp else 0
        rows = [(a * N + s * PT, s, terms) for a, s, terms in self._rows]
        return _chain(N, self.P, self.L), rows

    def _numerators(self, x_num: int, N: int, chain, rows) -> list[int]:
        """Each row's S_N phi(x) times its denominator d: one walk per
        offset C gives F(C), then a N + s (A N + P T(N)) + sum_C J(C) F(C),
        with a N + s P T(N) the row's constant from ``_horizon``."""
        A = (x_num * self.x_scale) % self.L
        F = [_walk(chain, A - C) for C in self.offsets]
        AN = A * N if self._ramp else 0
        return [const + s * AN + sum(c * F[i] for i, c in terms)
                for const, s, terms in rows]


def ergodic_sum(phi: Observable, x: Fraction, N: int, trunc: RationalTruncation) -> Fraction:
    """S_N phi(x) as an exact Fraction, exact at any N in the window."""
    x_num, x_den = _point("x", x)
    return ErgodicContext(phi, trunc, x_den).sum_at(x_num, N)


def _direct_sum(phi: Observable, x: Fraction, N: int, trunc: RationalTruncation) -> Fraction:
    """S_N phi(x) summed term by term in O(N) integer steps: the oracle that
    the tests hold ``ergodic_sum`` to.  It takes the same arguments."""
    x_num, x_den = _point("x", x)
    N = _at_least("N", N, 0)
    if N > 1:
        trunc.require_window(N - 1, "orbit length")
    bs = _scalar(phi).breakpoints
    L = math.lcm(trunc.q, x_den, *(b.denominator for b in bs))
    P = trunc.p * (L // trunc.q) % L
    r = x_num * (L // x_den)
    # integer residues r = {x + j alpha} L: count the visits to each piece
    # and sum the offsets r - b L into it for the slope; one Fraction at the
    # end
    bounds = [int(b * L) for b in bs]
    visits = [0] * len(bounds)
    offsets = 0
    for _ in range(N):
        i = bisect.bisect_right(bounds, r) - 1
        visits[i] += 1
        offsets += r - bounds[i]
        r += P
        if r >= L:
            r -= L
    return (Fraction(sum(c * v for c, v in zip(visits, phi.values)))
            + Fraction(phi.slope * offsets, L))


# ---------------------------------------------------------------------------
# Exact piecewise profile of x -> S_n phi(x), on integers
# ---------------------------------------------------------------------------

# Largest number of jump positions (n * #jumps * #terms) one exact profile
# sorts: about 0.5 GB of int64 keys.  A2's largest profile sorts 48,244,672.
_PROFILE_CAP = 2 ** 26


@dataclass(frozen=True)
class OrbitProfile:
    """S(x) = slope * x + const + levels[i] / scale on [starts[i], starts[i+1])
    / L, the last piece ending at 1.  ``starts`` (starts[0] == 0) and
    ``levels`` are integers: int64 arrays while every product fits below
    2**62, object arrays of Python ints otherwise."""

    starts: np.ndarray
    levels: np.ndarray
    L: int
    scale: int
    slope: int
    const: Fraction

    def evaluate(self, x: Fraction):
        u, v = _point("x", x)
        i = int(np.searchsorted(self.starts, u * self.L // v, side="right")) - 1
        return (self.slope * Fraction(u, v) + self.const
                + Fraction(int(self.levels[i]), self.scale))

    def sup_abs(self):
        """Exact sup of |S| over the circle: the extreme piece end values."""
        vals, den = self.levels, self.scale
        if self.slope:      # S * scale * L at both ends of every piece
            ends = np.append(self.starts[1:], self.L)
            tops, step = self.levels * self.L, self.slope * self.scale
            vals = np.concatenate([tops + step * self.starts, tops + step * ends])
            den = self.scale * self.L
        return max(abs(self.const + Fraction(int(v), den))
                   for v in (vals.min(), vals.max()))

    def integral_sq(self):
        """Exact integral of S^2 over [0,1), from the total length at each
        integer level (and, with a slope, the positions of the levels)."""
        L, scale, s, c = self.L, self.scale, self.slope, self.const
        ends = np.append(self.starts[1:], L)
        levels, inverse = np.unique(self.levels, return_inverse=True)
        lengths = np.zeros(len(levels), dtype=self.starts.dtype)
        np.add.at(lengths, inverse, ends - self.starts)
        m1 = sum(int(v) * int(w) for v, w in zip(levels, lengths))
        m2 = sum(int(v) ** 2 * int(w) for v, w in zip(levels, lengths))
        total = c * c + Fraction(2 * c * m1, scale * L) + Fraction(m2, scale * scale * L)
        if s:   # plus s^2/3 + s c + (2 s / scale) int_0^1 x level(x) dx
            lo, hi = self.starts.astype(object), ends.astype(object)
            cross = (self.levels.astype(object) * (hi * hi - lo * lo)).sum()
            total += Fraction(s * s, 3) + s * c + Fraction(s * cross, scale * L * L)
        return total


def _signed_profile(phi: Observable, n: int, terms) -> OrbitProfile:
    """Profile of sum over (rot, sign) in ``terms`` of sign * S_n phi under
    rot: jump positions (t - j*rot) mod 1 over a common denominator L sorted
    once, levels the running sums of the jumps times their denominator."""
    points, values = list(_scalar(phi).jumps()), list(phi.jumps().values())
    size = n * len(points) * len(terms)
    if size > _PROFILE_CAP:
        raise ConfigError(f"exact profile of {size} jump positions exceeds "
                          f"the cap {_PROFILE_CAP}")
    scale = math.lcm(*(Fraction(v).denominator for v in values))
    jumps = [int(v * scale) for v in values]
    rots = [_point("rotation", rot) for rot, _ in terms]
    L = math.lcm(*(v for _, v in rots), *(t.denominator for t in points))
    # sort keys are position * K + jump index; index 0 is a zero jump at 0,
    # so that the first piece starts at 0
    K = 1 + len(terms) * len(points)
    bound = (n + 1) * L * (K + len(terms) * (sum(map(abs, jumps)) + 1))
    dtype = np.int64 if bound < _INT64_SAFE else object
    j = np.arange(n, dtype=np.int64).astype(dtype, copy=False)
    keys, gvals = [np.zeros(1, dtype)], [0]
    for (u, v), (_, sign) in zip(rots, terms):
        base = j * (u * (L // v)) % L
        for t, g in zip(points, jumps):
            keys.append((t.numerator * (L // t.denominator) - base) % L * K
                        + len(gvals))
            gvals.append(sign * g)
    keys = np.concatenate(keys)
    keys.sort()
    levels = np.asarray(gvals, dtype)[(keys % K).astype(np.intp, copy=False)]
    np.cumsum(levels, out=levels)
    keys //= K
    last = np.append(keys[1:] != keys[:-1], True)  # one piece per position
    levels = levels[last]
    starts = keys[last]
    del keys
    total = sum(sign for _, sign in terms)
    slope = n * total * phi.slope
    # the constant follows from int_0^1 S = n * total * int_0^1 phi
    m1 = (int(np.dot(levels[:-1], np.diff(starts)))
          + int(levels[-1]) * (L - int(starts[-1])))
    const = (n * total * Fraction(phi.mean()) - Fraction(slope, 2)
             - Fraction(m1, scale * L))
    return OrbitProfile(starts, levels, L, scale, slope, const)


def orbit_sum_profile(phi: Observable, n: int, rot: Fraction) -> OrbitProfile:
    """Exact profile of x -> sum_{j<n} phi(x + j*rot) for an exact rational
    rotation step ``rot``; one sort of the n * #jumps jump positions."""
    n = _at_least("n", n, 0)
    return _signed_profile(phi, n, ((_rational("rotation", rot), 1),))


# ---------------------------------------------------------------------------
# Periodic-approximation error
# ---------------------------------------------------------------------------

def approx_error_sq(phi: Observable, n: int, trunc: RationalTruncation) -> Fraction:
    """|| S_{q_n} phi - periodized transfer ||_2^2 as an exact Fraction.

    One signed integer profile holds the jumps of x -> S_{q_n}phi(x) and,
    negated, those of x -> sum_j phi(x + j/q_n), and its square is
    integrated exactly (for the sawtooth the slopes cancel, leaving a pure
    step profile).
    """
    n = _at_least("n", n, 0)
    # S_{q_n} reaches the multiple q_n - 1, inside the window [1, q_(M-1))
    # only for n < M
    trunc.require_level(n + 1, f"orbit length q_{n}")
    qn = trunc.qs[n]
    return _signed_profile(phi, qn, ((trunc.value, 1),
                                     (Fraction(1, qn), -1))).integral_sq()


# ---------------------------------------------------------------------------
# Ostrowski bound certificate
# ---------------------------------------------------------------------------

def ostrowski_bound_check(phi: Observable, x: Fraction, N: int,
                          trunc: RationalTruncation):
    """(|S_N phi(x)|, V(phi) * sum_k b_k) with the digits of N; raises
    CertificateError unless LHS <= RHS (sums over denominators are bounded
    blockwise)."""
    lhs = abs(ergodic_sum(phi, x, N, trunc))
    digits = ostrowski_digits(N, trunc)
    rhs = phi.variation() * digits.digit_sum()
    if lhs > rhs:
        raise CertificateError(
            f"Ostrowski bound violated: |S_N|={float(lhs)} > {float(rhs)}")
    return lhs, rhs
