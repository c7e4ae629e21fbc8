"""Ergodic sums S_N phi(x) = sum_{j<N} phi(x + j alpha) over a rational
truncation of alpha, computed exactly.

Two engines:

* ``direct`` -- literal summation, O(N); the oracle for small N.
* ``floorsum`` -- the visit-count kernel ``ErgodicContext``, O(#jumps *
  log N) big-integer work.  This is what makes sums at N with hundreds of
  digits feasible: with everything written over a common denominator L,

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
  the same kernel applied to an interval's indicator.

  The floor sums of one sample set differ only in their offset A - C, so
  ``floor_sum`` splits the Euclid recursion into a chain that depends on
  (N, P, L) alone, built once per (N, rotation, denominator) and cached,
  and a walk per offset.  The chain keeps, per level, the sums R + e a for
  the few carries e that occur, so a walk level adds one stored number and
  reduces by compare-and-subtract; it divides only at levels with partial
  quotient k > 1, and then with a quotient of at most k.  Its cost is
  linear, not quadratic, in the operand size.

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
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .contfrac import RationalTruncation, ostrowski_digits
from .errors import (CertificateError, ConfigError, PrecisionError, _integers,
                     _rational)
from .observables import (_INT64_SAFE, Observable, Sawtooth, _require_rmax,
                          _step_from_jumps, gamma_sq_array, reduce_phases,
                          series_weights)

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
    if c <= 0:
        raise ConfigError(f"modulus c must be >= 1, got {c}")
    if n < 0:
        raise ConfigError(f"n must be >= 0, got {n}")
    if n == 0:
        return 0
    return _walk(_chain(n, a, c), b)


def _tri(n: int) -> int:
    return n * (n - 1) // 2


@lru_cache(maxsize=8)
def _chain(n: int, a: int, c: int):
    """The Euclid recursion of floor_sum(n, a, b, c) at the nominal b = 0.

    Level i rewrites sum_{j<n} floor((a j + b)/c), 0 <= a, b < c, as
    sum_{j<n'} floor((c j + b')/a) with n' = Q + e, where Q, R =
    divmod(a n, c) does not depend on b and e = (R + a e_prev + b) // c is
    the small carry.  The chain keeps each level's ((R, R + a, R + 2 a), a,
    c, k, k Q, Q), k = c // a, and the part of the sum that b does not move,
    so that every quadratic-size product and division happens here, once
    per (n, a, c).  The CLI's widest sample sets carry e = 2 at about one
    level in a thousand and never more; the walk computes R + a e for a
    larger carry.
    """
    ka, a = divmod(a, c)
    base = ka * _tri(n)
    n0, c0 = n, c
    levels = []
    while n and a:
        Q, R = divmod(a * n, c)
        k, rest = divmod(c, a)
        base += k * _tri(Q)
        levels.append(((R, R + a, R + 2 * a), a, c, k, k * Q, Q))
        n, a, c = Q, rest, a
    return n0, c0, base, tuple(levels), a, c


def _walk(chain, b: int) -> int:
    """floor_sum at offset b along a chain.  A level adds its stored R + e a
    to b and reduces mod c by subtraction, the new carry e counting the
    subtractions; it reduces mod a by one subtraction where k = 1 and
    divides only where k > 1 and b >= a, with a quotient s <= k.  The true
    n of a level is Q + e; T(Q + e) = T(Q) + Q e + T(e) splits the
    triangular term into the chain's part and the walk's, and the terms
    that b moves (e k Q + k T(e) + (Q + e) s, about as wide as n) gather in
    a narrow accumulator added to the wide total once."""
    n0, c0, base, levels, a_end, c_end = chain
    B, b = divmod(b, c0)
    acc = e = 0
    for Ra, a, c, k, kQ, Q in levels:
        try:
            b += Ra[e]
        except IndexError:
            b += Ra[0] + a * e
        e = 0
        while b >= c:
            b -= c
            e += 1
        if e == 1:
            acc += kQ
        elif e:
            acc += e * kQ + k * (e * (e - 1) // 2)
        if b >= a:
            if k == 1:
                b -= a
                acc += Q + e
            else:
                s, b = divmod(b, a)
                acc += (Q + e) * s
    if e:
        # the nominal n ran out (or a did, when every term below is 0): the
        # true n is the few carries e left over
        acc += sum((a_end * j + b) // c_end for j in range(e))
    return base + n0 * B + acc


def count_visits(x, interval: tuple, N: int, trunc: RationalTruncation) -> int:
    """#{0 <= j < N : {x + j alpha} in [u, w)} exactly (alpha = p_M/q_M).

    ``interval`` is (u, w) with exact rational endpoints in [0, 1]; u > w is
    read as the wrap-around interval [u,1) + [0,w).  The count is the sum of
    the interval's 0/1 indicator, so it runs on the visit-count kernel.
    """
    u, w = _rational("u", interval[0]), _rational("w", interval[1])
    if not (0 <= u <= 1 and 0 <= w <= 1):
        raise ConfigError(f"interval endpoints must lie in [0, 1], got {interval}")
    length = w - u if u <= w else 1 - u + w
    x = _rational("x", x)
    indicator = _step_from_jumps(((u, 1), (w, -1)), length, "indicator")
    ctx = ErgodicContext(indicator, trunc, x.denominator)
    return int(ctx.sum_at(x.numerator, N))


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
    a = phi(0-) - slope and s = slope / L.  ``sum_at`` makes one floor sum
    per distinct jump point of the union, shared by every observable, and
    returns each value as one exact Fraction: a single value for one
    observable, a tuple for a tuple.
    """

    def __init__(self, phi: Observable | tuple[Observable, ...],
                 rot: RationalTruncation | int | Fraction, x_den: int):
        (x_den,) = _integers("sample denominator", x_den)
        if x_den < 1:
            raise ConfigError("sample denominator must be >= 1")
        if isinstance(rot, RationalTruncation):
            alpha = rot.value
        elif isinstance(rot, numbers.Rational):
            alpha = Fraction(rot)
        else:
            raise ConfigError(
                "rotation must be a RationalTruncation or an exact rational "
                f"(int or Fraction), got {type(rot).__name__} {rot!r}")
        self._single = not isinstance(phi, (tuple, list))
        phis = (phi,) if self._single else tuple(phi)
        for f in phis:
            if not hasattr(f, "jumps"):
                raise ConfigError(
                    f"{type(f).__name__} {getattr(f, 'label', '')!r} is not a "
                    "scalar observable; sum its components separately")
        self.rot = rot
        self.x_den = x_den
        jumps = [{t: Fraction(v) for t, v in f.jumps().items()} for f in phis]
        L = math.lcm(alpha.denominator, self.x_den,
                     *(t.denominator for js in jumps for t in js))
        self.L = L
        self.P = alpha.numerator * (L // alpha.denominator)
        self.x_scale = L // self.x_den
        columns = {}            # jump point C * L -> index of F(C)
        self._rows = []         # (a d, s d, [(index, J d)], d)
        for f, js in zip(phis, jumps):
            # a = phi(0-) - slope with phi(0-) = phi(0) - J(0)
            a = f.evaluate(0) - js.get(0, 0) - f.slope
            s = Fraction(f.slope, L)
            d = math.lcm(a.denominator, s.denominator,
                         *(v.denominator for v in js.values()))
            terms = [(columns.setdefault(t.numerator * (L // t.denominator),
                                         len(columns)), int(v * d))
                     for t, v in js.items()]
            self._rows.append((int(a * d), int(s * d), terms, d))
        self.offsets = tuple(columns)
        self._ramp = any(row[1] for row in self._rows)

    def sum_at(self, x_num: int, N: int):
        """S_N phi(x) for x = x_num/x_den reduced mod 1, for each observable."""
        x_num, N = _integers("sample numerator and N", x_num, N)
        if N < 0:
            raise ConfigError(f"N must be >= 0, got {N}")
        if N > 1 and isinstance(self.rot, RationalTruncation):
            self.rot.require_window(N - 1, "orbit length")
        A = (x_num * self.x_scale) % self.L
        L, P = self.L, self.P
        F = [floor_sum(N, P, A - C, L) if N else 0 for C in self.offsets]
        ramp = A * N + P * (N * (N - 1) // 2) if self._ramp else 0
        vals = tuple(
            Fraction(a * N + s * ramp + sum(c * F[i] for i, c in terms), d)
            for a, s, terms, d in self._rows)
        return vals[0] if self._single else vals


def ergodic_sum(phi: Observable, x, N: int, trunc: RationalTruncation,
                engine: str = "floorsum") -> Fraction:
    """S_N phi(x) as an exact Fraction; the floorsum engine is exact at any N
    in the window, the direct engine sums term by term."""
    x = _rational("x", x)
    x -= x.numerator // x.denominator
    if engine == "direct":
        return _direct_sum(phi, x, *_integers("N", N), trunc)
    if engine != "floorsum":
        raise ConfigError(f"unknown engine {engine!r}")
    return ErgodicContext(phi, trunc, x.denominator).sum_at(x.numerator, N)


def _direct_sum(phi: Observable, x: Fraction, N: int, trunc: RationalTruncation):
    if N < 0:
        raise ConfigError("N must be >= 0")
    if N > 1:
        trunc.require_window(N - 1, "orbit length")
    L = math.lcm(trunc.q, x.denominator)
    P = trunc.p * (L // trunc.q) % L
    r = (x.numerator * (L // x.denominator)) % L
    # integer residues r = {x + j alpha} L: the sawtooth sums them, a step
    # function counts its visits per piece; one Fraction at the end
    if isinstance(phi, Sawtooth):
        total = 0
        for _ in range(N):
            total += r
            r += P
            if r >= L:
                r -= L
        return Fraction(2 * total - N * L, 2 * L)
    bounds = [int(b * L) for b in phi.breakpoints]
    visits = [0] * len(bounds)
    for _ in range(N):
        visits[bisect.bisect_right(bounds, r) - 1] += 1
        r += P
        if r >= L:
            r -= L
    return Fraction(sum(c * v for c, v in zip(visits, phi.values)))


# ---------------------------------------------------------------------------
# Exact piecewise profile of x -> S_n phi(x), on integers
# ---------------------------------------------------------------------------

# Largest n * #jumps an exact profile enumerates; beyond it the Fourier
# (series) modes apply.
_PROFILE_CAP = 400_000


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

    def evaluate(self, x):
        x = Fraction(x) % 1
        i = int(np.searchsorted(self.starts, x.numerator * self.L // x.denominator,
                                side="right")) - 1
        return (self.slope * x + self.const
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
    points, values = list(phi.jumps()), list(phi.jumps().values())
    scale = math.lcm(*(Fraction(v).denominator for v in values))
    jumps = [int(v * scale) for v in values]
    rots = [Fraction(rot) % 1 for rot, _ in terms]
    L = math.lcm(*(r.denominator for r in rots), *(t.denominator for t in points))
    # sort keys are position * K + jump index; index 0 is a zero jump at 0,
    # so that the first piece starts at 0
    K = 1 + len(terms) * len(points)
    bound = (n + 1) * L * (K + len(terms) * (sum(map(abs, jumps)) + 1))
    dtype = np.int64 if bound < _INT64_SAFE else object
    j = np.arange(n, dtype=np.int64).astype(dtype, copy=False)
    keys, gvals = [np.zeros(1, dtype)], [0]
    for rot, (_, sign) in zip(rots, terms):
        base = j * (rot.numerator * (L // rot.denominator)) % L
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
    (n,) = _integers("n", n)
    if n < 0:
        raise ConfigError("n must be >= 0")
    return _signed_profile(phi, n, ((_rational("rotation", rot), 1),))


# ---------------------------------------------------------------------------
# Periodic-approximation error
# ---------------------------------------------------------------------------

def approx_error_sq(phi: Observable, n: int, trunc: RationalTruncation,
                    mode: str = "exact", rmax: int = 2000):
    """|| S_{q_n} phi - periodized transfer ||_2^2.

    exact mode: one signed integer profile holds the jumps of
    x -> S_{q_n}phi(x) and, negated, those of x -> sum_j phi(x + j/q_n), and
    its square is integrated exactly (for the sawtooth the slopes cancel,
    leaving a pure step profile).

    series mode: the Fourier expansion of the difference, truncated at
    |r| <= rmax; returns (value, tail_bound).
    """
    if n < 0:
        raise ConfigError(f"n must be >= 0, got {n}")
    if n >= trunc.level:
        # S_{q_n} reaches the multiple q_n - 1, inside the window [1, q_(M-1))
        # only for n < M (and series mode reaches q_n^2 rmax)
        raise PrecisionError(f"orbit length q_{n} needs level > {n}",
                             required_level=n + 1)
    qn = trunc.qs[n]
    if mode == "exact":
        if qn * 8 > _PROFILE_CAP:
            raise ConfigError(
                f"profile cap exceeded at q_n={qn}; use series mode")
        return _signed_profile(phi, qn, ((trunc.value, 1),
                                         (Fraction(1, qn), -1))).integral_sq()
    if mode != "series":
        raise ConfigError(f"unknown mode {mode!r}")
    return _approx_error_series(phi, n, trunc, rmax)


def _approx_error_series(phi, n, trunc, rmax):
    _require_rmax(rmax)
    qn = trunc.qs[n]
    # largest multiple of alpha used below is qn^2 * rmax
    trunc.require_window(qn * qn * rmax, "Fourier multiple")
    k = phi.kbound()

    def angle(mult):    # pi * r * mult * alpha for r = 1..rmax, exact mod 2 pi
        return 2.0 * np.pi * reduce_phases(mult * trunc.p, 2 * trunc.q, rmax)[1]

    # frequency r qn: |e^{i pi (qn-1) x} sin(pi qn x)/(qn sin(pi x)) - 1|^2
    # at x = qn r alpha
    s_qn = np.sin(angle(qn))
    dirichlet = np.sin(angle(qn * qn)) / (float(qn) * s_qn)
    z = np.exp(1j * angle((qn - 1) * qn)) * dirichlet - 1.0
    total = np.sum(series_weights(gamma_sq_array(phi, qn, rmax)) * np.abs(z) ** 2)
    # frequency r, not a multiple of qn: (sin(pi qn r alpha)/sin(pi r alpha))^2
    ratio = s_qn / np.sin(angle(1))
    ratio[qn - 1::qn] = 0.0
    total += np.sum(series_weights(gamma_sq_array(phi, 1, rmax)) * ratio ** 2)
    # |z|^2 <= 4 and the non-multiple ratio is bounded by qn^2; both tails
    # decay like 1/r^2.
    tail = 2.0 * k * k * (4.0 + float(qn) ** 2) / rmax
    return float(total), tail


# ---------------------------------------------------------------------------
# Ostrowski bound certificate
# ---------------------------------------------------------------------------

def ostrowski_bound_check(phi: Observable, x, N: int,
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
