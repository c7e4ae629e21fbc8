"""Subsequence plans: the times L_n = sum_{k<=n} q_{t_k} along which the
normalized ergodic sums become Gaussian.

A plan is *growth-certified* when a_{t_k + 1} >= k^beta for every k (beta >
1); the denominators q_{t_k} are then superlacunary since consecutive ratios
dominate a_{t_k+1}.  A plan is additionally *parity-certified* when every
q_{t_k} is odd and p_{t_k} is odd at odd plan positions, even at even ones;
that is the configuration under which the two displacement components of
the diagonal billiard alternate as the active Gaussian direction.

Certificates are exact big-integer checks, never asymptotic claims: the
lacunarity/arithmetic conditions are certified on the scanned window and
reported as such.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .contfrac import RationalTruncation
from .errors import (ConfigError, InsufficientPartialQuotientsError,
                     ParityPatternError, _at_least, _integers)
from .observables import Observable, _scalar, hat_norm_sq

__all__ = [
    "SubsequencePlan",
    "LacunaryCertificate",
    "plan_growth",
    "plan_parity",
    "check_lacunarity",
    "check_Dm",
    "nondegeneracy_average",
    "admissible_parity_triples",
]


@dataclass(frozen=True)
class SubsequencePlan:
    """Indices t_1 < t_2 < ... with exact prefix sums L_n = sum_{k<=n} q_{t_k}."""

    t: tuple[int, ...]
    L: tuple[int, ...]           # L_0 = 0, ..., L_count
    beta: float
    trunc: RationalTruncation
    certified: dict = field(default_factory=dict)
    rho: Fraction | None = None  # exact min ratio q_{t_{k+1}}/q_{t_k}

    @property
    def count(self) -> int:
        return len(self.t)

    def _position(self, n, low: int) -> int:
        """``n`` as a plan position in [low, count], low 0 or 1, read as
        ``_integers`` reads it; outside that range it raises ConfigError."""
        (n,) = _integers("plan position", n)
        if not low <= n <= self.count:
            raise ConfigError(f"plan position {n} outside plan range "
                              f"[{low}, {self.count}]")
        return n

    def q(self, k: int) -> int:
        """q_{t_k}, 1-based plan position."""
        return self.trunc.qs[self.t[self._position(k, 1) - 1]]

    def denominators(self) -> list[int]:
        return [self.trunc.qs[tk] for tk in self.t]

    def hat_variance(self, phi: Observable, n: int) -> float:
        """sum_{k<=n} ||hat_phi_{q_{t_k}}||_2^2, summed left to right: the
        Fourier variance prediction for S_{L_n} phi."""
        _scalar(phi)
        n = self._position(n, 0)
        total = 0.0
        for k in range(1, n + 1):
            total += hat_norm_sq(phi, self.q(k))[0]
        return total

    def plan_hash(self) -> str:
        doc = json.dumps({"t": list(self.t), "L": [str(v) for v in self.L],
                          "beta": self.beta}, sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()[:16]

    def to_json(self) -> str:
        doc = {
            "spec": json.loads(self.trunc.spec.to_json()),
            "level": self.trunc.level,
            "t": list(self.t),
            "L": [str(v) for v in self.L],
            "beta": self.beta,
            "certified": self.certified,
            "rho": None if self.rho is None else
                   [str(self.rho.numerator), str(self.rho.denominator)],
        }
        return json.dumps(doc, sort_keys=True)


@dataclass(frozen=True)
class LacunaryCertificate:
    """Window-certified lacunarity data for an increasing integer sequence."""

    rho: Fraction                 # exact min of consecutive ratios
    superlacunary: bool           # increasing-trend flag on the window


def _prefix_sums(qs: list[int]) -> tuple[int, ...]:
    acc, out = 0, [0]
    for q in qs:
        acc += q
        out.append(acc)
    return tuple(out)


def _greedy(trunc: RationalTruncation, beta: float, count: int,
            admissible, exhausted) -> list[int]:
    """Smallest indices t_1 < ... < t_count with a_{t_k+1} >= k^beta and
    ``admissible(k, t_k)``; raises ``exhausted(k, k^beta)`` when the
    spec/truncation runs out first."""
    if not beta > 1:
        raise ConfigError(f"growth exponent beta must be > 1, got {beta}")
    count = _at_least("count", count, 1)
    spec = trunc.spec
    last = min(spec.max_index, trunc.level)
    t: list[int] = []
    n = 1
    for k in range(1, count + 1):
        try:
            need = k ** beta
        except OverflowError:       # past the float range: no a_k meets it
            need = math.inf
        while n < last and not (admissible(k, n) and spec.a(n + 1) >= need):
            n += 1
        if n >= last:
            raise exhausted(k, need)
        t.append(n)
        n += 1
    return t


def plan_growth(trunc: RationalTruncation, beta: float, count: int) -> SubsequencePlan:
    """Greedy smallest admissible indices with a_{t_k+1} >= k^beta.

    Raises ``InsufficientPartialQuotientsError`` when the spec cannot supply
    ``count`` terms (bounded partial quotients have no such plan).
    """
    t = _greedy(trunc, beta, count, lambda k, n: True,
                lambda k, need: InsufficientPartialQuotientsError(
                    f"insufficient partial quotients: position {k} needs "
                    f"a_(t+1) >= {need} but the spec/truncation is exhausted"))
    return _certify(trunc, t, beta, parity=False)


def plan_parity(trunc: RationalTruncation, beta: float, count: int) -> SubsequencePlan:
    """Greedy plan with q_{t_k} odd, p_{t_k} even at even plan positions and
    odd at odd positions, plus the growth condition."""
    pairs = [(p % 2, q % 2) for p, q in zip(trunc.ps[1:], trunc.qs[1:])]
    t = _greedy(trunc, beta, count, lambda k, n: pairs[n - 1] == (k % 2, 1),
                lambda k, need: ParityPatternError(
                    f"parity pattern unavailable: position {k} wants "
                    f"(p,q) = {(k % 2, 1)} mod 2 with a_(t+1) >= {need}",
                    diagnostic=pairs))
    return _certify(trunc, t, beta, parity=True)


def _certify(trunc: RationalTruncation, t: list[int], beta: float,
             parity: bool) -> SubsequencePlan:
    qs = [trunc.qs[tk] for tk in t]
    L = _prefix_sums(qs)
    trunc.require_window(L[-1], f"plan length L_{len(t)} =")
    growth = all(trunc.a(tk + 1) >= (k + 1) ** beta for k, tk in enumerate(t))
    cert = {"growth": growth, "parity": parity}
    rho = None
    if len(qs) >= 2:
        rho = min(Fraction(qs[i + 1], qs[i]) for i in range(len(qs) - 1))
        cert["lacunary"] = rho > 1
    return SubsequencePlan(t=tuple(t), L=L, beta=beta, trunc=trunc,
                           certified=cert, rho=rho)


def admissible_parity_triples(a_parity: int) -> set[tuple]:
    """All triples of consecutive (p,q) mod-2 pairs when the third step uses a
    partial quotient of the given parity (0 = even, 1 = odd).

    Enumerated from the recurrence over all unimodular seed pairs: an even
    quotient copies the first pair ((A, B, A)); an odd quotient moves to the
    third nonzero pair ((A, B, A+B)), which yields the six permutations of
    {(0,1), (1,0), (1,1)}.
    """
    states = [(0, 1), (1, 0), (1, 1)]
    out = set()
    for prev in states:
        for cur in states:
            # unimodularity: p' q + p q' must be odd
            if (prev[0] * cur[1] + prev[1] * cur[0]) % 2 != 1:
                continue
            nxt = ((a_parity * cur[0] + prev[0]) % 2,
                   (a_parity * cur[1] + prev[1]) % 2)
            out.add((prev, cur, nxt))
    return out


def check_lacunarity(n_list) -> LacunaryCertificate:
    """Exact min ratio rho over the window; the superlacunary flag compares
    the tail of the ratio sequence against its head (window heuristic, not a
    claim about the unscanned infinite tail)."""
    ns = _integers("sequence terms", *n_list)
    if len(ns) < 2:
        raise ConfigError("need at least two terms")
    if any(b <= a for a, b in zip(ns, ns[1:])) or ns[0] < 1:
        raise ConfigError("sequence must be strictly increasing and positive")
    ratios = [Fraction(b, a) for a, b in zip(ns, ns[1:])]
    rho = min(ratios)
    quarter = max(1, len(ratios) // 4)
    head_min = min(ratios[:quarter])
    tail_min = min(ratios[-quarter:])
    super_flag = tail_min > 2 * head_min and ratios[-1] > 2 * ratios[0]
    return LacunaryCertificate(rho=rho, superlacunary=super_flag)


def check_Dm(n_list, m: int) -> dict:
    """Exact representation counts for nu = t n_k +/- s n_l (k > l,
    1 <= t, s <= m) over the scanned window, the terms of ``n_list``.

    Two multiplicity notions are reported per worst nu: ``max_count`` counts
    full solution tuples (k, l, t, s, sign) and ``max_pairs`` counts distinct
    index pairs (k, l).  The arithmetic condition asks for a uniform bound
    over all nu, which a finite scan can only certify on its window.
    """
    m = _at_least("m", m, 1)
    ns = _integers("sequence terms", *n_list)
    counts: dict[int, int] = {}
    pairs: dict[int, set] = {}
    scanned = 0
    for k in range(1, len(ns)):
        for l in range(k):
            for tcoef in range(1, m + 1):
                for scoef in range(1, m + 1):
                    for sign in (1, -1):
                        nu = tcoef * ns[k] + sign * scoef * ns[l]
                        if nu > 0:
                            counts[nu] = counts.get(nu, 0) + 1
                            pairs.setdefault(nu, set()).add((k, l))
                            scanned += 1
    if not counts:
        return {"max_count": 0, "max_pairs": 0, "worst_nu": None,
                "pairs_scanned": 0}
    worst = max(counts, key=lambda v: counts[v])
    max_pairs = max(len(s) for s in pairs.values())
    return {"max_count": counts[worst], "max_pairs": max_pairs,
            "worst_nu": worst, "pairs_scanned": scanned}


def nondegeneracy_average(plan: SubsequencePlan, phi: Observable,
                          n: int) -> float:
    """(1/n) sum_{k<=n} ||hat_phi_{q_{t_k}}||_2^2 -- the variance floor that
    the Gaussian limit requires to stay above a positive constant."""
    n = plan._position(n, 1)
    return plan.hat_variance(phi, n) / n
