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
from dataclasses import dataclass, field
from fractions import Fraction

from .contfrac import PartialQuotientSpec, RationalTruncation, truncation
from .errors import (ConfigError, InsufficientPartialQuotientsError,
                     ParityPatternError, PrecisionError, _integers)
from .observables import Observable, hat_norm_sq

__all__ = [
    "SubsequencePlan",
    "LacunaryCertificate",
    "plan_growth",
    "plan_parity",
    "check_lacunarity",
    "check_Dm",
    "nondegeneracy_average",
    "pairs_mod2",
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

    def q(self, k: int) -> int:
        """q_{t_k}, 1-based plan position."""
        return self.trunc.qs[self.t[k - 1]]

    def denominators(self) -> list[int]:
        return [self.trunc.qs[tk] for tk in self.t]

    def hat_variance(self, phi: Observable, n: int, rmax: int = 4000) -> float:
        """sum_{k<=n} ||hat_phi_{q_{t_k}}||_2^2, summed left to right: the
        Fourier variance prediction for S_{L_n} phi."""
        total = 0.0
        for k in range(1, n + 1):
            total += hat_norm_sq(phi, self.q(k), rmax=rmax)[0]
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

    @staticmethod
    def from_json(text: str) -> "SubsequencePlan":
        """Rebuild a plan from ``to_json``: the truncation from its spec and
        level, then L and the certificate by re-certifying t under beta and
        the recorded parity; a document that disagrees raises ConfigError."""
        doc = json.loads(text)
        spec = PartialQuotientSpec.from_json(json.dumps(doc["spec"]))
        trunc = truncation(spec, doc["level"])
        t = [int(tk) for tk in doc["t"]]
        last = min(spec.max_index, trunc.level)
        if any(not 1 <= tk < last for tk in t) or t != sorted(set(t)):
            raise ConfigError(f"plan indices {t} are not increasing in [1, {last})")
        plan = _certify(trunc, t, doc["beta"], parity=doc["certified"]["parity"])
        rho = None if doc["rho"] is None else Fraction(*map(int, doc["rho"]))
        if ([str(v) for v in plan.L] != doc["L"]
                or plan.certified != doc["certified"] or plan.rho != rho):
            raise ConfigError("plan JSON does not match its spec")
        return plan


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
    (count,) = _integers("count", count)
    if count < 1:
        raise ConfigError("count must be >= 1")
    spec = trunc.spec
    last = min(spec.max_index, trunc.level)
    t: list[int] = []
    n = 1
    for k in range(1, count + 1):
        need = k ** beta
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
    pairs = pairs_mod2(trunc.spec, min(trunc.spec.max_index, trunc.level))
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
    if L[-1] >= trunc.validity_bound:
        raise PrecisionError(
            f"plan length L_{len(t)} = {L[-1]} exceeds the validity window; "
            "rebuild the truncation deeper", required_level=trunc.level + 2)
    growth = all(trunc.a(tk + 1) >= (k + 1) ** beta for k, tk in enumerate(t))
    cert = {"growth": growth, "parity": parity}
    rho = None
    if len(qs) >= 2:
        rho = min(Fraction(qs[i + 1], qs[i]) for i in range(len(qs) - 1))
        cert["lacunary"] = rho > 1
    if parity:
        ok = all(trunc.qs[tk] % 2 == 1 for tk in t)
        ok = ok and all(trunc.ps[tk] % 2 == (1 if (k + 1) % 2 == 1 else 0)
                        for k, tk in enumerate(t))
        if not ok:
            raise ParityPatternError("constructed plan fails parity audit",
                                     diagnostic=[(trunc.ps[tk] % 2,
                                                  trunc.qs[tk] % 2) for tk in t])
    return SubsequencePlan(t=tuple(t), L=L, beta=beta, trunc=trunc,
                           certified=cert, rho=rho)


def pairs_mod2(spec: PartialQuotientSpec, nmax: int) -> list[tuple[int, int]]:
    """(p_n, q_n) mod 2 for n = 1..nmax via the convergent recurrence.

    The pair (0, 0) never occurs: consecutive convergents are unimodular.
    """
    pp, pc = 1, 0   # p_{-1}, p_0 mod 2
    qp, qc = 0, 1
    out = []
    for k in range(1, nmax + 1):
        a = spec.a(k) % 2
        pp, pc = pc, (a * pc + pp) % 2
        qp, qc = qc, (a * qc + qp) % 2
        out.append((pc, qc))
    return out


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


def check_Dm(n_list, m: int, window: int | None = None) -> dict:
    """Exact representation counts for nu = t n_k +/- s n_l (k > l,
    1 <= t, s <= m) over the scanned window.

    Two multiplicity notions are reported per worst nu: ``max_count`` counts
    full solution tuples (k, l, t, s, sign) and ``max_pairs`` counts distinct
    index pairs (k, l).  The arithmetic condition asks for a uniform bound
    over all nu, which a finite scan can only certify on its window.
    """
    (m,) = _integers("m", m)
    if m < 1:
        raise ConfigError("m must be >= 1")
    ns = _integers("sequence terms", *n_list)
    if window is not None:
        (window,) = _integers("window", window)
        if window < 0:
            raise ConfigError(f"window must be >= 0, got {window}")
        ns = ns[:window]
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


def nondegeneracy_average(plan: SubsequencePlan, phi: Observable, n: int,
                          rmax: int = 4000) -> float:
    """(1/n) sum_{k<=n} ||hat_phi_{q_{t_k}}||_2^2 -- the variance floor that
    the Gaussian limit requires to stay above a positive constant."""
    if not 1 <= n <= plan.count:
        raise ConfigError("n outside plan range")
    return plan.hat_variance(phi, n, rmax) / n
