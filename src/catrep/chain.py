"""Repeater-chain analytics: swapping algebra, totals, key rates.

Everything here is closed-form bookkeeping on top of the per-segment
quantities (fidelity, discrimination success, loss-class weights).  The
swap algebra acts on Bell-diagonal states tracked as a lightweight Pauli
frame; the chain totals follow from products of per-segment numbers; the
exact key rate averages over the multinomial distribution of syndrome
combinations along the chain.

Distances are kilometers throughout.  ``ATTENUATION_LENGTH_KM = 22`` is
the default fiber attenuation length; standard telecom fiber at 0.2
dB/km gives 21.7 km and the round value 22 reproduces the usual
transmission of about 1.8e-20 over a 1000 km line.  Override per
``SegmentParams`` / ``plob_bound`` argument where needed.
"""

from __future__ import annotations

import functools
import math

from .catcode import CatCodeSpec, LossWeights, _freeze, _is_count, _log_factorials, _Point, _Record

__all__ = [
    "ATTENUATION_LENGTH_KM",
    "SegmentParams",
    "ChainParams",
    "PauliFrameState",
    "check_chain_geometry",
    "swap_components",
    "swap_pair",
    "chain_fidelity",
    "chain_success",
    "chain_distribution",
    "binary_entropy",
    "secret_key_rate",
    "plob_bound",
    "ChainReport",
    "evaluate_chain",
]

ATTENUATION_LENGTH_KM = 22.0

_BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")
_KINDS = ("phi", "psi")
_KEY_MODES = ("lower_bound", "exact_average")
# Geometry tables (see _geometry_table): none over _COMBO_LIMIT rows or
# _MAX_TABLE_CELLS counts is built (the row limit alone admits 2^28 counts at
# m = 14), and the _KEPT_TABLES most recently used are kept.
_COMBO_LIMIT = 20000
_MAX_TABLE_CELLS = 2**21
_KEPT_TABLES = 16


class SegmentParams(_Record):
    """One elementary link: distance, code choice, local transmission.

    The segment channel seen by the code combines fiber loss over ``l0``
    with the station-local transmission, applied once per unit:
    ``eta_segment = eta_local * exp(-l0/l_att)``.
    """

    _fields = ("l0", "m", "alpha", "eta_local", "l_att")

    def __init__(
        self, l0: float, m: int, alpha: float, eta_local: float = 1.0,
        l_att: float = ATTENUATION_LENGTH_KM,
    ):
        self._set(l0=l0, m=m, alpha=alpha, eta_local=eta_local, l_att=l_att)
        self._require_finite("l0", "alpha", "eta_local", "l_att")
        if self.l0 <= 0:
            raise ValueError("need l0 > 0")
        if self.l_att <= 0:
            raise ValueError("need l_att > 0")
        if not 0 < self.eta_local <= 1:
            raise ValueError("need 0 < eta_local <= 1")
        if self.eta_segment == 0.0:
            raise ValueError(f"eta_local*exp(-l0/l_att) = {self.eta_local!r}*exp(-{self.l0!r}/"
                             f"{self.l_att!r}) underflows to 0; no photon survives the segment")

    @property
    def eta_segment(self) -> float:
        return self.eta_local * math.exp(-self.l0 / self.l_att)

    @property
    def code_spec(self) -> CatCodeSpec:
        return CatCodeSpec(self.m, self.alpha, self.eta_segment)


class ChainParams(_Record):
    """Whole-line geometry and clock: total distance, link count, cycle time."""

    _fields = ("l_tot", "n_e", "t0")
    t0 = 1e-6  # the default cycle time, which cli.DEFAULT_CONFIG reads here

    def __init__(self, l_tot: float, n_e: int, t0: float = t0):
        self._set(l_tot=l_tot, n_e=n_e, t0=t0)
        self._require_finite("l_tot", "t0")
        if self.l_tot <= 0:
            raise ValueError("need l_tot > 0")
        if not _is_count(self.n_e):
            raise ValueError("need integer n_e >= 1")
        if self.t0 <= 0:
            raise ValueError("need t0 > 0")


def check_chain_geometry(segment: SegmentParams, chain: ChainParams) -> None:
    """Require n_e segments of length l0 to tile the total distance (to 1e-9)."""
    span = segment.l0 * chain.n_e
    if abs(span - chain.l_tot) > 1e-9 * max(abs(chain.l_tot), 1.0):
        raise ValueError(
            f"elementary distance {segment.l0} km times {chain.n_e} links "
            f"spans {span} km, not the total {chain.l_tot} km"
        )


class PauliFrameState(_Record):
    """Bell-diagonal pair tracked up to local Pauli corrections.

    ``kind`` says which Bell doublet carries the weight (parallel or
    antiparallel spins), ``plus_weight`` the probability of its "+"
    member, ``phase`` the accumulated rotation tag of the doublet.
    """

    _fields = ("kind", "plus_weight", "phase")

    def __init__(self, kind: str, plus_weight: float, phase: float = 0.0):
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        if not -1e-12 <= plus_weight <= 1 + 1e-12:
            raise ValueError("plus_weight must lie in [0, 1]")
        plus_weight = min(max(plus_weight, 0.0), 1.0)
        self._set(kind=kind, plus_weight=plus_weight, phase=phase % (2 * math.pi))


def swap_components(a_plus: float, b_plus: float) -> dict:
    """Post-swap doublet weights before any outcome relabeling.

    For inputs diag(A, B) and diag(C, D) the connected pair carries
    AC + BD on the "+" member and AD + BC on the "-" member; their
    difference is (A - B)(C - D) and the computational-basis off-diagonal
    element of the output is half of that.
    """
    if not (0 <= a_plus <= 1 and 0 <= b_plus <= 1):
        raise ValueError(f"need a_plus and b_plus in [0, 1], got {a_plus!r} and {b_plus!r}")
    a_minus = 1.0 - a_plus
    b_minus = 1.0 - b_plus
    return {
        "plus": a_plus * b_plus + a_minus * b_minus,
        "minus": a_plus * b_minus + a_minus * b_plus,
    }


def swap_pair(
    a: PauliFrameState, b: PauliFrameState, outcome: str = "phi+"
) -> PauliFrameState:
    """Entanglement swap of two tracked pairs given the Bell outcome.

    The "-" outcomes are absorbed as frame corrections, so plus_weight
    follows the same product rule for every outcome.  The output doublet
    is the parity of the two input kinds and the outcome kind (the
    teleportation identity), and rotation tags add.
    """
    if outcome not in _BELL_LABELS:
        raise ValueError(f"outcome must be one of {_BELL_LABELS}")
    flips = (a.kind == "psi") ^ (b.kind == "psi") ^ outcome.startswith("psi")
    return PauliFrameState(
        kind="psi" if flips else "phi",
        plus_weight=swap_components(a.plus_weight, b.plus_weight)["plus"],
        phase=a.phase + b.phase,
    )


def chain_fidelity(f0: float, n_e: int) -> float:
    """Average end-to-end fidelity of n_e swapped identical segments."""
    if not 0 <= f0 <= 1:
        raise ValueError("need f0 in [0, 1]")
    if not _is_count(n_e):
        raise ValueError("need integer n_e >= 1")
    return 0.5 + 0.5 * (2 * f0 - 1) ** n_e


def chain_success(p0: float, n_e: int) -> float:
    """Probability that every segment's discrimination succeeds."""
    if not 0 <= p0 <= 1:
        raise ValueError("need p0 in [0, 1]")
    if not _is_count(n_e):
        raise ValueError("need integer n_e >= 1")
    if p0 == 0.0:
        return 0.0
    # Log-domain so huge n_e underflows gracefully instead of rounding.
    return math.exp(n_e * math.log(p0)) if p0 < 1.0 else 1.0


def _compositions(total: int, parts: int):
    # Every row of ``parts`` counts summing to ``total``, in lexicographic
    # order, written once per column, and the rows' prefix tree: per column j
    # the last count of each distinct prefix t_0..t_j (one per row in the
    # last column) and, in columns 1 to parts - 2, its parent's index in
    # column j - 1.  ways[k][r] counts the compositions of r into k + 1 parts,
    # so a head that leaves r for k + 1 later columns spans ways[k][r] rows.
    import numpy as np
    ways = [np.ones(total + 1, dtype=np.int64)]
    for _ in range(parts - 2):
        ways.append(np.cumsum(ways[-1]))
    t = np.empty((math.comb(total + parts - 1, parts - 1), parts), dtype=np.int64)
    heads, parents = [], []
    rest = np.array([total])
    for j in range(parts - 1):
        branches = rest + 1
        parent = np.repeat(np.arange(rest.size), branches)
        head = np.arange(parent.size) - (np.cumsum(branches) - branches)[parent]
        rest = rest[parent] - head
        t[:, j] = np.repeat(head, ways[parts - 2 - j][rest]) if j < parts - 2 else head
        heads.append(head)
        parents.append(parent)
    t[:, -1] = rest
    return t, heads + [rest], parents[1:]


def _geometry_table(n_e: int, parts: int):
    """What a distribution needs that the weights leave alone, read-only.

    The rows t of every composition of n_e into ``parts`` counts, as
    floats for the product with log g; the rows' prefix tree, per column i
    the flat index t_i * parts + i of each prefix's last count into a
    (n_e + 1, parts) table of ratio powers, and each inner prefix's parent,
    so that a shared prefix's product is formed once, with the same ufuncs
    in the same order as np.prod along each row; per row, the log
    multinomial log n_e!/prod t_i!, from ``catcode``'s log t! table.

    ``_kept_table`` keeps the 16 most recently used tables.  Of the 20,071
    geometries the two bounds admit, the largest table is m = 10 at
    n_e = 1 (1,024 rows of 1,024) at 16.0 MiB, and the 16 largest together
    take 52.0 MiB.
    """
    import numpy as np
    t, heads, parents = _compositions(n_e, parts)
    index = tuple(_freeze(head * parts + i) for i, head in enumerate(heads))
    tree = index, tuple(map(_freeze, parents))
    log_fact = np.fromiter(map(_log_factorials(n_e).__getitem__, range(n_e + 1)), float)
    log_multinomial = log_fact[n_e] - log_fact[t].sum(axis=1)
    return _freeze(t.astype(float)), tree, _freeze(log_multinomial)


_kept_table = functools.lru_cache(maxsize=_KEPT_TABLES)(_geometry_table)


def _distribution(weights: LossWeights, n_e: int):
    import numpy as np
    if not _is_count(n_e):
        raise ValueError("need integer n_e >= 1")
    big_m = 2**weights.m
    n_combos = math.comb(n_e + big_m - 1, big_m - 1)
    if n_combos > _COMBO_LIMIT:
        raise ValueError(f"{n_combos} syndrome combinations exceed the limit {_COMBO_LIMIT}")
    if n_combos * big_m > _MAX_TABLE_CELLS:
        raise ValueError(f"{n_combos * big_m} table counts exceed the bound {_MAX_TABLE_CELLS}")
    lower, upper = weights.p.reshape(2, big_m)
    group, diff = lower + upper, lower - upper
    ratio = np.divide(diff, group, out=np.zeros_like(diff), where=group > 0)
    t, (index, parent), log_multinomial = _kept_table(n_e, big_m)
    # log of n_e!/prod t_i! * prod g_i^t_i, so neither the multinomial
    # nor the powers leave float range; a row that needs an empty group
    # (g_i = 0, t_i > 0) is exactly zero, exp(-inf), so its log-multinomial,
    # which can overflow exp on a long chain, is never exponentiated.
    log_group = np.log(group, out=np.zeros_like(group), where=group > 0)
    log_prob = log_multinomial + t @ log_group
    empty = group == 0
    if empty.any():
        log_prob[(t[:, empty] > 0).any(axis=1)] = -np.inf
    prob = np.exp(log_prob, out=log_prob)
    # 1/2 + 1/2 prod ratio_i^t_i, in place: each prefix's product is its
    # parent's times its own power from the table of powers 0..n_e
    powers = (ratio ** np.arange(n_e + 1)[:, None]).ravel()
    fid = powers[index[0]]
    for column, up in zip(index[1:], parent):
        fid = fid[up]
        fid *= powers[column]
    fid *= powers[index[-1]]
    fid *= 0.5
    fid += 0.5
    return t, prob, fid


def chain_distribution(weights: LossWeights, n_e: int):
    """Exhaustive syndrome-combination distribution along the chain.

    Each segment independently lands in one of 2^m syndrome remainders;
    remainder i occurs with probability P_i = p_i + p_{i+2^m} and leaves
    the sign ratio (p_i - p_{i+2^m})/P_i on the Bell coherence.  A row
    per combination {t_i} gives (t, multinomial probability, exact
    fidelity 1/2 + 1/2 prod ratio_i^t_i), in lexicographic order of t.
    Rows sum to one; their probability-weighted fidelity reproduces the
    closed form.  They are built as numpy arrays, once at most 20,000
    combinations and 2^21 counts are checked (else ``ValueError``).
    """
    t, prob, fid = _distribution(weights, n_e)
    t = t.astype(int).tolist()
    return list(zip(map(tuple, t), prob.tolist(), fid.tolist()))


def binary_entropy(p: float) -> float:
    """Shannon entropy of a bit, in bits; endpoints go to 0 by continuity."""
    if not 0 <= p <= 1:
        raise ValueError("need p in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _key_fraction(fidelity: float) -> float:
    # Entanglement-based BB84 with phase errors only: e_X = 1 - F, e_Z = 0.
    # An error rate at or beyond 1/2 yields nothing.
    e = 1.0 - fidelity
    if e >= 0.5:
        return 0.0
    return max(0.0, 1.0 - binary_entropy(e))


def _key_fractions(fidelity: np.ndarray) -> np.ndarray:
    # ``_key_fraction`` over an array, with numpy's log2 in place of libm's:
    # -e log2 e - (1 - e) log2(1 - e), 1 minus that and the clamp, with the
    # same ufuncs in the same order as the one expression, in place.
    import numpy as np
    e = 1.0 - fidelity
    tail = 1.0 - e
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.log2(e)
        frac *= -e
        tail *= np.log2(tail)
        np.subtract(frac, tail, out=frac)
        np.subtract(1.0, frac, out=frac)
        np.maximum(0.0, frac, out=frac)
    frac[e == 0.0] = 1.0
    frac[e >= 0.5] = 0.0
    return frac


def secret_key_rate(
    f_tot: float,
    p_tot: float,
    t0: float = 1e-6,
    mode: str = "lower_bound",
    *,
    weights: LossWeights | None = None,
    n_e: int | None = None,
):
    """Asymptotic BB84 key rate, per second and per channel use.

    ``lower_bound`` applies the clamped key-fraction formula to the average
    fidelity.  ``exact_average`` averages it over the arrays behind the
    rows of ``chain_distribution`` (needs ``weights`` and ``n_e``, same
    bounds); concavity of the entropy makes it at least as large.
    """
    if mode not in _KEY_MODES:
        raise ValueError(f"mode must be one of {_KEY_MODES}")
    if not 0 <= f_tot <= 1:
        raise ValueError("need f_tot in [0, 1]")
    if not 0 <= p_tot <= 1:
        raise ValueError("need p_tot in [0, 1]")
    if not t0 > 0:
        raise ValueError("need t0 > 0")
    if mode == "lower_bound":
        frac = _key_fraction(f_tot)
    else:
        if weights is None or n_e is None:
            raise ValueError("exact_average needs weights and n_e")
        _, prob, fid = _distribution(weights, n_e)
        # a convex combination of fractions in [0, 1]; rows whose rounded
        # probabilities sum past 1 can lift it an ulp over
        frac = min(float(prob @ _key_fractions(fid)), 1.0)
    per_use = p_tot * frac
    per_second = per_use / t0
    if not math.isfinite(per_second):
        raise OverflowError(f"key rate per second overflows at t0={t0!r}")
    return per_second, per_use


def plob_bound(l_tot: float, l_att: float = ATTENUATION_LENGTH_KM) -> float:
    """Repeaterless secret-key capacity of the lossy line, bits per use."""
    if not (l_tot > 0 and l_att > 0):
        raise ValueError("distances must be positive")
    loss = float(l_tot) / float(l_att)  # as doubles: a float32 quotient would overflow
    if loss != loss:
        raise ValueError(f"l_tot/l_att = {l_tot!r}/{l_att!r} is not a number")
    if loss == 0.0:
        raise ValueError(
            f"l_tot/l_att = {l_tot!r}/{l_att!r} underflows to 0; transmission rounds to 1"
        )
    eta_tot = math.exp(-loss)
    if eta_tot > 0.5:
        # 1 - eta_tot cancels here; -expm1(-L) keeps it exact as eta_tot -> 1.
        return -math.log(-math.expm1(-loss)) / math.log(2.0)
    # log1p keeps the tiny-transmission regime exact (series eta/ln 2).
    return -math.log1p(-eta_tot) / math.log(2.0)


class ChainReport(_Record):
    """Per-configuration summary row of the repeater-line analytics."""

    _fields = (
        "f0", "p0", "f_tot", "p_tot", "rate_per_second", "rate_per_use", "plob", "beats_plob"
    )

    def __init__(
        self, f0: float, p0: float, f_tot: float, p_tot: float, rate_per_second: float,
        rate_per_use: float, plob: float, beats_plob: bool,
    ):
        self._set(
            f0=f0, p0=p0, f_tot=f_tot, p_tot=p_tot, rate_per_second=rate_per_second,
            rate_per_use=rate_per_use, plob=plob, beats_plob=beats_plob,
        )


def evaluate_chain(
    segment: SegmentParams,
    chain: ChainParams,
    usd_mode: str = "weighted_average",
    usd_q: int = 0,
    key_mode: str = "lower_bound",
) -> ChainReport:
    """Full pipeline for one configuration: segment -> chain -> key rate."""
    check_chain_geometry(segment, chain)
    point = _Point(segment.code_spec, usd_mode, usd_q)
    weights = point.weights
    f0 = weights.correctable_mass()
    p0 = point.p0()
    f_tot = chain_fidelity(f0, chain.n_e)
    p_tot = chain_success(p0, chain.n_e)
    rate_s, rate_use = secret_key_rate(
        f_tot, p_tot, chain.t0, mode=key_mode, weights=weights, n_e=chain.n_e
    )
    bound = plob_bound(chain.l_tot, segment.l_att)
    return ChainReport(f0, p0, f_tot, p_tot, rate_s, rate_use, bound, rate_use > bound)
