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

import math
from dataclasses import dataclass

import numpy as np

from .catcode import CatCodeSpec, LossWeights, loss_weights
from .usd import _usd_probability

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
_DEFAULT_COMBO_LIMIT = 20000


def _require_finite(params, *names: str) -> None:
    for name in names:
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ValueError(f"{name}={value!r} must be finite")


@dataclass(frozen=True)
class SegmentParams:
    """One elementary link: distance, code choice, local transmission.

    The segment channel seen by the code combines fiber loss over ``l0``
    with the station-local transmission, applied once per unit:
    ``eta_segment = eta_local * exp(-l0/l_att)``.
    """

    l0: float
    m: int
    alpha: float
    eta_local: float = 1.0
    l_att: float = ATTENUATION_LENGTH_KM

    def __post_init__(self):
        _require_finite(self, "l0", "alpha", "eta_local", "l_att")
        if self.l0 <= 0:
            raise ValueError("need l0 > 0")
        if self.l_att <= 0:
            raise ValueError("need l_att > 0")
        if not 0 < self.eta_local <= 1:
            raise ValueError("need 0 < eta_local <= 1")

    @property
    def eta_segment(self) -> float:
        return self.eta_local * math.exp(-self.l0 / self.l_att)

    @property
    def code_spec(self) -> CatCodeSpec:
        return CatCodeSpec(m=self.m, alpha=self.alpha, eta=self.eta_segment)


@dataclass(frozen=True)
class ChainParams:
    """Whole-line geometry and clock: total distance, link count, cycle time."""

    l_tot: float
    n_e: int
    t0: float = 1e-6

    def __post_init__(self):
        _require_finite(self, "l_tot", "t0")
        if self.l_tot <= 0:
            raise ValueError("need l_tot > 0")
        if not isinstance(self.n_e, int) or self.n_e < 1:
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


@dataclass(frozen=True)
class PauliFrameState:
    """Bell-diagonal pair tracked up to local Pauli corrections.

    ``kind`` says which Bell doublet carries the weight (parallel or
    antiparallel spins), ``plus_weight`` the probability of its "+"
    member, ``phase`` the accumulated rotation tag of the doublet.
    """

    kind: str
    plus_weight: float
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        if not -1e-12 <= self.plus_weight <= 1 + 1e-12:
            raise ValueError("plus_weight must lie in [0, 1]")
        object.__setattr__(
            self, "plus_weight", min(max(self.plus_weight, 0.0), 1.0)
        )
        object.__setattr__(self, "phase", self.phase % (2 * math.pi))


def swap_components(a_plus: float, b_plus: float) -> dict:
    """Post-swap doublet weights before any outcome relabeling.

    For inputs diag(A, B) and diag(C, D) the connected pair carries
    AC + BD on the "+" member and AD + BC on the "-" member; their
    difference is (A - B)(C - D) and the computational-basis off-diagonal
    element of the output is half of that.
    """
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
    if not isinstance(n_e, int) or n_e < 1:
        raise ValueError("need integer n_e >= 1")
    return 0.5 + 0.5 * (2 * f0 - 1) ** n_e


def chain_success(p0: float, n_e: int) -> float:
    """Probability that every segment's discrimination succeeds."""
    if not 0 <= p0 <= 1:
        raise ValueError("need p0 in [0, 1]")
    if not isinstance(n_e, int) or n_e < 1:
        raise ValueError("need integer n_e >= 1")
    if p0 == 0.0:
        return 0.0
    # Log-domain so huge n_e underflows gracefully instead of rounding.
    return math.exp(n_e * math.log(p0)) if p0 < 1.0 else 1.0


def _compositions(total: int, parts: int) -> np.ndarray:
    # Every row of ``parts`` counts summing to ``total``, in lexicographic
    # order: a row whose last count is k branches into heads 0..k and k - head.
    t = np.array([[total]])
    for _ in range(parts - 1):
        branches = t[:, -1] + 1
        firsts = np.repeat(np.cumsum(branches) - branches, branches)
        head = np.arange(firsts.size) - firsts
        t = np.repeat(t, branches, axis=0)
        t = np.column_stack([t[:, :-1], head, t[:, -1] - head])
    return t


def _distribution(weights: LossWeights, n_e: int, limit: int):
    if not isinstance(n_e, int) or n_e < 1:
        raise ValueError("need integer n_e >= 1")
    big_m = 2**weights.m
    n_combos = math.comb(n_e + big_m - 1, big_m - 1)
    if n_combos > limit:
        raise ValueError(
            f"{n_combos} syndrome combinations exceed the limit {limit}"
        )
    p = weights.p
    group = np.array([p[i] + p[i + big_m] for i in range(big_m)])
    diff = np.array([p[i] - p[i + big_m] for i in range(big_m)])
    ratio = np.divide(
        diff, group, out=np.zeros_like(diff), where=group > 0
    )
    t = _compositions(n_e, big_m)
    # log of n_e!/prod t_i! * prod g_i^t_i, so neither the multinomial
    # nor the powers leave float range; a row that needs an empty group
    # (g_i = 0, t_i > 0) is exactly zero, exp(-inf), so its log-multinomial,
    # which can overflow exp on a long chain, is never exponentiated.
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n_e + 1)])
    log_group = np.log(group, out=np.zeros_like(group), where=group > 0)
    log_prob = log_fact[n_e] - log_fact[t].sum(axis=1) + t @ log_group
    prob = np.exp(np.where((t[:, group == 0] > 0).any(axis=1), -np.inf, log_prob))
    powers = ratio ** np.arange(n_e + 1)[:, None]
    fid = 0.5 + 0.5 * np.prod(powers[t, np.arange(big_m)], axis=1)
    return t, prob, fid


def chain_distribution(
    weights: LossWeights, n_e: int, limit: int = _DEFAULT_COMBO_LIMIT
):
    """Exhaustive syndrome-combination distribution along the chain.

    Each segment independently lands in one of 2^m syndrome remainders;
    remainder i occurs with probability P_i = p_i + p_{i+2^m} and leaves
    the sign ratio (p_i - p_{i+2^m})/P_i on the Bell coherence.  A row
    per combination {t_i} gives (t, multinomial probability, exact
    fidelity 1/2 + 1/2 prod ratio_i^t_i), in lexicographic order of t.
    Rows sum to one; their probability-weighted fidelity reproduces the
    closed form.  They are built as numpy arrays, after the check that
    there are at most ``limit`` combinations (``ValueError`` otherwise).
    """
    t, prob, fid = _distribution(weights, n_e, limit)
    return list(zip(map(tuple, t.tolist()), prob.tolist(), fid.tolist()))


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
    # ``_key_fraction`` over an array, with numpy's log2 in place of libm's.
    e = 1.0 - fidelity
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.maximum(0.0, 1.0 - (-e * np.log2(e) - (1 - e) * np.log2(1 - e)))
    return np.where(e >= 0.5, 0.0, np.where(e == 0.0, 1.0, frac))


def secret_key_rate(
    f_tot: float,
    p_tot: float,
    t0: float = 1e-6,
    mode: str = "lower_bound",
    *,
    weights: LossWeights | None = None,
    n_e: int | None = None,
    limit: int = _DEFAULT_COMBO_LIMIT,
):
    """Asymptotic BB84 key rate, per second and per channel use.

    ``lower_bound`` applies the clamped key-fraction formula to the average
    fidelity.  ``exact_average`` averages it over the arrays behind the
    rows of ``chain_distribution`` (needs ``weights`` and ``n_e``, same
    ``limit``); concavity of the entropy makes it at least as large.
    """
    if mode not in _KEY_MODES:
        raise ValueError(f"mode must be one of {_KEY_MODES}")
    if not 0 <= f_tot <= 1:
        raise ValueError("need f_tot in [0, 1]")
    if not 0 <= p_tot <= 1:
        raise ValueError("need p_tot in [0, 1]")
    if t0 <= 0:
        raise ValueError("need t0 > 0")
    if mode == "lower_bound":
        frac = _key_fraction(f_tot)
    else:
        if weights is None or n_e is None:
            raise ValueError("exact_average needs weights and n_e")
        _, prob, fid = _distribution(weights, n_e, limit)
        frac = float(prob @ _key_fractions(fid))
    per_use = p_tot * frac
    per_second = per_use / t0
    if not math.isfinite(per_second):
        raise OverflowError(f"key rate per second overflows at t0={t0!r}")
    return per_second, per_use


def plob_bound(l_tot: float, l_att: float = ATTENUATION_LENGTH_KM) -> float:
    """Repeaterless secret-key capacity of the lossy line, bits per use."""
    if l_tot <= 0 or l_att <= 0:
        raise ValueError("distances must be positive")
    loss = l_tot / l_att
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


@dataclass(frozen=True)
class ChainReport:
    """Per-configuration summary row of the repeater-line analytics."""

    f0: float
    p0: float
    f_tot: float
    p_tot: float
    rate_per_second: float
    rate_per_use: float
    plob: float
    beats_plob: bool


def evaluate_chain(
    segment: SegmentParams,
    chain: ChainParams,
    usd_mode: str = "weighted_average",
    usd_q: int = 0,
    key_mode: str = "lower_bound",
) -> ChainReport:
    """Full pipeline for one configuration: segment -> chain -> key rate."""
    check_chain_geometry(segment, chain)
    spec = segment.code_spec
    weights = loss_weights(spec)
    f0 = weights.correctable_mass()
    p0 = _usd_probability(spec, usd_q, usd_mode, weights)
    f_tot = chain_fidelity(f0, chain.n_e)
    p_tot = chain_success(p0, chain.n_e)
    kwargs = {}
    if key_mode == "exact_average":
        kwargs = {"weights": weights, "n_e": chain.n_e}
    rate_s, rate_use = secret_key_rate(
        f_tot, p_tot, chain.t0, mode=key_mode, **kwargs
    )
    bound = plob_bound(chain.l_tot, segment.l_att)
    return ChainReport(
        f0=f0,
        p0=p0,
        f_tot=f_tot,
        p_tot=p_tot,
        rate_per_second=rate_s,
        rate_per_use=rate_use,
        plob=bound,
        beats_plob=rate_use > bound,
    )
