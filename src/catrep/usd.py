"""Unambiguous discrimination of lossy cat codewords.

The states here live in an exact Gaussian representation: every state is
a finite superposition of multimode coherent states, overlaps are
closed-form Gaussian products, and no Fock truncation is involved.  The
truncated-Fock route is exercised elsewhere (catcode / protocol_oracle);
tests pin the two against each other.

Two discrimination figures of merit sit here.  The information-theoretic
optimum ``1 - |<a|b>|`` per loss class comes from the class series of
``catcode`` in closed form, free of cancellation at any signal strength.
A concrete three-beam-splitter circuit, built on the Gaussian algebra,
discriminates the order-2 code unambiguously at a lower but
experimentally plain success rate.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

from .catcode import CatCodeSpec, LossWeights, _alpha_squared, _class_series, loss_weights

__all__ = [
    "CoherentSuperposition",
    "overlap",
    "tensor",
    "beam_splitter",
    "click_probability",
    "cat_superposition",
    "optimal_usd_probability",
    "linear_optics_usd_probability",
    "linear_optics_output_states",
    "linear_optics_closed_form",
    "usd_sweep",
]

_MODES = ("per_q", "weighted_average", "worst_case")
_PROBE_STYLES = ("cat", "coherent")
_NORM_FLOOR = 1e-150


@dataclass(frozen=True)
class CoherentSuperposition:
    """Finite sum  sum_t  c_t |amp_t[0]> x ... x |amp_t[n-1]>.

    ``terms`` is a tuple of ``(coeff, amps)`` pairs where ``amps`` holds one
    complex amplitude per mode.  The representation is not unique and terms
    are never merged; states stay exact under the operations below.
    """

    terms: tuple
    n_modes: int

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("need at least one mode")
        if not self.terms:
            raise ValueError("empty superposition")
        fixed = []
        for coeff, amps in self.terms:
            amps = tuple(complex(a) for a in amps)
            if len(amps) != self.n_modes:
                raise ValueError(
                    f"term has {len(amps)} amplitudes, expected {self.n_modes}"
                )
            coeff = complex(coeff)
            if not (math.isfinite(coeff.real) and math.isfinite(coeff.imag)):
                raise ValueError("non-finite coefficient")
            fixed.append((coeff, amps))
        object.__setattr__(self, "terms", tuple(fixed))

    def norm(self) -> float:
        return math.sqrt(max(overlap(self, self).real, 0.0))

    def normalized(self) -> "CoherentSuperposition":
        n = self.norm()
        if n < _NORM_FLOOR:
            raise ValueError("cannot normalize a (numerically) zero state")
        return CoherentSuperposition(
            tuple((c / n, a) for c, a in self.terms), self.n_modes
        )


def _pair_overlap(bra: tuple, ket: tuple) -> complex:
    # <b|k> = exp(-|b|^2/2 - |k|^2/2 + conj(b) k), one factor per mode.
    z = 0.0 + 0.0j
    for b, k in zip(bra, ket):
        z += -0.5 * abs(b) ** 2 - 0.5 * abs(k) ** 2 + b.conjugate() * k
    return cmath.exp(z)


def overlap(a: CoherentSuperposition, b: CoherentSuperposition) -> complex:
    """Exact inner product <a|b>."""
    if a.n_modes != b.n_modes:
        raise ValueError(f"mode count mismatch: {a.n_modes} vs {b.n_modes}")
    total = 0.0 + 0.0j
    for ca, amps_a in a.terms:
        for cb, amps_b in b.terms:
            total += ca.conjugate() * cb * _pair_overlap(amps_a, amps_b)
    return total


def tensor(*states: CoherentSuperposition) -> CoherentSuperposition:
    """Tensor product, modes concatenated in argument order."""
    if not states:
        raise ValueError("nothing to tensor")
    terms = [(1.0 + 0.0j, ())]
    n_modes = 0
    for s in states:
        n_modes += s.n_modes
        terms = [
            (c0 * c1, a0 + a1) for c0, a0 in terms for c1, a1 in s.terms
        ]
    return CoherentSuperposition(tuple(terms), n_modes)


def beam_splitter(s: CoherentSuperposition, ports) -> CoherentSuperposition:
    """Balanced beam splitter on the given pair of modes.

    Amplitudes map as (x, y) -> ((x + y)/sqrt(2), (x - y)/sqrt(2)); the map
    is its own inverse.  Coherent amplitudes transform classically, so each
    term maps term-by-term and norms are preserved exactly.
    """
    i, j = ports
    if i == j:
        raise ValueError("beam splitter needs two distinct ports")
    for p in (i, j):
        if not 0 <= p < s.n_modes:
            raise ValueError(f"port {p} out of range for {s.n_modes} modes")
    r = 1.0 / math.sqrt(2.0)
    out = []
    for c, amps in s.terms:
        a = list(amps)
        x, y = a[i], a[j]
        a[i] = (x + y) * r
        a[j] = (x - y) * r
        out.append((c, tuple(a)))
    return CoherentSuperposition(tuple(out), s.n_modes)


def _vacuum_projected(s: CoherentSuperposition, modes) -> CoherentSuperposition:
    # Apply |0><0| on each listed mode: coherent amplitude a contributes
    # <0|a> = exp(-|a|^2/2) and the mode is left in vacuum.
    out = []
    for c, amps in s.terms:
        a = list(amps)
        for m in modes:
            c = c * math.exp(-0.5 * abs(a[m]) ** 2)
            a[m] = 0.0 + 0.0j
        out.append((c, tuple(a)))
    return CoherentSuperposition(tuple(out), s.n_modes)


def click_probability(s: CoherentSuperposition, must_click) -> float:
    """Probability that every listed mode yields at least one photon.

    Inclusion-exclusion over vacuum projections:
    P(all click) = sum_{T subset} (-1)^|T| || Pvac(T) |s> ||^2.
    Modes not listed are unconstrained (traced over).  ``s`` must be
    normalized for the result to be a probability.
    """
    ports = tuple(must_click)
    if len(set(ports)) != len(ports):
        raise ValueError("duplicate ports in must_click")
    for p in ports:
        if not 0 <= p < s.n_modes:
            raise ValueError(f"port {p} out of range for {s.n_modes} modes")
    total = 0.0
    for size in range(len(ports) + 1):
        for subset in itertools.combinations(ports, size):
            proj = _vacuum_projected(s, subset)
            total += (-1) ** size * overlap(proj, proj).real
    # Tiny negatives from cancellation are legitimate zeros.
    if total < -1e-10:
        raise ArithmeticError(f"click probability {total} below zero")
    return min(max(total, 0.0), 1.0)


def cat_superposition(
    m: int, amplitude: complex, logical: int, losses: int = 0
) -> CoherentSuperposition:
    """Lossy codeword of the order-2^m cat code as a coherent superposition.

    Logical 0 lives on amplitudes ``amplitude * w^k`` with w the 2^m-th root
    of unity; logical 1 on the same fan rotated by half a step.  ``losses``
    photon-subtraction events multiply each branch coefficient by its own
    amplitude once per loss (the mode operator acts diagonally on coherent
    states).  The result is normalized.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if logical not in (0, 1):
        raise ValueError("logical must be 0 or 1")
    if losses < 0:
        raise ValueError("losses must be nonnegative")
    big_m = 2**m
    nu = cmath.exp(1j * math.pi / big_m) if logical else 1.0
    terms = []
    for k in range(big_m):
        amp = amplitude * cmath.exp(2j * math.pi * k / big_m) * nu
        terms.append((amp**losses, (amp,)))
    return CoherentSuperposition(tuple(terms), 1).normalized()


def _class_successes(spec: CatCodeSpec) -> list[float]:
    # Both lossy codewords of class q live on the photon numbers t = n - q
    # with n ≡ 0 (mod M) and differ only by the sign (-1)^(n/M).  With
    # y = eta*alpha^2, A and B sum y^t/t! over t ≡ -q and t ≡ M - q
    # (mod 2M), so |overlap| = |A - B|/(A + B) and the optimum
    # 1 - |overlap| = 2 min(A, B)/(A + B): no cancellation at any y.
    # d = log A - log B is assembled from the peak terms' offsets so it
    # stays accurate when both sums are tiny.  One table mod 2M serves
    # every class q < M.  Where y underflows to 0 every success is 0: the
    # true value, at most 2y^M/M!, is below the smallest float.
    big_m = spec.order
    y = spec.eta * _alpha_squared(spec)
    if y == 0.0:
        return [0.0] * big_m
    table = _class_series(y, 2 * big_m)
    out = []
    for q in range(big_m):
        t_a, _f_a, rest_a = table[(-q) % (2 * big_m)]
        t_b, _f_b, rest_b = table[(big_m - q) % (2 * big_m)]
        d = (
            (t_a - t_b) * math.log(y)
            - (math.lgamma(t_a + 1.0) - math.lgamma(t_b + 1.0))
            + (rest_a - rest_b)
        )
        r = math.exp(-abs(d))
        out.append(2.0 * r / (1.0 + r))
    return out


def optimal_usd_probability(
    spec: CatCodeSpec, q: int = 0, mode: str = "weighted_average"
) -> float:
    """Best possible unambiguous-discrimination success probability.

    For the equal-prior pair of normalized loss-class states the optimum is
    ``1 - |overlap|``.  ``mode`` selects what to report:

    - ``"per_q"``: the class-``q`` value (0 <= q < 2^m).
    - ``"weighted_average"``: average over classes, each weighted by the
      total probability of its syndrome remainder.
    - ``"worst_case"``: minimum over classes.

    Class q and class q + 2^m share one discrimination problem (the states
    differ by signs only), so everything runs over q < 2^m.
    """
    return _usd_probability(spec, q, mode, None)


def _usd_probability(
    spec: CatCodeSpec, q: int, mode: str, weights: LossWeights | None
) -> float:
    # optimal_usd_probability; a caller that already holds the loss weights
    # of spec passes them in, so the weighted average does not rebuild them.
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    big_m = 2**spec.m
    if mode == "per_q" and not 0 <= q < big_m:
        raise ValueError(f"q must satisfy 0 <= q < {big_m}")
    per_class = _class_successes(spec)
    if mode == "per_q":
        return per_class[q]
    if mode == "worst_case":
        return min(per_class)
    w = (weights if weights is not None else loss_weights(spec)).p
    total = math.fsum(
        (w[r] + w[r + big_m]) * per_class[r] for r in range(big_m)
    )
    # Convex combination of values in [0, 1]; shave rounding excursions.
    if not -1e-12 <= total <= 1.0 + 1e-12:
        raise ArithmeticError(f"weighted success {total} outside [0, 1]")
    return min(max(total, 0.0), 1.0)


def _probe(amplitude: complex, sign: int, style: str) -> CoherentSuperposition:
    if style == "coherent":
        return CoherentSuperposition(((1.0, (amplitude,)),), 1).normalized()
    return CoherentSuperposition(
        ((1.0, (amplitude,)), (sign, (-amplitude,))), 1
    ).normalized()


def linear_optics_output_states(
    alpha: float, eta: float = 1.0, q: int = 0, probe_style: str = "cat"
):
    """Output states of the three-beam-splitter discriminator, per input.

    Four modes.  The signal (mode 0) is split against vacuum (mode 1); one
    half meets a real-axis probe (mode 2), the other an imaginary-axis
    probe (mode 3).  Ports after the circuit: A = 0, B = 2, C = 1, D = 3.
    Returns ``(out_for_logical0, out_for_logical1)``.
    """
    if probe_style not in _PROBE_STYLES:
        raise ValueError(f"probe_style must be one of {_PROBE_STYLES}")
    if q not in (0, 1):
        raise ValueError("circuit handles the order-2 code: q in {0, 1}")
    if alpha <= 0:
        raise ValueError("need alpha > 0")
    if not 0 < eta <= 1:
        raise ValueError("need 0 < eta <= 1")
    beta = math.sqrt(eta) * alpha
    sign = -1 if q else 1
    half = beta / math.sqrt(2.0)
    vacuum = CoherentSuperposition(((1.0, (0.0,)),), 1)
    probe_real = _probe(half, sign, probe_style)
    probe_imag = _probe(1j * half, sign, probe_style)
    outs = []
    for logical in (0, 1):
        signal = cat_superposition(1, beta, logical, q)
        state = tensor(signal, vacuum, probe_real, probe_imag)
        state = beam_splitter(state, (0, 1))
        state = beam_splitter(state, (0, 2))
        state = beam_splitter(state, (1, 3))
        outs.append(state)
    return tuple(outs)


def linear_optics_usd_probability(
    alpha: float, eta: float = 1.0, q: int = 0, probe_style: str = "cat"
) -> float:
    """Success probability of the beam-splitter discriminator.

    Success means the conclusive click pattern fires: C and D both click
    when the input encodes logical 0, A and B both click for logical 1.
    Each term of the logical-0 output leaves A or B in exact vacuum (and
    vice versa), so a conclusive pattern never points at the wrong input.
    """
    out0, out1 = linear_optics_output_states(alpha, eta, q, probe_style)
    p_cd_given_0 = click_probability(out0, (1, 3))
    p_ab_given_1 = click_probability(out1, (0, 2))
    return 0.5 * (p_cd_given_0 + p_ab_given_1)


def linear_optics_closed_form(alpha: float, eta: float = 1.0) -> float:
    """Closed form for the q = 0 circuit success probability.

    With x the mean photon number surviving the channel, the no-click
    probabilities of the conclusive ports combine to
    ``1 - 1/cosh(x/2) + (1 - cos(x/2))/cosh(x)``.
    """
    x = eta * alpha**2
    return 1.0 - 1.0 / math.cosh(0.5 * x) + (1.0 - math.cos(0.5 * x)) / math.cosh(x)


def usd_sweep(alphas, q: int = 0, probe_style: str = "cat"):
    """Optimal versus circuit success over a range of lossless amplitudes.

    Returns rows ``(alpha, p_optimal, p_linear_optics)`` where the optimal
    column is the per-class value at the given ``q`` for the order-2 code.
    """
    rows = []
    for a in alphas:
        spec = CatCodeSpec(m=1, alpha=float(a))
        p_opt = optimal_usd_probability(spec, q=q, mode="per_q")
        p_lin = linear_optics_usd_probability(float(a), q=q, probe_style=probe_style)
        rows.append((float(a), p_opt, p_lin))
    return rows
