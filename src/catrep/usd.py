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
import math
from dataclasses import dataclass

import numpy as np

from .catcode import CatCodeSpec, LossWeights, loss_weights
from .catcode import _alpha_squared, _class_series, _log_factorial
from .fockspace import _freeze

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
_EPS = float(np.finfo(float).eps)
_MAX_ROUNDING = 1e-6  # largest relative rounding estimate of a returned click probability


@dataclass(frozen=True, init=False, eq=False)
class CoherentSuperposition:
    """Finite sum  sum_t  c_t |amp_t[0]> x ... x |amp_t[n-1]>.

    Held as read-only complex arrays, ``coeffs`` (T,) and ``amps``
    (T, n_modes).  The constructor takes and checks ``(coeff, amps)``
    pairs; the operations below build on the arrays of checked states
    without a second check.  Terms are never merged; states stay exact.
    """

    coeffs: np.ndarray
    amps: np.ndarray

    def __init__(self, terms, n_modes: int):
        if n_modes < 1:
            raise ValueError("need at least one mode")
        if not terms:
            raise ValueError("empty superposition")
        coeffs = [complex(c) for c, _ in terms]
        amps = [[complex(a) for a in term_amps] for _, term_amps in terms]
        for c, row in zip(coeffs, amps):
            if len(row) != n_modes:
                raise ValueError(f"term has {len(row)} amplitudes, expected {n_modes}")
            if not all(map(cmath.isfinite, (c, *row))):
                raise ValueError(f"non-finite term: coefficient {c}, amplitudes {row}")
        object.__setattr__(self, "coeffs", _freeze(np.array(coeffs)))
        object.__setattr__(self, "amps", _freeze(np.array(amps)))

    @property
    def n_modes(self) -> int:
        return self.amps.shape[1]

    @property
    def terms(self) -> tuple:
        """The ``(coeff, amps)`` pairs, as the constructor takes them."""
        return tuple(zip(self.coeffs.tolist(), map(tuple, self.amps.tolist())))

    def norm(self) -> float:
        return math.sqrt(max(overlap(self, self).real, 0.0))

    def normalized(self) -> "CoherentSuperposition":
        n = self.norm()
        if n < _NORM_FLOOR:
            raise ValueError("cannot normalize a (numerically) zero state")
        # real and imaginary parts each divided by n, as c / n does
        return _state((self.coeffs.view(float) / n).view(complex), self.amps)


def _state(coeffs: np.ndarray, amps: np.ndarray) -> CoherentSuperposition:
    # A superposition made from the arrays of checked states: no new check.
    s = object.__new__(CoherentSuperposition)
    object.__setattr__(s, "coeffs", _freeze(coeffs))
    object.__setattr__(s, "amps", _freeze(amps))
    return s


def _pair_terms(a: CoherentSuperposition, b: CoherentSuperposition, must_click=()):
    # Pair terms conj(c_t) c'_t' prod_modes f(x, y), with z = conj(x) y and
    # f = <x|y> = exp(z - (|x|^2 + |y|^2)/2) on a free mode, or
    # f = <x|(1 - |0><0|)|y> = <x|y> (-expm1(-z)) on a clicking mode, so no
    # exponent is positive.  The exponent is taken as i Im z - |x - y|^2/2,
    # which does not cancel for bright amplitudes.  Capping Re(-z) at 700/k
    # on k clicking modes keeps their product finite; it moves only pairs
    # where a clicking factor is below 2e^(-700/k).
    xa, xb = a.amps[:, None, :], b.amps[None, :, :]
    z = xa.conj() * xb
    exponent = (1j * z.imag - 0.5 * abs(xa - xb) ** 2).sum(axis=-1)
    terms = a.coeffs[:, None].conj() * b.coeffs[None, :]
    if must_click:
        w = -z[..., must_click]
        np.minimum(w.real, 700.0 / len(must_click), out=w.real)
        terms = terms * (-np.expm1(w)).prod(axis=-1)
    return terms * np.exp(exponent)


def overlap(a: CoherentSuperposition, b: CoherentSuperposition) -> complex:
    """Exact inner product <a|b>."""
    if a.n_modes != b.n_modes:
        raise ValueError(f"mode count mismatch: {a.n_modes} vs {b.n_modes}")
    return complex(_pair_terms(a, b).sum())


def tensor(*states: CoherentSuperposition) -> CoherentSuperposition:
    """Tensor product, modes concatenated in argument order.

    One term per choice of a term from each state, the last state's
    fastest, its coefficient the product of theirs in argument order.
    """
    if not states:
        raise ValueError("nothing to tensor")
    picks = np.indices([len(s.coeffs) for s in states]).reshape(len(states), -1)
    coeffs = np.prod([s.coeffs[k] for s, k in zip(states, picks)], axis=0)
    amps = np.concatenate([s.amps[k] for s, k in zip(states, picks)], axis=1)
    return _state(coeffs, amps)


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
    x, y = s.amps[:, i], s.amps[:, j]
    amps = s.amps.copy()
    amps[:, i] = (x + y) * r
    amps[:, j] = (x - y) * r
    return _state(s.coeffs, amps)


def click_probability(s: CoherentSuperposition, must_click) -> float:
    """Probability that every listed mode yields at least one photon.

    One Gaussian sum over term pairs, each listed mode's factor taken with
    expm1, so dim signals do not cancel.  Modes not listed are traced over;
    ``s`` must be normalized.  Raises ``ArithmeticError`` when the sum's
    rounding estimate (not a bound) eps * sum |pair term| exceeds 1e-6 of it.
    """
    ports = tuple(must_click)
    if len(set(ports)) != len(ports):
        raise ValueError("duplicate ports in must_click")
    for p in ports:
        if not 0 <= p < s.n_modes:
            raise ValueError(f"port {p} out of range for {s.n_modes} modes")
    terms = _pair_terms(s, s, ports)
    total, estimate = float(terms.sum().real), _EPS * float(np.abs(terms).sum())
    if not estimate <= _MAX_ROUNDING * total:
        raise ArithmeticError(
            f"click probability {total:.6g} not resolved: rounding estimate "
            f"{estimate:.3g} exceeds {_MAX_ROUNDING:g} of it"
        )
    return min(total, 1.0)


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
    amps = [amplitude * cmath.exp(2j * math.pi * k / big_m) * nu for k in range(big_m)]
    return CoherentSuperposition([(a**losses, (a,)) for a in amps], 1).normalized()


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
    log_y = math.log(y)
    out = []
    for q in range(big_m):
        t_a, _f_a, rest_a = table[(-q) % (2 * big_m)]
        t_b, _f_b, rest_b = table[(big_m - q) % (2 * big_m)]
        d = (
            (t_a - t_b) * log_y
            - (_log_factorial(t_a) - _log_factorial(t_b))
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
    w = (weights if weights is not None else loss_weights(spec)).p.tolist()
    total = math.fsum(
        (w[r] + w[r + big_m]) * per_class[r] for r in range(big_m)
    )
    # Convex combination of values in [0, 1]; shave rounding excursions.
    if not -1e-12 <= total <= 1.0 + 1e-12:
        raise ArithmeticError(f"weighted success {total} outside [0, 1]")
    return min(max(total, 0.0), 1.0)


def _probe(amplitude: complex, sign: int, style: str) -> CoherentSuperposition:
    terms = ((1.0, (amplitude,)), (sign, (-amplitude,)))
    return CoherentSuperposition(terms[: 1 if style == "coherent" else 2], 1).normalized()


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
    half = beta / math.sqrt(2.0)
    vacuum = CoherentSuperposition(((1.0, (0.0,)),), 1)
    probes = [_probe(h, (-1) ** q, probe_style) for h in (half, 1j * half)]  # real, imaginary
    outs = []
    for logical in (0, 1):
        signal = cat_superposition(1, beta, logical, q)
        state = tensor(signal, vacuum, *probes)
        for ports in ((0, 1), (0, 2), (1, 3)):
            state = beam_splitter(state, ports)
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
    try:
        p_cd_given_0 = click_probability(out0, (1, 3))
        p_ab_given_1 = click_probability(out1, (0, 2))
    except ArithmeticError as exc:
        raise ArithmeticError(f"circuit at alpha={alpha}, eta={eta}, q={q}: {exc}") from exc
    return 0.5 * (p_cd_given_0 + p_ab_given_1)


def linear_optics_closed_form(alpha: float, eta: float = 1.0) -> float:
    """Closed form for the q = 0 circuit success probability.

    With x the mean photon number surviving the channel, the no-click
    probabilities of the conclusive ports combine to
    ``1 - 1/cosh(x/2) + (1 - cos(x/2))/cosh(x)``, evaluated as
    ``2 sinh(x/4)^2/cosh(x/2) + 2 sin(x/4)^2/cosh(x)`` in powers of e^-x,
    so it neither cancels for small x nor overflows for large x.
    """
    x = eta * alpha**2
    e = math.exp(-x)
    return math.expm1(-0.5 * x) ** 2 / (1.0 + e) + 4.0 * math.sin(0.25 * x) ** 2 * e / (1.0 + e * e)


def usd_sweep(alphas, q: int = 0, probe_style: str = "cat"):
    """Optimal versus circuit success over a range of lossless amplitudes.

    Returns rows ``(alpha, p_optimal, p_linear_optics)`` where the optimal
    column is the per-class value at the given ``q`` for the order-2 code.
    """
    rows = []
    for a in map(float, alphas):
        p_opt = optimal_usd_probability(CatCodeSpec(m=1, alpha=a), q=q, mode="per_q")
        rows.append((a, p_opt, linear_optics_usd_probability(a, q=q, probe_style=probe_style)))
    return rows
