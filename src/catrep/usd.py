"""Unambiguous discrimination of lossy cat codewords.

The states here live in an exact Gaussian representation: every state is
a finite superposition of multimode coherent states, overlaps are
closed-form Gaussian products, and no Fock truncation is involved.  The
truncated-Fock route belongs to the oracle; tests pin the two against
each other.

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
import sys

from .catcode import CatCodeSpec, _check_usd, _freeze, _point_classes, _Record, _usd_probability

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

_PROBE_STYLES = ("cat", "coherent")
_NORM_FLOOR = 1e-150
_EPS = sys.float_info.epsilon
_MAX_ROUNDING = 1e-6  # largest relative rounding estimate of a returned click probability
# Largest circuit amplitude √η·α.  Terms equal in exact arithmetic differ by
# rounding, so a pair of them carries a spurious phase Im(x̄y) of about
# eps·|x|², which the click guard's estimate does not count; past this
# amplitude that phase alone passes _MAX_ROUNDING (α ≈ 6.7e4 at η = 1).
_MAX_CIRCUIT_AMPLITUDE = math.sqrt(_MAX_ROUNDING / _EPS)


class CoherentSuperposition(_Record):
    """Finite sum  sum_t  c_t |amp_t[0]> x ... x |amp_t[n-1]>.

    Held as read-only complex arrays, ``coeffs`` (T,) and ``amps``
    (T, n_modes).  The constructor takes and checks ``(coeff, amps)``
    pairs; the operations below build on the arrays of checked states
    without a second check.  Terms are never merged; states stay exact.
    Two states are equal only if they are the same object.
    """

    _fields = ("coeffs", "amps")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, terms, n_modes: int):
        if n_modes < 1:
            raise ValueError("need at least one mode")
        if not terms:
            raise ValueError("empty superposition")
        for _, row in terms:
            if len(row) != n_modes:
                raise ValueError(f"term has {len(row)} amplitudes, expected {n_modes}")
        coeffs, amps = _term_arrays(terms)
        self._set(coeffs=_freeze(coeffs), amps=_freeze(amps))

    @property
    def n_modes(self) -> int:
        return self.amps.shape[-1]

    @property
    def terms(self) -> tuple:
        """The ``(coeff, amps)`` pairs, as the constructor takes them."""
        return tuple(zip(self.coeffs.tolist(), map(tuple, self.amps.tolist())))

    def norm(self) -> float:
        return float(_norms(self))

    def normalized(self) -> "CoherentSuperposition":
        return _normalized(self)


# The private helpers below also take a stack of states: arrays with
# leading axes, coeffs (..., T) and amps (..., T, n_modes), each state of
# the stack computed with the arithmetic of a single one.


def _term_arrays(terms) -> tuple:
    # (coeffs, amps) of (coeff, amps) pairs of one length, checked once; a
    # non-finite coefficient or amplitude names the first term that has one.
    import numpy as np
    coeffs = np.array([complex(c) for c, _ in terms])
    amps = np.array([[complex(a) for a in row] for _, row in terms])
    finite = np.isfinite(coeffs) & np.isfinite(amps).all(axis=-1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"non-finite term: coefficient {coeffs[k]}, amplitudes {amps[k].tolist()}")
    return coeffs, amps


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
    import numpy as np
    xa, xb = a.amps[..., :, None, :], b.amps[..., None, :, :]
    z = xa.conj() * xb
    exponent = (1j * z.imag - 0.5 * abs(xa - xb) ** 2).sum(axis=-1)
    terms = a.coeffs[..., :, None].conj() * b.coeffs[..., None, :]
    if must_click:
        w = -z[..., must_click]
        np.minimum(w.real, 700.0 / len(must_click), out=w.real)
        terms = terms * (-np.expm1(w)).prod(axis=-1)
    return terms * np.exp(exponent)


def _pair_sums(terms: np.ndarray) -> np.ndarray:
    # Each (T, T') block summed as one flat run, as ``.sum()`` sums one block.
    return terms.reshape(terms.shape[:-2] + (-1,)).sum(axis=-1)


def _norms(s: CoherentSuperposition) -> np.ndarray:
    import numpy as np
    return np.sqrt(np.maximum(_pair_sums(_pair_terms(s, s)).real, 0.0))


def _normalized(s: CoherentSuperposition) -> CoherentSuperposition:
    n = _norms(s)
    if (n < _NORM_FLOOR).any():
        raise ValueError("cannot normalize a (numerically) zero state")
    # real and imaginary parts each divided by n, as c / n does
    return _state((s.coeffs.view(float) / n[..., None]).view(complex), s.amps)


def overlap(a: CoherentSuperposition, b: CoherentSuperposition) -> complex:
    """Exact inner product <a|b>."""
    if a.n_modes != b.n_modes:
        raise ValueError(f"mode count mismatch: {a.n_modes} vs {b.n_modes}")
    return complex(_pair_sums(_pair_terms(a, b)))


def tensor(*states: CoherentSuperposition) -> CoherentSuperposition:
    """Tensor product, modes concatenated in argument order.

    One term per choice of a term from each state, the last state's
    fastest, its coefficient the product of theirs in argument order.
    """
    if not states:
        raise ValueError("nothing to tensor")
    return _state(*_tensor([(s.coeffs, s.amps) for s in states]))


def _tensor(factors):
    # (coeffs, amps) of the product of (coeffs, amps) factors, each
    # factor's terms laid along an axis of its own; leading stack axes
    # broadcast across the factors.  The coefficients are multiplied in
    # one np.prod over a stacked axis: a running product of binary
    # multiplies rounds some one-term products differently.
    import numpy as np
    n = len(factors)
    sizes = tuple(c.shape[-1] for c, _ in factors)
    shape = np.broadcast_shapes(*(c.shape[:-1] for c, _ in factors)) + sizes
    coeffs = np.empty((n,) + shape, complex)
    amps = np.empty(shape + (sum(a.shape[-1] for _, a in factors),), complex)
    col = 0
    for k, (c, a) in enumerate(factors):
        axes = (1,) * k + sizes[k : k + 1] + (1,) * (n - k - 1)
        coeffs[k] = c.reshape(c.shape[:-1] + axes)
        modes = a.shape[-1]
        amps[..., col : col + modes] = a.reshape(a.shape[:-2] + axes + (modes,))
        col += modes
    lead = shape[:-n]
    return coeffs.prod(axis=0).reshape(lead + (-1,)), amps.reshape(lead + (-1, col))


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
    return _state(s.coeffs, _split(s.amps, (i, j)))


def _split(amps: np.ndarray, *port_pairs) -> np.ndarray:
    # The splitters on the given port pairs, in order, on one copy.
    r = 1.0 / math.sqrt(2.0)
    out = amps.copy()
    for i, j in port_pairs:
        x, y = out[..., i], out[..., j]
        out[..., i], out[..., j] = (x + y) * r, (x - y) * r
    return out


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
    total, estimate = float(terms.sum().real), _EPS * float(abs(terms).sum())
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
    return CoherentSuperposition(_cat_terms(m, amplitude, logical, losses), 1).normalized()


def _cat_terms(m: int, amplitude: complex, logical: int, losses: int) -> list:
    big_m = 2**m
    nu = cmath.exp(1j * math.pi / big_m) if logical else 1.0
    amps = [amplitude * cmath.exp(2j * math.pi * k / big_m) * nu for k in range(big_m)]
    return [(a**losses, (a,)) for a in amps]


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
    _check_usd(mode, q, spec.order)
    weights, per_class = _point_classes(spec, weights=mode == "weighted_average")
    return _usd_probability(weights, per_class, q, mode)


def linear_optics_output_states(
    alpha: float, eta: float = 1.0, q: int = 0, probe_style: str = "cat"
):
    """Output states of the three-beam-splitter discriminator, per input.

    Four modes.  The signal (mode 0) is split against vacuum (mode 1); one
    half meets a real-axis probe (mode 2), the other an imaginary-axis
    probe (mode 3).  Ports after the circuit: A = 0, B = 2, C = 1, D = 3.
    Returns ``(out_for_logical0, out_for_logical1)``, read-only views of
    one stack in which both inputs' states are built at once.  Raises
    ``ArithmeticError`` naming the amplitude where √η·α is too bright for
    float terms to resolve the states' phases.
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
    # The probes (real, imaginary) and both signals are normalized in one
    # stacked pass.  A coherent probe is a cat probe whose second term has
    # coefficient 0: that term adds exactly 0 to its norm and is dropped.
    sign, n_probe = ((-1) ** q, 2) if probe_style == "cat" else (0.0, 1)
    terms = [((1.0, (h,)), (sign, (-h,))) for h in (half, 1j * half)]
    terms += [_cat_terms(1, beta, logical, q) for logical in (0, 1)]
    coeffs, amps = _term_arrays([term for t in terms for term in t])
    # after the finiteness check, which names a non-finite α, and before
    # any term is squared
    if beta > _MAX_CIRCUIT_AMPLITUDE:
        raise ArithmeticError(
            f"circuit at alpha={alpha}, eta={eta}, q={q}: amplitude sqrt(eta)*alpha = "
            f"{beta:.4g} exceeds {_MAX_CIRCUIT_AMPLITUDE:.4g}, past which the rounding "
            f"phase eps*beta^2 of its terms exceeds {_MAX_ROUNDING:g}"
        )
    stack = _normalized(_state(coeffs.reshape(4, 2), amps.reshape(4, 2, 1)))
    probes = [(stack.coeffs[k, :n_probe], stack.amps[k, :n_probe]) for k in (0, 1)]
    signals = (stack.coeffs[2:], stack.amps[2:])
    import numpy as np
    vacuum = np.ones(1, complex), np.zeros((1, 1), complex)  # one mode
    coeffs, amps = _tensor([signals, vacuum, *probes])
    amps = _split(amps, (0, 1), (0, 2), (1, 3))
    return tuple(_state(coeffs[k], amps[k]) for k in (0, 1))


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
