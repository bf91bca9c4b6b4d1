"""Unambiguous discrimination of lossy cat codewords.

The states here live in an exact Gaussian representation: every state is
a finite superposition of multimode coherent states, overlaps are
closed-form Gaussian products, and no Fock truncation is involved.  The
truncated-Fock route belongs to the oracle; tests pin the two against
each other.

Two discrimination figures of merit sit here.  The information-theoretic
optimum ``1 - |<a|b>|`` per loss class comes from the class series of
``catcode`` in closed form, free of cancellation at any signal strength.
A concrete three-beam-splitter circuit discriminates the order-2 code
unambiguously at a lower but experimentally plain success rate, in closed
form; its output states, composed from the public state operations here,
are the reference.
"""

from __future__ import annotations

import cmath
import math
import sys

from .catcode import CatCodeSpec, _check_int, _double, _freeze, _Point, _Record

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
_SPLIT = 1.0 / math.sqrt(2.0)  # a balanced beam splitter's amplitude ratio
# Largest amplitude √η·α of the output states.  Terms equal in exact
# arithmetic differ by rounding, so a pair of them carries a spurious phase
# Im(x̄y) of about eps·|x|², which the click guard's estimate does not count;
# past this amplitude that phase alone passes _MAX_ROUNDING (α ≈ 6.7e4 at η = 1).
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
        import numpy as np
        if n_modes < 1:
            raise ValueError("need at least one mode")
        if not terms:
            raise ValueError("empty superposition")
        for _, row in terms:
            if len(row) != n_modes:
                raise ValueError(f"term has {len(row)} amplitudes, expected {n_modes}")
        coeffs = np.array([complex(c) for c, _ in terms])
        amps = np.array([[complex(a) for a in row] for _, row in terms])
        # a non-finite coefficient or amplitude names the first term that has one
        finite = np.isfinite(coeffs) & np.isfinite(amps).all(axis=-1)
        if not finite.all():
            k = int(np.argmin(finite))
            raise ValueError(
                f"non-finite term: coefficient {coeffs[k]}, amplitudes {amps[k].tolist()}"
            )
        self._set(coeffs=_freeze(coeffs), amps=_freeze(amps))

    @property
    def n_modes(self) -> int:
        return self.amps.shape[-1]

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
        coeffs = _freeze((self.coeffs.view(float) / n).view(complex))
        return CoherentSuperposition._from_checked(coeffs=coeffs, amps=self.amps)


def _pair_pass(a: CoherentSuperposition, b: CoherentSuperposition) -> tuple:
    # Per term pair: z = conj(x) y on each mode, the coefficient pair, and
    # <x|y> = prod_modes exp(z - (|x|^2 + |y|^2)/2), its exponent taken as
    # i Im z - |x - y|^2/2: never positive, and no cancellation when bright.
    import numpy as np
    xa, xb = a.amps[:, None, :], b.amps[None, :, :]
    z = xa.conj() * xb
    exponent = (1j * z.imag - 0.5 * abs(xa - xb) ** 2).sum(axis=-1)
    pairs = a.coeffs[:, None].conj() * b.coeffs[None, :]
    return z, pairs, np.exp(exponent)


def overlap(a: CoherentSuperposition, b: CoherentSuperposition) -> complex:
    """Exact inner product <a|b>."""
    if a.n_modes != b.n_modes:
        raise ValueError(f"mode count mismatch: {a.n_modes} vs {b.n_modes}")
    _, pairs, gauss = _pair_pass(a, b)
    return complex((pairs * gauss).sum())


def tensor(*states: CoherentSuperposition) -> CoherentSuperposition:
    """Tensor product, modes concatenated in argument order.

    One term per choice of a term from each state, the last state's
    fastest, its coefficient the product of theirs in argument order.
    """
    if not states:
        raise ValueError("nothing to tensor")
    import numpy as np
    n, coeffs, columns = len(states), [], []
    for k, s in enumerate(states):  # the terms of state k along axis k of n
        axes = (1,) * k + s.coeffs.shape + (1,) * (n - k - 1)
        coeffs.append(s.coeffs.reshape(axes))
        columns += [x.reshape(axes) for x in s.amps.T]
    # One np.prod over a stacked axis multiplies the factors: a running
    # product of binary multiplies rounds some products differently.
    factors = np.stack(np.broadcast_arrays(*coeffs)).prod(axis=0).reshape(-1)
    amps = np.stack(np.broadcast_arrays(*columns), axis=-1).reshape(-1, len(columns))
    return CoherentSuperposition._from_checked(coeffs=_freeze(factors), amps=_freeze(amps))


def beam_splitter(s: CoherentSuperposition, ports) -> CoherentSuperposition:
    """Balanced beam splitter on the given pair of modes.

    Amplitudes map as (x, y) -> ((x + y)/sqrt(2), (x - y)/sqrt(2)); the map
    is its own inverse.  Coherent amplitudes transform classically, so each
    term maps term-by-term and norms are preserved exactly.
    """
    i, j = _ports(s, ports, "beam splitter needs two distinct ports")
    amps = s.amps.copy()
    x, y = s.amps[:, i], s.amps[:, j]
    amps[:, i], amps[:, j] = (x + y) * _SPLIT, (x - y) * _SPLIT
    return CoherentSuperposition._from_checked(coeffs=s.coeffs, amps=_freeze(amps))


def _ports(s: CoherentSuperposition, ports, repeated: str) -> tuple:
    # The ports as a tuple: distinct ints (a bool is none) within s's modes.
    ports = tuple(ports)
    for p in ports:
        _check_int("port", p)
    if len(set(ports)) != len(ports):
        raise ValueError(repeated)
    for p in ports:
        if not 0 <= p < s.n_modes:
            raise ValueError(f"port {p} out of range for {s.n_modes} modes")
    return ports


def click_probability(s: CoherentSuperposition, must_click) -> float:
    """Probability that every listed mode yields at least one photon.

    One Gaussian sum over term pairs, each listed mode's factor taken with
    expm1, so dim signals do not cancel.  Modes not listed are traced over;
    ``s`` must be normalized.  Raises ``ArithmeticError`` when the sum's
    rounding estimate (not a bound) eps * sum |pair term| exceeds 1e-6 of it.
    """
    import numpy as np
    ports = _ports(s, must_click, "duplicate ports in must_click")
    z, pairs, gauss = _pair_pass(s, s)
    # <x|y> taken as <x|(1 - |0><0|)|y> = <x|y> (-expm1(-z)) on each clicking
    # mode; Re(-z) capped at 700/k on k of them keeps their product finite
    # and moves only pairs where a clicking factor is below 2e^(-700/k).
    if ports:
        w = -z[:, :, ports]
        np.minimum(w.real, 700.0 / len(ports), out=w.real)
        pairs = pairs * (-np.expm1(w)).prod(axis=-1)
    terms = pairs * gauss
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
    for name, n in (("m", m), ("logical", logical), ("losses", losses)):
        _check_int(name, n)
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
    return _Point(spec, mode, q).p0()


def linear_optics_output_states(
    alpha: float, eta: float = 1.0, q: int = 0, probe_style: str = "cat"
):
    """Output states of the three-beam-splitter discriminator, per input.

    Four modes.  The signal (mode 0) is split against vacuum (mode 1); one
    half meets a real-axis probe (mode 2), the other an imaginary-axis
    probe (mode 3).  Ports after the circuit: A = 0, B = 2, C = 1, D = 3.
    Returns ``(out_for_logical0, out_for_logical1)``: each input's
    codeword tensored with vacuum and both normalized probes, then split on
    modes (0, 1), (0, 2) and (1, 3).  Raises ``ArithmeticError`` naming the
    amplitude where √η·α is too bright for float terms to resolve the
    states' phases.
    """
    alpha, eta = _circuit_point(alpha, eta, q, probe_style)
    beta = math.sqrt(eta) * alpha
    half = beta / math.sqrt(2.0)
    # The probes' terms are checked first, so a non-finite α is named by
    # the first of them, and the amplitude before any term is squared.
    n_terms = 2 if probe_style == "cat" else 1
    probes = [
        CoherentSuperposition(((1.0, (h,)), ((-1) ** q, (-h,)))[:n_terms], 1)
        for h in (half, 1j * half)
    ]
    if beta > _MAX_CIRCUIT_AMPLITUDE:
        raise ArithmeticError(
            f"circuit at alpha={alpha}, eta={eta}, q={q}: amplitude sqrt(eta)*alpha = "
            f"{beta:.4g} exceeds {_MAX_CIRCUIT_AMPLITUDE:.4g}, past which the rounding "
            f"phase eps*beta^2 of its terms exceeds {_MAX_ROUNDING:g}"
        )
    vacuum = CoherentSuperposition(((1.0, (0.0,)),), 1)
    probes = [p.normalized() for p in probes]
    outs = [tensor(cat_superposition(1, beta, logical, q), vacuum, *probes) for logical in (0, 1)]
    for ports in ((0, 1), (0, 2), (1, 3)):
        outs = [beam_splitter(s, ports) for s in outs]
    return tuple(outs)


def _circuit_point(alpha, eta, q, probe_style) -> tuple:
    # The checked point, α and η as doubles read as CatCodeSpec reads them;
    # a NaN α passes, for the circuit's check of its terms to name.
    if probe_style not in _PROBE_STYLES:
        raise ValueError(f"probe_style must be one of {_PROBE_STYLES}")
    _check_int("class index q", q)
    if q not in (0, 1):
        raise ValueError("circuit handles the order-2 code: q in {0, 1}")
    alpha_, eta_ = _double(alpha), _double(eta)
    if not 0.0 < alpha_ and alpha == alpha:
        raise ValueError("need alpha > 0")
    if not 0.0 < eta_ <= 1.0:
        raise ValueError("need 0 < eta <= 1")
    return alpha_, eta_


def linear_optics_usd_probability(
    alpha: float, eta: float = 1.0, q: int = 0, probe_style: str = "cat"
) -> float:
    """Success probability of the beam-splitter discriminator, in closed form.

    Success: C and D click for logical 0, A and B for logical 1, never the
    wrong pair.  With x = ηα², u = e^(-x/2), d = 1 - u, s = 4 sin²(x/4),
    w = (s/d) u (1 - u³) and G = 1 - (sin t/sinh t)², t = x/4, the vacuum
    projections of ``linear_optics_output_states`` give d²/(1 + u²) +
    s u²/(1 + u⁴) (q = 0, cat probes), (d² + s u⁴)/(1 + u⁴) (q = 0,
    coherent), (G (1 + u⁴) + w)/((1 + u)² (1 + u²)) (q = 1, cat) and
    (G d + w)/((1 + u)(1 + u²)) (q = 1, coherent): sums of non-negative
    terms in powers of e^(-x/2), so they neither cancel nor overflow.
    """
    alpha, eta = _circuit_point(alpha, eta, q, probe_style)
    if alpha != alpha or alpha == math.inf:  # as the output states' term check names it
        raise ValueError(f"non-finite term: coefficient (1+0j), amplitudes [{complex(alpha)}]")
    x = eta * (alpha * alpha)  # as catcode forms it; alpha**2 would raise past 1.3e154
    if x * x == 0.0 or x == math.inf:  # the value (below x²/4) underflows too, or it is 1
        return float(x == math.inf)
    u, d, s = math.exp(-0.5 * x), -math.expm1(-0.5 * x), 4.0 * math.sin(0.25 * x) ** 2
    u2, cat = u * u, probe_style == "cat"
    if q == 0:
        return d * d / (1.0 + u2) + s * u2 / (1.0 + u2 * u2) if cat else (
            (d * d + s * u2 * u2) / (1.0 + u2 * u2))
    if (t := 0.25 * x) < 1.0:  # a = (sinh t - sin t)/sinh t, as 2 (t³/3! + t⁷/7! + ...)/sinh t
        t4 = t**4
        a = t**3 / 3 * (1 + t4 / 840 * (1 + t4 / 7920 * (1 + t4 / 32760))) / math.sinh(t)
        g = a * (2.0 - a)
    else:  # (sin t/sinh t)² = s u/d²
        g = 1.0 - s * u / (d * d)
    w = s / d * u * -math.expm1(-1.5 * x)
    num, den = (g * (1.0 + u2 * u2) + w, 1.0 + u) if cat else (g * d + w, 1.0)
    return num / (den * (1.0 + u) * (1.0 + u2))


def linear_optics_closed_form(alpha: float, eta: float = 1.0) -> float:
    """The q = 0 cat-probe success, 1 - 1/cosh(x/2) + (1 - cos(x/2))/cosh(x), x = ηα²."""
    return linear_optics_usd_probability(alpha, eta)


def usd_sweep(alphas, q: int = 0, probe_style: str = "cat"):
    """Optimal versus circuit success over a range of lossless amplitudes.

    Returns rows ``(alpha, p_optimal, p_linear_optics)`` where the optimal
    column is the per-class value at the given ``q`` for the order-2 code.
    """
    rows = []
    for a in alphas:
        if type(a) is bool:
            _Record._refuse_bool(alpha=a)
        a = float(a)
        p_opt = optimal_usd_probability(CatCodeSpec(m=1, alpha=a), q=q, mode="per_q")
        rows.append((a, p_opt, linear_optics_usd_probability(a, q=q, probe_style=probe_style)))
    return rows
