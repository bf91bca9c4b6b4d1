"""Rotation-symmetric bosonic codewords and their loss analytics.

A code of order M = 2^m superposes M rotated copies of a primitive state.
With a coherent primitive (a cat code) everything about pure-loss
transmission reduces to two interleaved exponential series: the class
weights of the lost-photon count mod 2M and the class structure of the
surviving photon number mod M.  Both are evaluated in log domain so the
analytics stay finite far beyond where dense Fock vectors overflow.

Class bookkeeping used throughout the package: losing k photons from a
codeword pair leaves a state that depends on k only through k mod 2M,
and the pair with k' = k + M equals the pair for k with the sign of the
logical-one component flipped.  Hence 2M distinguishable loss classes,
of which the first M are correctable.
"""

from __future__ import annotations

import functools
import math
import threading

__all__ = [
    "CatCodeSpec",
    "LossWeights",
    "loss_weights",
    "segment_fidelity",
]

# Series terms 16 decades under the peak are dropped; matches the
# plain-domain next-term-below-1e-16*sum stopping rule.
_LOG_DROP = math.log(1e-16)
# Largest stop index a class series may reach (alpha about 2000).  The
# walk evaluates about 17·sqrt(x)/modulus terms per residue, so the bound
# is a scope limit rather than a memory one: a wider window is refused,
# naming the amplitude or the modulus, before any term is evaluated.
_MAX_SERIES_STOP = 4_000_000
# log t! for t < len(_LOG_FACT), as lgamma(t + 1.0) gives it.  Built on
# first use and grown on demand up to the cap (about 0.5 MB of floats);
# a term past the cap calls lgamma itself.
_LOG_FACT_CAP = 16_384
_LOG_FACT: list[float] = []
_LOG_FACT_GROWING = threading.Lock()
_MODES = ("per_q", "weighted_average", "worst_case")


class _Record:
    """Immutable record: ``__init__`` checks and sets the attributes ``_fields`` names, once
    and in that order, by keyword through `_set`; `_from_checked` sets values already checked.
    Equality, hash and repr go by their values; assigning or deleting any attribute raises."""

    _fields: tuple[str, ...] = ()

    @classmethod
    def _from_checked(cls, **values):
        """The record of values its caller has checked, by keyword: no ``__init__`` runs."""
        record = object.__new__(cls)
        record.__dict__.update(values)  # not through _set: no second keyword dict
        return record

    def _set(self, **values) -> None:
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def _require_finite(self, *names: str) -> None:
        """Refuse a named field that is a bool or not finite; keep each as its double."""
        fields = self.__dict__
        for name in names:
            value = fields[name]
            if not math.isfinite(value):
                raise ValueError(f"{name}={value!r} must be finite")
            if type(value) is not float:
                if isinstance(value, bool):
                    raise ValueError(f"{name}={value!r} must be a number, not a bool")
                fields[name] = float(value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _same(self._values(), other._values())

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _same(a, b) -> bool:
    """a == b: two tuples that hold more than numbers and strings element by element, other
    values by identity or as `np.array_equal` (by shape and elements)."""
    if type(a) is not tuple or type(b) is not tuple:
        import numpy as np
        return a is b or np.array_equal(a, b)
    if {bool, int, float, str}.issuperset(map(type, a + b)):
        return a == b
    return len(a) == len(b) and all(map(_same, a, b))


class CatCodeSpec(_Record):
    """Code order, primitive amplitude, and end-to-end transmission.

    m is the cascade depth: code order M = 2^m, correctable loss order
    M − 1.  The amplitude is restricted to real α > 0 because every
    closed form below assumes it; the Fock engine has no such
    restriction and is used to cross-check robustness elsewhere.  α and η
    are kept as doubles, so every engine reads a point's numbers alike.
    """

    _fields = ("m", "alpha", "eta")

    def __init__(self, m: int, alpha: float, eta: float = 1.0):
        if not _is_count(m):
            raise ValueError(f"cascade depth m={m!r} must be an integer >= 1")
        if not 0.0 < (alpha_ := _double(alpha)) < math.inf:
            raise ValueError(f"amplitude alpha={alpha!r} must be real, positive and finite")
        if not 0.0 < (eta_ := _double(eta)) <= 1.0:
            raise ValueError(f"transmission eta={eta!r} outside (0, 1]")
        self._set(m=m, alpha=alpha_, eta=eta_)

    @property
    def order(self) -> int:
        return 2 ** self.m

    @property
    def loss_order(self) -> int:
        return 2 ** self.m - 1

    @property
    def n_classes(self) -> int:
        return 2 ** (self.m + 1)

    @property
    def damped_alpha(self) -> float:
        return math.sqrt(self.eta) * self.alpha


class LossWeights(_Record):
    """Probabilities of the 2M loss classes, indexed by q = 0..2M−1: as the
    floats ``values`` and as ``p``, a read-only array built on first read."""

    _fields = ("values", "m")

    def __init__(self, p, m: int):
        if not _is_count(m):
            raise ValueError(f"cascade depth m={m!r} must be an integer >= 1")
        import numpy as np
        a = np.asarray(p, dtype=float)
        if a.shape != (2 ** (m + 1),):
            raise ValueError(f"expected {2 ** (m + 1)} class weights, got shape {a.shape}")
        vals = a.tolist()
        if min(vals) < -1e-15 and not any(map(math.isnan, vals)):  # NaN fails the sum check
            raise ValueError("negative class weight")
        total = math.fsum(vals)
        if not abs(total - 1.0) <= 1e-10:  # NaN fails this too
            raise ValueError(f"class weights sum to {total}, not 1")
        self._set(values=_normalized(vals), m=m)

    @functools.cached_property
    def p(self) -> np.ndarray:
        return _freeze(self.values)

    def correctable_mass(self) -> float:
        # the normalized weights can fsum an ulp past 1
        return min(math.fsum(self.values[: 2 ** self.m]), 1.0)


def _normalized(vals: list[float]) -> tuple[float, ...]:
    """The constructor's normalization of checked class weights: clipped at
    0, which also turns -0.0 into 0.0, then each divided by their fsum, each
    quotient correctly rounded, as numpy's division gives it."""
    if min(vals) <= 0.0:
        vals = [v if v > 0.0 else 0.0 for v in vals]
    total = math.fsum(vals)
    return tuple([v / total for v in vals])


def _double(x) -> float:
    """x as a double, or NaN where x is a bool or complex (numpy's too, which
    numpy orders and float() strips of its imaginary part), is not positive
    as compared in its own type (a string is never parsed), or is past the
    float range (an int over 1.8e308)."""
    if type(x) is float:
        return x if 0.0 < x else math.nan
    if isinstance(x, (bool, complex)) or not 0.0 < x:
        return math.nan
    if type(x) is not int and getattr(getattr(x, "dtype", None), "kind", "") == "c":
        return math.nan
    try:
        return float(x)
    except OverflowError:
        return math.nan


def _is_count(n) -> bool:
    """n is an integer >= 1; a boolean is no count."""
    return isinstance(n, int) and not isinstance(n, bool) and n >= 1


def _freeze(a: np.ndarray) -> np.ndarray:
    import numpy as np
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


class _PastCap:
    """log t! for any t ≥ 0, indexed like the table: a window past the cap."""

    @staticmethod
    def __getitem__(t: int) -> float:
        return _LOG_FACT[t] if t < len(_LOG_FACT) else math.lgamma(t + 1.0)


def _log_factorials(n: int):
    """log t! = lgamma(t + 1.0), indexable at every t ≤ n: the shared table,
    grown to cover t ≤ n, or past its cap a view that falls back on lgamma."""
    top = min(n, _LOG_FACT_CAP - 1)
    if len(_LOG_FACT) <= top:
        with _LOG_FACT_GROWING:
            _LOG_FACT.extend(map(math.lgamma, range(len(_LOG_FACT) + 1, top + 2)))
    return _LOG_FACT if n < len(_LOG_FACT) else _PastCap()


def _class_series(x: float, modulus: int) -> list[tuple[int, float, float]]:
    """Per residue r < modulus: peak index t*, log t*!, and log of the
    class sum Σ_{t ≡ r (mod modulus)} x^t/t! relative to its peak term
    x^t*/t*!, whose log is t*·log x − log t*!.

    x > 0.  One window, t up to x + 12√(x+1) + 12·modulus + 30, serves
    every residue.  Each term is taken relative to its residue's largest
    one, as (t − t*) log x − log(t!/t*!), so the difference of two class
    sums keeps its relative accuracy where each sum alone is
    astronomically small.  The log terms are concave in t, so the peak is
    found by climbing from the residue member nearest x (ties keep the
    lower t) and the sum walks out from it both ways, stopping at the
    first term 16 decades under the peak: only those terms are evaluated,
    plus one per residue for the trailing guard, which requires the
    window's last term to sit 40 nats under the peak so silent truncation
    cannot happen.  Below x = 1 the terms fall from t = r on, so r is the
    peak with no climb, and the guard cannot fire: the last member lies
    10M + 44 or more past r (M the modulus), over log 54! ≈ 164 nats
    under it.  There, if residue 0's second member x^M/M! is under the
    drop, so is every residue's, and the table is written down directly.
    A window whose stop index passes `_MAX_SERIES_STOP` raises before any
    term is evaluated.  log t! is read from one shared table of libm
    ``lgamma`` values (``lgamma`` itself past the table's cap), and the
    rest is ``math`` and ``math.fsum``, never numpy, so the result
    depends on libm alone, and fsum's correct rounding makes it
    independent of summation order.
    """
    if not x > 0.0:
        raise ValueError(f"class series needs x > 0, got {x!r}")
    log_x = math.log(x)
    n_stop = int(x + 12.0 * math.sqrt(x + 1.0) + 12.0 * modulus + 30.0)
    if n_stop > _MAX_SERIES_STOP:
        cause = "amplitude" if n_stop - 12 * modulus > _MAX_SERIES_STOP else "code order"
        raise ArithmeticError(
            f"class series window (x={x:.4g}, modulus {modulus}, stop index {n_stop}) "
            f"exceeds the bound {_MAX_SERIES_STOP}; {cause} too large"
        )
    log_fact = _log_factorials(n_stop)
    exp, drop = math.exp, _LOG_DROP
    small = x < 1.0
    if small and modulus * log_x - log_fact[modulus] <= drop:  # one term per residue
        return [(r, log_fact[r], 0.0) for r in range(modulus)]
    table = []
    for residue in range(modulus):
        last = n_stop - (n_stop - residue) % modulus
        if small:  # the terms fall from t = residue on, far over the window's tail
            t_peak, g_peak = residue, log_fact[residue]
        else:
            t_peak = residue + modulus * max(round((x - residue) / modulus), 0)
            g_peak = log_fact[t_peak]
            f_peak = t_peak * log_x - g_peak
            # Climb to the first maximum: up while the next term is larger,
            # else down while the previous one is no smaller.
            start = t_peak
            t = t_peak + modulus
            while t <= last:
                g = log_fact[t]
                f = t * log_x - g
                if not f > f_peak:
                    break
                t_peak, g_peak, f_peak = t, g, f
                t += modulus
            if t_peak == start:
                t = t_peak - modulus
                while t >= residue:
                    g = log_fact[t]
                    f = t * log_x - g
                    if not f >= f_peak:
                        break
                    t_peak, g_peak, f_peak = t, g, f
                    t -= modulus
            if last * log_x - log_fact[last] > f_peak - 40.0:
                raise ArithmeticError(
                    f"class series (x={x:.4g}, mod {modulus}, residue {residue}) "
                    "not converged at the default stop; widen the window"
                )
        terms = [1.0]
        t = t_peak + modulus
        while t <= last:
            v = (t - t_peak) * log_x - (log_fact[t] - g_peak)
            if v <= drop:
                break
            terms.append(exp(v))
            t += modulus
        t = t_peak - modulus
        while t >= residue:
            v = (t - t_peak) * log_x - (log_fact[t] - g_peak)
            if v <= drop:
                break
            terms.append(exp(v))
            t -= modulus
        table.append((t_peak, g_peak, math.log(math.fsum(terms))))
    return table


def _point_series(spec: CatCodeSpec, count: float, name: str) -> list[tuple[int, float, float]]:
    """_class_series(count, 2M), its refusal naming α, η and the count."""
    try:
        return _class_series(count, spec.n_classes)
    except ArithmeticError as exc:  # the text is built on refusal only
        raise ArithmeticError(f"alpha={spec.alpha!r} (eta={spec.eta!r}): {name}: {exc}") from None


def _point_classes(
    spec: CatCodeSpec, weights: bool = True
) -> tuple[LossWeights | None, list[float]]:
    """The loss weights of a point (None without ``weights``) and the
    optimal discrimination success of each class q < M.

    Two class-series tables serve both: the lost count x = α²(1−η) and the
    survivor count y = ηα², each mod 2M.  Both lossy codewords of class q
    live on the survivor counts t ≡ −q (mod M) and differ only by the sign
    (−1)^((t+q)/M).  With A and B the sums of y^t/t! over t ≡ −q and
    t ≡ M − q (mod 2M), the survivor sum mod M is A + B, and the optimum
    1 − |overlap| = 1 − |A − B|/(A + B) = 2 min(A, B)/(A + B) has no
    cancellation at any y.  d = log A − log B is assembled from the peak
    terms' offsets, so the success stays accurate where A and B are tiny.
    Where y underflows to 0 every success is 0: the true value, at most
    2y^M/M!, is below the smallest float.  The weight of class q mod 2M is
    the lost-count sum over t ≡ q (mod 2M) times the survivor sum of its
    q mod M, renormalized to sum to 1.
    """
    big_m, n_cls = spec.order, spec.n_classes
    try:
        alpha_sq = spec.alpha ** 2
    except OverflowError:
        raise ArithmeticError(
            f"alpha={spec.alpha!r} (eta={spec.eta!r}): alpha squared overflows a float"
        ) from None
    y = spec.eta * alpha_sq
    if y == 0.0:  # only t = 0 survives
        kept, success = [0.0] + [-math.inf] * (big_m - 1), [0.0] * big_m
    else:
        log_y = math.log(y)
        table = _point_series(spec, y, "survivor count eta*alpha^2")
        kept, success = [], []  # kept[q]: log of the survivor sum over t ≡ −q (mod M)
        for q in range(big_m):
            (t_a, g_a, rest_a), (t_b, g_b, rest_b) = table[-q % n_cls], table[big_m - q]
            d = (t_a - t_b) * log_y - (g_a - g_b) + (rest_a - rest_b)
            r = math.exp(-abs(d))
            success.append(2.0 * r / (1.0 + r))
            log_a, log_b = t_a * log_y - g_a + rest_a, t_b * log_y - g_b + rest_b
            kept.append(max(log_a, log_b) + math.log1p(math.exp(-abs(log_a - log_b))))
    if not weights:
        return None, success
    x = alpha_sq * (1.0 - spec.eta)
    if x == 0.0:  # nothing lost, or α²(1−η) underflowed: only t = 0
        lost = [0.0] + [-math.inf] * (n_cls - 1)
    else:
        log_x = math.log(x)
        table = _point_series(spec, x, "lost count alpha^2*(1-eta)")
        lost = [t * log_x - g + rest for t, g, rest in table]
    log_w = [a + b for a, b in zip(lost, kept + kept)]  # class q takes kept[q mod M]
    peak = max(log_w)
    w = [math.exp(v - peak) for v in log_w]
    total = math.fsum(w)
    # 2^(m+1) finite weights, none negative, that sum to 1 within 1e-10: no new check
    return LossWeights._from_checked(values=_normalized([v / total for v in w]), m=spec.m), success


def _check_usd(mode: str, q: int, order: int) -> None:
    """Refuse a discrimination mode, or a per_q class q, before any table is built."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if mode == "per_q":
        _check_int("class index q", q)
        if not 0 <= q < order:
            raise ValueError(f"q must satisfy 0 <= q < {order}")


def _check_int(name: str, n) -> None:
    """Refuse a value n that is not an int, naming it; a bool is none."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"{name}={n!r} must be an int")


def _usd_probability(
    weights: LossWeights | None, per_class: list[float], q: int, mode: str
) -> float:
    """optimal_usd_probability from a point's `_point_classes`, mode and q checked."""
    if mode == "per_q":
        return per_class[q]
    if mode == "worst_case":
        return min(per_class)
    w, big_m = weights.values, len(per_class)
    total = math.fsum([(w[r] + w[r + big_m]) * per_class[r] for r in range(big_m)])
    # Convex combination of values in [0, 1]; shave rounding excursions.
    if not -1e-12 <= total <= 1.0 + 1e-12:
        raise ArithmeticError(f"weighted success {total} outside [0, 1]")
    return min(max(total, 0.0), 1.0)


def loss_weights(spec: CatCodeSpec) -> LossWeights:
    """Probability of each loss class q mod 2M for a transmitted codeword.

    The lost-photon count mod 2M and the survivor count mod M fix the
    class; both codewords produce the same distribution, so no logical
    label is taken.  The Fock engine arbitrates this construction in the
    tests.
    """
    return _point_classes(spec)[0]


def segment_fidelity(spec: CatCodeSpec) -> float:
    """Probability that a transmitted codeword lands in a correctable class."""
    return loss_weights(spec).correctable_mass()
