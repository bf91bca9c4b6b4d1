"""Brute-force Fock-space simulation of one elementary repeater unit.

Everything the analytic layer claims about a segment is recomputed here
the slow way: prepare the spin-codeword state by the actual measurement
cascade, push it through the loss channel Kraus by Kraus, run the
syndrome cascade branch by branch, entangle the receiving spin, and
discriminate the codeword pair with the ideal unambiguous POVM.  No
closed form from `catcode` enters any state produced here; agreement
between the two routes is the package's core validation.

The same machinery, specialized to pure states, powers
`bell_order_equivalence`, which checks that measuring the middle
station's spin pair before the modes are transmitted is observationally
identical to measuring it after both arms are fully processed.

Each operation has one implementation shared by the density and the pure
engines: the loss coefficients are `fockspace._loss_rows` (applied term
by term by `fockspace.lose` in the density engine), every cascade
(preparation, syndrome, the pure syndrome check, the projector of each
syndrome branch) is `_cascade`, and every codeword pair, the damped one
behind the discrimination bras included, is `_code_pair`.  Both Bell
orderings process an arm with one kernel, `_arm`: the arm's loss,
syndrome branch, endpoint-spin attachment and discrimination compose to
one linear map per classical record, built once per call by `_arm_maps`,
so each record is a single contraction of the arm's mode, with every
lost-photon count kept on an environment axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catcode import CatCodeSpec
from .fockspace import (
    _ZERO_BRANCH,
    FockVector,
    HybridDensity,
    _loss_rows,
    add_spin,
    amplitude_damping,
    annihilate,
    coherent_state,
    hcrot,
    hybrid_from_vector,
    trace_distance,
)

__all__ = [
    "UnitReport",
    "bell_vectors",
    "prepare_code_state",
    "transmit",
    "syndrome_cascade",
    "create_entanglement",
    "simulate_unit",
    "bell_order_equivalence",
    "syndrome_deviation",
]

_SQRT2 = math.sqrt(2.0)
_PRUNE = 1e-20


def bell_vectors(theta: float = 0.0) -> dict:
    """Generalized Bell vectors on a (receiver, sender) spin pair.

    Basis order [↑↑, ↑↓, ↓↑, ↓↓]; the phase e^{−iθ} multiplies the
    ↓-first components, so θ=0 gives the standard four Bell states.
    """
    ph = np.exp(-1j * theta)
    rt = 1.0 / _SQRT2
    return {
        "phi_plus": np.array([1.0, 0.0, 0.0, ph]) * rt,
        "phi_minus": np.array([1.0, 0.0, 0.0, -ph]) * rt,
        "psi_plus": np.array([0.0, 1.0, ph, 0.0]) * rt,
        "psi_minus": np.array([0.0, 1.0, -ph, 0.0]) * rt,
    }


# ---------------------------------------------------------------------------
# cascade kernel


_VARIANTS = ("direct", "pi_minus_phi")


def _step_angle(step: int, variant: str) -> float:
    phi = math.pi / 2 ** (step - 1)
    if variant == "direct" or step == 1:
        return phi
    return math.pi - phi


def _step_basis_phase(step: int, c: int, variant: str) -> complex:
    beta = 2.0 * math.pi * c / 2 ** step
    if variant == "direct" or step == 1:
        return complex(np.exp(1j * beta))
    # the complementary angle flips the class parity phase, so the basis
    # absorbs (−1)^c and the conjugate step phase
    return complex((-1.0) ** c * np.exp(-1j * beta))


def _cascade(
    x: np.ndarray, m: int, variant: str, axis: int, col_axis=None, floor: float = _PRUNE
) -> list:
    """Branch x over an m-step hcrot-and-measure cascade on one mode axis.

    Step j adjoins an ancilla in |+⟩, applies hcrot at `_step_angle` and
    measures the ancilla in (|↑⟩ ± z|↓⟩)/√2, z adapted to the branch's
    class c; on the mode that is the projector (1 ± z̄·e^{iφn̂})/2, and a
    "−" outcome adds 2^{j−1} to c.  A density passes its column axis as
    col_axis, which takes the conjugate projector.  Returns unnormalized
    [(c, branch)] in tree order ("+" first).  A pure branch is dropped when
    its squared norm is at most floor, a density branch when its trace is
    at most floor times its parent's.
    """

    def along(vec, ax):
        shape = [1] * x.ndim
        shape[ax] = -1
        return vec.reshape(shape)

    def weight(v):
        if col_axis is None:
            return float(np.vdot(v, v).real)
        side = math.isqrt(v.size)
        return float(np.trace(v.reshape(side, side)).real)

    n = np.arange(x.shape[axis])
    branches = [(0, x)]
    for step in range(1, m + 1):
        rot = np.exp(1j * _step_angle(step, variant) * n)
        nxt = []
        for c, v in branches:
            limit = floor if col_axis is None else floor * weight(v)
            zbar = np.conj(_step_basis_phase(step, c, variant))
            for sign, c2 in ((1.0, c), (-1.0, c + 2 ** (step - 1))):
                proj = (1.0 + sign * zbar * rot) / 2.0
                w = along(proj, axis) * v
                if col_axis is not None:
                    w = w * along(proj.conj(), col_axis)
                if weight(w) > limit:
                    nxt.append((c2, w))
        branches = nxt
    return branches


# ---------------------------------------------------------------------------
# preparation


def _code_pair(m: int, primitive: FockVector):
    """Codeword pair (v, e^{iπn̂/M}v) from the all-"+" preparation branch.

    The preparation cascade uses the direct angles π, π/2, …, π/2^{m−1};
    the branch's mode v is normalized and paired with its rotation.
    """
    branches = _cascade(primitive.amps.astype(complex), m, "direct", 0, floor=_ZERO_BRANCH)
    if not branches or branches[0][0] != 0:
        raise ValueError("degenerate primitive: cascade branch has zero norm")
    v = branches[0][1]
    v = v / math.sqrt(float(np.vdot(v, v).real))
    return v, np.exp(1j * math.pi / 2 ** m * np.arange(primitive.dim)) * v


def prepare_code_state(m: int, primitive: FockVector) -> HybridDensity:
    """Spin-codeword state from the measured preparation cascade.

    Runs the hcrot ladder with angles π, π/2, …, π/2^{m−1}, keeping the
    all-"+" measurement branch (every other branch is a relabeled copy on
    a shifted photon-number class), then attaches the data spin through
    the final unmeasured hcrot at π/2^m.  Output: (|↑⟩|0_code⟩ + |↓⟩|1_code⟩)/√2.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    cw0, cw1 = _code_pair(m, primitive)
    return hybrid_from_vector(1, primitive.n_max, np.concatenate([cw0, cw1]) / _SQRT2)


def _damped_pair(spec: CatCodeSpec, n_max: int = 0) -> list:
    """Codeword pair of the damped primitive |√η α⟩, zero-padded up to n_max.

    Padding is sound: beyond the primitive's own cutoff the truncation
    policy already bounds its tail mass below 1e-12.
    """
    prim = coherent_state(spec.damped_alpha)
    prim = prim.padded(max(n_max, prim.n_max))
    return [FockVector(cw, prim.n_max) for cw in _code_pair(spec.m, prim)]


# ---------------------------------------------------------------------------
# transmission


def transmit(s: HybridDensity, eta: float) -> HybridDensity:
    """Amplitude damping on the mode factor; spins are spectators."""
    return s if eta == 1.0 else amplitude_damping(s, eta)


# ---------------------------------------------------------------------------
# syndrome cascade


def syndrome_cascade(s: HybridDensity, m: int, variant: str = "direct") -> list:
    """Extract the loss-count remainder mod 2^m from the mode.

    Runs m hcrot-and-measure steps (angles π, π/2, …, π/2^{m−1}, or their
    π-complements for variant "pi_minus_phi") with measurement bases
    adapted to each branch's accumulated class.  Returns a list of
    (remainder, probability, post_state) sorted by remainder; branches of
    negligible probability are dropped.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"unknown cascade variant {variant!r}; expected one of {_VARIANTS}")
    ns, d = 2 ** s.spins, s.mode_dim
    t = s.matrix.reshape(ns, d, ns, d)
    out = []
    for c, x in _cascade(t, m, variant, 1, col_axis=3, floor=_ZERO_BRANCH):
        prob = float(np.einsum("apap->", x).real)
        post = HybridDensity(s.spins, s.n_max, (x / prob).reshape(s.dim, s.dim), validate=False)
        out.append(((-c) % (2 ** m), prob, post))
    return sorted(out, key=lambda row: row[0])


def syndrome_deviation(m: int, alpha: float, eta: float) -> float:
    """Worst-case tagging error over every injectable loss count.

    Injects exactly q photon losses (âᵠ on both codewords of the damped
    pure pair) for each q < 2^{m+1}, runs the cascade on the pure (spin,
    mode) array and requires it to tag remainder q mod 2^m with certainty.
    """
    pair = _damped_pair(CatCodeSpec(m, alpha, eta))
    worst = 0.0
    for q in range(2 ** (m + 1)):
        psi = np.stack([annihilate(cw, q).amps for cw in pair])
        psi /= np.linalg.norm(psi)
        branches = _cascade(psi, m, "direct", 1, floor=_ZERO_BRANCH)
        outcomes = {(-c) % 2 ** m: float(np.vdot(y, y).real) for c, y in branches}
        worst = max(worst, abs(1.0 - outcomes.get(q % 2 ** m, 0.0)))
    return worst


# ---------------------------------------------------------------------------
# entanglement creation and discrimination


def create_entanglement(s: HybridDensity, m: int, known_q: int):
    """Reflect the mode off the receiving station's fresh spin.

    The new spin is prepended (index 0, ordering receiver-then-sender)
    in |+⟩ and controls an hcrot at π/2^m.  Returns the grown state and
    the generalized Bell frame for the declared loss class: the info dict
    carries θ = qπ/2^m and the four Bell vectors at that angle.
    """
    if not 0 <= known_q < 2 ** m:
        raise ValueError(f"known_q={known_q} outside [0, {2 ** m})")
    grown = add_spin(s, (1.0, 1.0), front=True)
    ent = hcrot(math.pi / 2 ** m, grown, spin_index=0)
    theta = known_q * math.pi / 2 ** m
    return ent, {"theta": theta, "bell": bell_vectors(theta)}


def _usd_bras(pair: list, r: int):
    """Discrimination bras (b0, b1) for the class-r codeword pair âʳ·`pair`.

    Outcome u's Kraus operator is the rank-one |u⟩⟨u|/√(1+|s|), u the unit
    vector perpendicular to the other codeword and s the pair's overlap;
    this makes the cross-identification amplitude exactly zero and the
    per-ray success 1 − |s|.  With b_u = u/√(1+|s|) the outcome amplitude
    of a pure mode x is b_u†x and the outcome block of a density is
    b_u†ρb_u.
    """
    dropped = [annihilate(cw, r) for cw in pair]
    if min(v.norm() for v in dropped) < 1e-125:
        raise ValueError(f"class-{r} codeword has zero norm under the current truncation")
    psi0, psi1 = (v.normalized().amps for v in dropped)
    s_ov = complex(np.vdot(psi0, psi1))
    s_abs = abs(s_ov)
    if s_abs >= 1.0 - 1e-14:
        raise ValueError(
            f"codeword pair indistinguishable (|overlap| = {s_abs:.16f}); "
            "discrimination POVM degenerate"
        )
    scale = 1.0 / math.sqrt((1.0 - s_abs * s_abs) * (1.0 + s_abs))
    return (psi0 - np.conj(s_ov) * psi1) * scale, (psi1 - s_ov * psi0) * scale


@dataclass(frozen=True)
class UnitReport:
    """Everything the oracle measures about one elementary unit.

    weights reconstructs the 2M loss-class distribution operationally:
    index r < M carries the syndrome-r probability times the conditional
    plus-Bell weight, index r+M the minus-Bell remainder.  spin_states
    holds the conditional receiver-sender spin density after a
    successful "codeword 0" identification, one per remainder (None for
    remainders of negligible probability).
    """

    m: int
    alpha: float
    eta: float
    f0_oracle: float
    weights: np.ndarray
    syndrome_probs: np.ndarray
    plus_weight: np.ndarray
    usd_success: np.ndarray
    p_success_weighted: float
    spin_states: tuple
    thetas: np.ndarray


def simulate_unit(spec: CatCodeSpec) -> UnitReport:
    """Full pipeline: prepare → transmit → syndrome → entangle → discriminate.

    All states stay at the cutoff chosen for the undamped primitive so
    cross-module vectors compose exactly.
    """
    prim = coherent_state(spec.alpha)
    pair = _damped_pair(spec, prim.n_max)
    trans = transmit(prepare_code_state(spec.m, prim), spec.eta)
    branches = syndrome_cascade(trans, spec.m)
    big_m = spec.order
    weights = np.zeros(2 * big_m)
    syn = np.zeros(big_m)
    plus = np.zeros(big_m)
    succ = np.zeros(big_m)
    states: list = [None] * big_m
    thetas = np.array([r * math.pi / big_m for r in range(big_m)])
    for r, prob, st in branches:
        ent, info = create_entanglement(st, spec.m, known_q=r)
        t = ent.matrix.reshape(2 ** ent.spins, ent.mode_dim, 2 ** ent.spins, ent.mode_dim)
        block0, block1 = (b.conj() @ (t @ b) for b in _usd_bras(pair, r))
        p0, p1 = float(np.trace(block0).real), float(np.trace(block1).real)
        rho0 = block0 / p0
        bells = info["bell"]
        f_plus = float(np.real(np.vdot(bells["phi_plus"], rho0 @ bells["phi_plus"])))
        f_minus = float(np.real(np.vdot(bells["phi_minus"], rho0 @ bells["phi_minus"])))
        syn[r] = prob
        plus[r] = f_plus
        succ[r] = p0 + p1
        weights[r] = prob * f_plus
        weights[r + big_m] = prob * f_minus
        states[r] = rho0
    return UnitReport(
        m=spec.m,
        alpha=spec.alpha,
        eta=spec.eta,
        f0_oracle=float(weights[:big_m].sum()),
        weights=weights,
        syndrome_probs=syn,
        plus_weight=plus,
        usd_success=succ,
        p_success_weighted=float(np.dot(syn, succ)),
        spin_states=tuple(states),
        thetas=thetas,
    )


# ---------------------------------------------------------------------------
# measurement-ordering equivalence (pure-state engines)


def _record_setup(spec: CatCodeSpec):
    """What both measurement orderings share.

    Returns the flip phases e^{iπn̂/M}, the arm's pure spin-codeword
    amplitudes (|↑⟩v + |↓⟩e^{iπn̂/M}v)/√2 as a (spin, mode) array, and the
    discrimination bras of every remainder.
    """
    prim = coherent_state(spec.alpha)
    cw0, cw1 = _code_pair(spec.m, prim)
    pair = _damped_pair(spec, prim.n_max)
    bras = [_usd_bras(pair, r) for r in range(spec.order)]
    flip = np.exp(1j * math.pi / spec.order * np.arange(prim.dim))
    return flip, np.stack([cw0, cw1]) / _SQRT2, bras


def _arm_maps(spec: CatCodeSpec, flip, bras):
    """Each record's linear map on an arm's mode, and the prune masses.

    Record (r, u) of an arm is its mode contracted with
    W[m, k, s] = Σ_n [n + k = m]·c[k, n]·P[n]·S[n, s]: loss count k with
    c its `_loss_rows` coefficients, the syndrome branch of remainder r
    with P its cascade projector diagonal (`_cascade` of a ones vector),
    and the endpoint spin attached in the mode's place through
    S = (b̄, e^{iπn̂/M}b̄)/√2, b the discrimination bra of USD outcome u.
    Since x·b̄ and (e^{iπn̂/M}x)·b̄ are x contracted with b̄ and e^{iπn̂/M}b̄,
    S is the spin attachment and the contraction at once.

    Returns (count, branch, ops), indexed [m, k] by the source photon
    number m = n + k and the loss count: count = c², branch the stacked
    |c·P|² of every syndrome branch in cascade tree order, and ops the
    list of (r, [W of u = 0, 1]) in the same order.
    """
    d = flip.size
    src = np.arange(d)
    n = (src[:, None] - src[None, :]) % d  # n = m − k; wraps only where c is 0
    coef = np.zeros((d, d))
    for k, row in enumerate(_loss_rows(spec.eta, d)):
        coef[k:, k] = row
    branch, ops = [], []
    for cls, proj in _cascade(np.ones(d, dtype=complex), spec.m, "direct", 0, floor=0.0):
        amp = coef * proj[n]
        r = (-cls) % spec.order
        spins = (np.stack([b.conj(), flip * b.conj()], axis=1) / _SQRT2 for b in bras[r])
        ops.append((r, [amp[:, :, None] * spin[n] for spin in spins]))
        branch.append(np.abs(amp) ** 2)
    return coef**2, np.stack(branch), ops


def _arm(x: np.ndarray, maps) -> dict:
    """Process the arm whose mode is axis 0 of x, down to its records.

    The three prune rules read the photon-number marginal p of x: a loss
    count k is kept when its mass Σ_n c[k, n]²·p[n+k] exceeds `_PRUNE`, a
    syndrome branch when its mass over the kept counts does, and a record
    when its squared norm does.  Each kept record is one contraction of x
    with its map from `_arm_maps`.  Returns {(remainder, usd_outcome):
    array} whose axes are x's remaining axes, then the loss count, then
    the endpoint spin.  Lost-photon counts are orthogonal environment
    states, so a record's density is X X† summed over its environment
    axes (`_density`).
    """
    count, branch, ops = maps
    d = x.shape[0]
    flat = x.reshape(d, -1)
    p = np.einsum("ma,ma->m", flat, flat.conj()).real
    kept = np.flatnonzero(p @ count > _PRUNE)
    if not kept.size:
        return {}
    mass = (p @ branch)[:, kept].sum(axis=1)
    records = {}
    for (r, maps_u), branch_mass in zip(ops, mass):
        if branch_mass <= _PRUNE:
            continue
        for u, w in enumerate(maps_u):
            rec = (flat.T @ w[:, kept].reshape(d, -1)).reshape(x.shape[1:] + (kept.size, 2))
            if float(np.vdot(rec, rec).real) > _PRUNE:
                records[(r, u)] = rec
    return records


def _density(chi: np.ndarray) -> np.ndarray:
    """4×4 endpoint-pair density of a (k1, spin1, k2, spin2) record, traced
    over its loss counts."""
    flat = chi.transpose(0, 2, 1, 3).reshape(-1, 4)
    return flat.T @ flat.conj()


def bell_order_equivalence(m: int, alpha: float, eta: float, return_records: bool = False):
    """Max observable discrepancy between Bell-before and Bell-after orderings.

    Both engines enumerate every branch of a two-arm unit (middle station
    with two spins, endpoints Alice and Bob) and group outcomes by the
    full classical record (Bell result, per-arm remainder, per-arm USD
    outcome).  Returned is the maximum over records of the trace
    distance between conditional endpoint spin states or the probability
    mismatch, whichever is larger.
    """
    spec = CatCodeSpec(m, alpha, eta)
    bells = {lbl: vec.reshape(2, 2) for lbl, vec in bell_vectors(0.0).items()}
    flip, v0, bras = _record_setup(spec)
    maps = _arm_maps(spec, flip, bras)
    # Bell-last: process each arm on its own, then project the ES pair.
    arm = _arm(v0.T, maps)  # (ES spin, k, endpoint)
    # Each pair of arm records meets the Bell bra in two matrix products.
    rec_after = {
        (lbl, *key1, *key2): _density(
            (y1.reshape(2, -1).T @ bvec.conj() @ y2.reshape(2, -1)).reshape(
                y1.shape[1:] + y2.shape[1:]
            )
        )
        for lbl, bvec in bells.items()
        for key1, y1 in arm.items()
        for key2, y2 in arm.items()
    }
    # Bell-first: project the ES pair, then process the left and right modes.
    rec_before = {}
    for lbl, bvec in bells.items():
        modes = v0.T @ bvec.conj() @ v0
        for key1, left in _arm(modes, maps).items():
            for key2, chi in _arm(left, maps).items():
                rec_before[(lbl, *key1, *key2)] = _density(chi)
    worst = 0.0
    records = {}
    for key in set(rec_after) | set(rec_before):
        ra = rec_before.get(key)
        rb = rec_after.get(key)
        pa = float(np.trace(ra).real) if ra is not None else 0.0
        pb = float(np.trace(rb).real) if rb is not None else 0.0
        if max(pa, pb) < 1e-12:
            continue
        dist = 1.0 if min(pa, pb) < 1e-12 else trace_distance(ra / pa, rb / pb)
        worst = max(worst, dist, abs(pa - pb))
        records[key] = (pa, pb, ra, rb)
    return (worst, records) if return_records else worst
