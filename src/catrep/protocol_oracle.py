"""Brute-force Fock-space simulation of one elementary repeater unit.

Everything the analytic layer claims about a segment is recomputed here
the slow way: prepare the spin-codeword state by the actual measurement
cascade, lose photons count by count, run the syndrome cascade branch by
branch, attach the receiving spin, and discriminate the codeword pair
with the ideal unambiguous POVM.  No closed form from `catcode` enters
any state produced here; agreement between the two routes is the
package's core validation.

There is one engine.  An arm's loss count, syndrome branch,
endpoint-spin attachment and discrimination compose to one linear map
per classical record (remainder, USD outcome), built by `_arm_maps` for
the loss counts that can carry mass, from the loss coefficients
`fockspace._loss_rows` and each syndrome branch's class.  Record r's map
only joins a source photon number m to a loss count k ≡ m + r (mod M),
so the maps are stored per source residue; `_arm` applies them to a
batch of an arm's modes, one matrix product per residue the modes
occupy, keeping every lost-photon count on an environment axis.
`_unit` builds the maps and the codeword arm's records of the last point;
`simulate_unit` reads those records, `bell_order_equivalence` joins two
of them for Bell-last and, for Bell-first, makes one left pass over all
four Bell labels, then one right pass per label.
A cascade's measurement branch is the mode's residue class mod 2^m:
`_residue` slices out the preparation's kept branch, each injected loss count
of the pure syndrome check and, one slice per branch and step, the
density `syndrome_cascade` is given, and `_arm_maps` reads each syndrome
branch's projector as the indicator of its class.  Every codeword pair,
the damped one behind the discrimination bras included, is `_code_pair`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .catcode import CatCodeSpec, _freeze, _Record
from .fockspace import (
    FockVector,
    HybridDensity,
    _cutoff,
    _ladder,
    _loss_rows,
    coherent_state,
    hybrid_from_vector,
    trace_distance,
)

__all__ = [
    "UnitReport",
    "bell_vectors",
    "prepare_code_state",
    "syndrome_cascade",
    "simulate_unit",
    "bell_order_equivalence",
    "syndrome_deviation",
]

_SQRT2 = math.sqrt(2.0)
_PRUNE = 1e-20
_ZERO_BRANCH = 1e-14
# Largest block of loss rows, in elements, that `_arm_maps` reads at once.
_ROW_BLOCK = 1 << 14
_BELL_LABELS = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")


def bell_vectors(theta: float = 0.0) -> dict:
    """Generalized Bell vectors on a (receiver, sender) spin pair.

    Basis order [↑↑, ↑↓, ↓↑, ↓↓]; the phase e^{−iθ} multiplies the
    ↓-first components, so θ=0 gives the standard four Bell states.
    """
    return dict(zip(_BELL_LABELS, _bell_frames(theta)))


def _bell_frames(theta) -> np.ndarray:
    """`bell_vectors` at θ as the rows [label, basis] of one array, labels in
    `_BELL_LABELS` order; at an array of θ, one such frame per θ."""
    ph = np.exp(-1j * theta)
    frames = np.zeros(np.shape(ph) + (4, 4), complex)
    frames[..., :2, 0] = frames[..., 2:, 1] = 1.0
    frames[..., 0, 3] = frames[..., 2, 2] = ph
    frames[..., 1, 3] = frames[..., 3, 2] = -ph
    return frames * (1.0 / _SQRT2)


# ---------------------------------------------------------------------------
# residue classes


_VARIANTS = ("direct", "pi_minus_phi")


def _residue(x: np.ndarray, modulus: int, c: int, *axes: int) -> np.ndarray:
    """x with every photon number n ≢ c (mod modulus) set to 0 on the given mode axes.

    A hcrot-and-measure cascade of depth log2(modulus) projects the mode
    onto one such class, in either variant (Grimsmo, Combes & Baragiola,
    PRX 10, 011058, 2020).  The result is a new complex array holding the
    class's strided slice of x, bits kept, in zeros.
    """
    cls = [slice(None)] * x.ndim
    for ax in axes:
        cls[ax] = slice(c % modulus, None, modulus)
    out = np.zeros(x.shape, complex)
    out[tuple(cls)] = x[tuple(cls)]
    return out


def _depth(m) -> int:
    """The cascade depth m, refused as `CatCodeSpec` refuses it."""
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"cascade depth m={m!r} must be an integer >= 1")
    return m


# ---------------------------------------------------------------------------
# preparation


def _flip(m: int, dim: int) -> np.ndarray:
    """The flip phases e^{iπn̂/M}, M = 2^m, on photon numbers 0, …, dim − 1."""
    return np.exp(1j * math.pi / 2**m * np.arange(dim))


def _code_pair(m: int, primitive: FockVector, flip: np.ndarray):
    """Codeword pair (v, e^{iπn̂/M}v), v the primitive's class 0 mod M, normalized.

    That class is the all-"+" branch of the preparation cascade, whose
    angles are π, π/2, …, π/2^{m−1}; a primitive with no mass above 1e-14
    there is refused as degenerate.  flip is `_flip` at the primitive's cutoff.
    """
    v = _residue(primitive.amps, 2**m, 0, 0)
    weight = float(np.vdot(v, v).real)
    if not weight > _ZERO_BRANCH:
        raise ValueError("degenerate primitive: cascade branch has zero norm")
    v = v / math.sqrt(weight)
    return v, flip * v


def prepare_code_state(m: int, primitive: FockVector) -> HybridDensity:
    """Spin-codeword state from the measured preparation cascade.

    Keeps the all-"+" branch of the hcrot ladder with angles π, π/2, …,
    π/2^{m−1}, the primitive's class 0 mod 2^m (every other branch is a
    relabeled copy on a shifted class), then attaches the data spin
    through the final unmeasured hcrot at π/2^m.  Output:
    (|↑⟩|0_code⟩ + |↓⟩|1_code⟩)/√2.  m must be an integer >= 1.
    """
    cw0, cw1 = _code_pair(_depth(m), primitive, _flip(m, primitive.dim))
    return hybrid_from_vector(1, primitive.n_max, np.concatenate([cw0, cw1]) / _SQRT2)


def _damped_pair(spec: CatCodeSpec, flip: np.ndarray) -> np.ndarray:
    """Codeword pair of the damped primitive |√η α⟩ as one array, zero-padded to the
    cutoff of `flip`, `_flip` at the undamped primitive's cutoff.

    Padding is sound: beyond the primitive's own cutoff its tail mass is
    already below 1e-12 (`coherent_state`).
    """
    prim = coherent_state(spec.damped_alpha)
    return np.stack(_code_pair(spec.m, prim.padded(flip.size - 1), flip))


# ---------------------------------------------------------------------------
# syndrome cascade


def syndrome_cascade(s: HybridDensity, m: int, variant: str = "direct") -> list:
    """Extract the loss-count remainder mod 2^m from the mode.

    Runs m hcrot-and-measure steps (angles π, π/2, …, π/2^{m−1}, or their
    π-complements for variant "pi_minus_phi"), each measured in a basis
    adapted to its branch's class: step j splits class c mod 2^{j−1} into c
    and c + 2^{j−1} mod 2^j on both sides of the density, in either variant,
    dropping a branch whose trace is at most 1e-14 of its parent's.
    Returns (remainder −c mod 2^m, probability, post_state) per class c,
    sorted by remainder.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"unknown cascade variant {variant!r}; expected one of {_VARIANTS}")
    ns, d = 2 ** s.spins, s.mode_dim

    def weight(x):
        return float(np.trace(x.reshape(s.dim, s.dim)).real)

    branches = [(0, s.matrix.reshape(ns, d, ns, d))]
    for step in range(1, _depth(m) + 1):
        nxt = []
        for c, x in branches:
            floor = _ZERO_BRANCH * weight(x)
            for c2 in (c, c + 2 ** (step - 1)):
                y = _residue(x, 2**step, c2, 1, 3)
                if weight(y) > floor:
                    nxt.append((c2, y))
        branches = nxt
    out = []
    for c, x in branches:
        prob = float(np.einsum("apap->", x).real)
        matrix = _freeze((x / prob).reshape(s.dim, s.dim))
        post = HybridDensity._from_checked(spins=s.spins, n_max=s.n_max, matrix=matrix)
        out.append(((-c) % (2 ** m), prob, post))
    return sorted(out, key=lambda row: row[0])


def syndrome_deviation(m: int, alpha: float, eta: float) -> float:
    """Worst-case tagging error over every injectable loss count.

    Injects exactly q photon losses (âᵠ on both codewords of the damped
    pure pair at the undamped cutoff, the pair a unit's discrimination
    reads, rung q of one ladder) for each q < 2^{m+1} and requires the
    normalized (spin, mode) array to lie on class −q mod 2^m, the syndrome
    cascade's tag for remainder q: a mass there of at most 1e-14, which the
    cascade drops, counts as 0.  Raises ``ArithmeticError`` where an
    injected pair has a zero or non-finite norm: more losses than the
    cutoff holds photons, or rung norms past float range.
    """
    spec, worst = CatCodeSpec(m, alpha, eta), 0.0
    rungs = _ladder(_damped_pair(spec, _flip(spec.m, _cutoff(spec.alpha) + 1)), spec.n_classes)
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        for q, psi in enumerate(rungs):
            norm = np.linalg.norm(psi)
            if not 0.0 < norm < math.inf:
                raise ArithmeticError(
                    f"syndrome check at m={m}, alpha={spec.alpha}, eta={spec.eta}: {q} injected "
                    f"losses leave the pair (n_max={psi.shape[-1] - 1}) with norm {norm}"
                )
            y = _residue(psi / norm, 2**m, -q, 1)
            weight = float(np.vdot(y, y).real)
            worst = max(worst, abs(1.0 - (weight if weight > _ZERO_BRANCH else 0.0)))
    return worst


# ---------------------------------------------------------------------------
# discrimination


def _usd_bras(dropped: np.ndarray, r: int):
    """Discrimination bras (b0, b1) for the class-r pair `dropped`, âʳ on the damped pair.

    Outcome u's Kraus operator is the rank-one |u⟩⟨u|/√(1+|s|), u the unit
    vector perpendicular to the other codeword and s the pair's overlap;
    this makes the cross-identification amplitude exactly zero and the
    per-ray success 1 − |s|.  With b_u = u/√(1+|s|) the outcome amplitude
    of a pure mode x is b_u†x and the outcome block of a density is
    b_u†ρb_u.
    """
    norms = [float(np.linalg.norm(v)) for v in dropped]
    if min(norms) < 1e-125:
        raise ArithmeticError(f"class-{r} codeword has zero norm under the current truncation")
    psi0, psi1 = (v / norm for v, norm in zip(dropped, norms))
    s_ov = complex(np.vdot(psi0, psi1))
    s_abs = abs(s_ov)
    if s_abs >= 1.0 - 1e-14:
        raise ArithmeticError(
            f"class-{r} codeword pair indistinguishable (|overlap| = {s_abs:.16f}); "
            "discrimination POVM degenerate"
        )
    scale = 1.0 / math.sqrt((1.0 - s_abs * s_abs) * (1.0 + s_abs))
    return (psi0 - np.conj(s_ov) * psi1) * scale, (psi1 - s_ov * psi0) * scale


# ---------------------------------------------------------------------------
# the record engine


def _record_setup(spec: CatCodeSpec):
    """What every arm of a unit shares.

    Returns the flip phases e^{iπn̂/M}, the arm's pure spin-codeword
    amplitudes (|↑⟩v + |↓⟩e^{iπn̂/M}v)/√2 as a (spin, mode) array, and the
    discrimination bras of every remainder, from one ladder of the damped pair.
    """
    prim = coherent_state(spec.alpha)
    flip = _flip(spec.m, prim.dim)
    cw0, cw1 = _code_pair(spec.m, prim, flip)
    ladder = _ladder(_damped_pair(spec, flip), spec.order)
    try:
        bras = [_usd_bras(dropped, r) for r, dropped in enumerate(ladder)]
    except ArithmeticError as exc:  # a refused bra names the point
        raise ArithmeticError(f"m={spec.m}, alpha={spec.alpha}, eta={spec.eta}: {exc}") from None
    return flip, np.stack([cw0, cw1]) / _SQRT2, bras


@functools.lru_cache(maxsize=1)
def _unit(spec: CatCodeSpec) -> tuple:
    """What `simulate_unit` and `bell_order_equivalence` share at one point.

    Returns (v0, maps, codeword), read-only: the arm's spin-codeword
    amplitudes of `_record_setup`, the record maps `_arm_maps` builds from
    them, and the codeword arm's records, `_arm` of v0 (mode, spin) as a
    batch of one.  Only the last point is kept; `validate` runs both
    functions at each point.
    """
    flip, v0, bras = _record_setup(spec)
    v0 = _freeze(v0)
    maps = tuple(map(_freeze, _arm_maps(spec, v0, flip, bras)))
    return v0, maps, tuple(map(_freeze, _arm(v0.T[None], maps)))


def _arm_maps(spec: CatCodeSpec, v0, flip, bras):
    """Every record's linear map on an arm's mode, over the counts that carry mass.

    Record (r, u) of an arm is its mode contracted with
    W[m, k, s] = Σ_n [n + k = m]·c[k, n]·P[n]·S[n, s]: loss count k with
    c its `_loss_rows` coefficients, the syndrome branch of remainder r
    with P its projector, the indicator of n ≡ −r (mod M), and the
    endpoint spin attached in the mode's place through
    S = (b̄, e^{iπn̂/M}b̄)/√2, b the discrimination bra of USD outcome u.
    Since x·b̄ and (e^{iπn̂/M}x)·b̄ are x contracted with b̄ and e^{iπn̂/M}b̄,
    S is the spin attachment and the contraction at once.

    W is built only for the window of counts k whose mass
    Σ_n c[k, n]²·p[n+k] under the codeword's photon-number marginal
    p = Σ_spin |v0|² exceeds _PRUNE/2, found from blocks of about
    `_ROW_BLOCK` loss-row elements.  A projection or an arm's instrument
    only removes mass, so every mode `_arm` is given (the codeword, a
    Bell-projected pair, the other mode of a record) has a marginal at
    most p: each count `_arm` keeps (mass over `_PRUNE`) is in the window,
    the halved threshold covering rounding.

    W is zero unless k ≡ m + r (mod M): from source residue ρ (m ≡ ρ)
    record r reaches only the counts k ≡ ρ + r, so each count belongs to
    one record.  Returns (branch, blocks, pos).  branch[m, r, j] is
    (c·P)² of remainder r's branch at the source photon number m = n + k
    and the j-th window count k, K (the window's size) indexing a count
    with no mass.  blocks[ρ, i, t, r, u, s] is W[ρ + iM, k, s] of record
    (r, u) at k = (t0 + t)M + (ρ + r mod M), t0 the window's first count
    over M, or 0 where m or k is outside the cutoff or window; pos[ρ, t,
    r] is that count's index j, or K.  Each entry is the one product c·S
    a per-record loop forms, so a single broadcast gives the same bits.
    """
    d, big_m = flip.size, spec.order
    p = np.concatenate([np.einsum("sm,sm->m", v0, v0.conj()).real, np.zeros(d)])
    counts, step, window = np.arange(d), max(1, _ROW_BLOCK // d), []
    for ks in (counts[k0 : k0 + step] for k0 in range(0, d, step)):  # blocks of loss rows
        rows = _loss_rows(spec.eta, d, ks)
        keep = (rows * rows * p[ks[:, None] + np.arange(d)]).sum(axis=1) > _PRUNE / 2
        window.append((ks[keep], rows[keep]))
    ks = np.concatenate([part[0] for part in window])
    rows = np.concatenate([part[1] for part in window] + [np.zeros((1, d))])  # row K: no mass
    n = (np.arange(d)[:, None] - ks) % d  # n = m − k; wraps only onto a row's zeros
    coef, r = rows[np.arange(ks.size), n], np.arange(big_m)
    branch = np.zeros((d, big_m, ks.size + 1))
    np.square(coef[:, None] * (n[:, None] % big_m == -r[:, None] % big_m), out=branch[..., :-1])
    # block cell [ρ, i, t, r]: source m = ρ + iM and count k = (t0 + t)M + (ρ + r mod M)
    rho, t0 = r[:, None, None, None], ks[0] // big_m
    k = big_m * np.arange(t0, ks[-1] // big_m + 1)[:, None] + (rho + r) % big_m
    src = rho + big_m * np.arange(-(-d // big_m))[:, None, None]
    j = np.full(k.max() + 1, ks.size)
    j[ks] = np.arange(ks.size)
    j, n = j[k], (src - k) % d
    amp = np.where(src < d, rows[j, n], 0.0)
    bra = np.conj(bras).transpose(0, 2, 1)  # [r, n, u]
    spin = np.stack([bra, flip[:, None] * bra], axis=-1) / _SQRT2
    return branch, amp[..., None, None] * spin[r, n], j[:, 0]


def _arm(xs: np.ndarray, maps) -> tuple:
    """Process a batch of arms, each input's mode on axis 1 of xs, down to its records.

    Two prune rules read each input's photon-number marginal p: a count k
    of the maps' window is kept when its mass Σ_n c[k, n]²·p[n+k] exceeds
    `_PRUNE`, and a syndrome branch lives when its mass over the kept
    counts does.  The window holds every count this rule can keep
    (`_arm_maps`), so the records are those of maps over every count.  A
    live branch keeps the records of both USD outcomes, however small;
    every other entry is set to 0.  Each source residue on which an
    input has a nonzero row is one matrix product of every input with
    that residue's maps over the rows t of counts some input keeps, so a
    product's shape follows the kept counts, not the window.

    Returns (records, live, mass): mass[b, r] is input b's branch mass of
    remainder r, its syndrome probability, and live the mass over
    `_PRUNE`.  records[i, b, ..., t, r, u, s] is input b's record (r, u)
    at the count of row t and the i-th residue multiplied, after xs's
    remaining axes.  Lost-photon counts are orthogonal environment
    states, so a record's density is X X† summed over its environment
    axes, residue and row among them (`_density`).
    """
    branch, blocks, pos = maps
    big_m = branch.shape[1]
    flat = xs.reshape(xs.shape[0], xs.shape[1], -1)
    p = np.einsum("bma,bma->bm", flat, flat.conj()).real
    masses = (p @ branch.reshape(len(branch), -1)).reshape(len(p), big_m, -1)  # [b, r, j]
    kept = masses.sum(axis=1) > _PRUNE
    mass = np.where(kept[:, None], masses, 0.0).sum(axis=-1)
    live = mass > _PRUNE
    keep = kept[:, pos] & live[:, None, None]  # [b, ρ, t, r]
    rows = np.flatnonzero(keep.any(axis=(0, 1, 3)))
    lo, hi = (rows[0], rows[-1] + 1) if rows.size else (0, 0)
    residues = [rho for rho in range(big_m) if flat[:, rho::big_m].any()]
    out = np.empty((len(residues),) + flat.shape[::2] + (hi - lo,) + blocks.shape[3:], complex)
    for i, rho in enumerate(residues):
        x = flat[:, rho::big_m].swapaxes(1, 2)
        w = blocks[rho, : x.shape[2], lo:hi]
        np.matmul(x, w.reshape(len(w), -1), out=out[i].reshape(x.shape[:2] + (-1,)))
    out.transpose(1, 0, 3, 4, 2, 5, 6)[~keep[:, residues, lo:hi]] = 0.0  # the cells pruning drops
    return out.reshape(out.shape[:2] + xs.shape[2:] + out.shape[3:]), live, mass


def _density(records, axes: tuple) -> np.ndarray:
    """4×4 spin-pair densities of a batch of records, each traced over its
    environment: `axes` puts the records' axes in the order input,
    remainder, USD outcome, environment axes, then the two spins."""
    flat = records.transpose(axes)
    flat = flat.reshape(flat.shape[:3] + (-1, 4))
    return flat.swapaxes(-1, -2) @ flat.conj()


# ---------------------------------------------------------------------------
# one elementary unit


class UnitReport(_Record):
    """Everything the oracle measures about one elementary unit.

    weights reconstructs the 2M loss-class distribution operationally:
    index r < M carries the syndrome-r probability times the conditional
    plus-Bell weight, index r+M the minus-Bell remainder.  spin_states
    holds the conditional receiver-sender spin density after a
    successful "codeword 0" identification, one per remainder; it is None
    for a remainder whose syndrome probability is at most 1e-20 (`_PRUNE`),
    which keeps no record, and that remainder's weights, plus weight and
    success are 0.
    """

    _fields = (
        "m", "alpha", "eta", "f0_oracle", "weights", "syndrome_probs", "plus_weight",
        "usd_success", "p_success_weighted", "spin_states", "thetas",
    )

    def __init__(
        self, m: int, alpha: float, eta: float, f0_oracle: float, weights: np.ndarray,
        syndrome_probs: np.ndarray, plus_weight: np.ndarray, usd_success: np.ndarray,
        p_success_weighted: float, spin_states: tuple, thetas: np.ndarray,
    ):
        self._set(
            m=m, alpha=alpha, eta=eta, f0_oracle=f0_oracle, weights=weights,
            syndrome_probs=syndrome_probs, plus_weight=plus_weight, usd_success=usd_success,
            p_success_weighted=p_success_weighted, spin_states=spin_states, thetas=thetas,
        )


def simulate_unit(spec: CatCodeSpec) -> UnitReport:
    """One arm of the unit, read off its records.

    The sender's spin-codeword arm goes through `_arm`: loss, the syndrome
    cascade, the receiver spin attached through its hcrot at π/M, and
    discrimination.  The syndrome probability of remainder r is its
    branch mass.  Record (r, u), put in (loss count, receiver, sender)
    order and traced over the count, is the unnormalized spin block of
    USD outcome u in branch r; the u = 0 block is read in the Bell frame
    at θ = rπ/M.  All states stay at the cutoff of the undamped primitive.
    The records, axes (ρ, 1, sender, t, r, u, receiver), are the point's `_unit`.
    """
    records, (live,), (syn,) = _unit(spec)[2]
    blocks = _density(records, (1, 4, 5, 0, 3, 6, 2))[0]
    big_m = spec.order
    weights = np.zeros(2 * big_m)
    plus = np.zeros(big_m)
    succ = np.zeros(big_m)
    states: list = [None] * big_m
    thetas = np.array([r * math.pi / big_m for r in range(big_m)])
    # each block's trace, taken over the stack: the bits of the 4×4 trace one at a time
    frames, probs = _bell_frames(thetas), np.trace(blocks, axis1=-2, axis2=-1).real
    for r in np.flatnonzero(live).tolist():
        p0, p1 = probs[r].tolist()
        rho0 = blocks[r, 0] / p0
        phi_plus, phi_minus = frames[r, :2]
        f_plus = float(np.vdot(phi_plus, rho0 @ phi_plus).real)
        f_minus = float(np.vdot(phi_minus, rho0 @ phi_minus).real)
        plus[r] = f_plus
        succ[r] = (p0 + p1) / syn[r]
        weights[r] = syn[r] * f_plus
        weights[r + big_m] = syn[r] * f_minus
        states[r] = rho0
    return UnitReport(
        spec.m, spec.alpha, spec.eta, float(weights[:big_m].sum()), weights, syn, plus, succ,
        float(np.dot(syn, succ)), tuple(states), thetas,
    )


# ---------------------------------------------------------------------------
# measurement-ordering equivalence


def bell_order_equivalence(m: int, alpha: float, eta: float, return_records: bool = False):
    """Max observable discrepancy between Bell-before and Bell-after orderings.

    Both engines enumerate every branch of a two-arm unit (middle station
    with two spins, endpoints Alice and Bob) and group outcomes by the
    full classical record (Bell result, per-arm remainder, per-arm USD
    outcome).  Bell-last projects pairs of one arm's records, each
    reduced to its Gram block, so no tensor over both arms' loss counts
    is formed.  The two orderings' record densities are compared as
    arrays indexed (Bell label, r1, u1, r2, u2).  Returned is the maximum
    over records of the trace distance between conditional endpoint spin
    states or the probability mismatch, whichever is larger; with
    return_records also {(label, r1, u1, r2, u2): (p_before, p_after,
    rho_before, rho_after)} over the records either ordering gives
    probability 1e-12 or more, a density None where its ordering made no
    such record.  The codeword's records are the point's `_unit`, as in
    `simulate_unit`.
    """
    spec = CatCodeSpec(m, alpha, eta)
    v0, maps, (arm, (live,), _mass) = _unit(spec)
    bra = _bell_frames(0.0).reshape(-1, 2, 2).conj()
    # rho[l, r1, u1, r2, u2, o] is record's density in ordering o (0: Bell
    # first, 1: Bell last), zero where made says that ordering has none.
    shape = (len(bra), spec.order, 2, spec.order, 2, 2)
    rho = np.zeros(shape + (4, 4), dtype=complex)
    made = np.zeros(shape, dtype=bool)
    # Bell-last: two matrix products join the codeword arm's records.  With
    # G[(s, a), (p, c)] a record's Gram block over its loss count, records
    # (i, j) under label l have density, summed over (p, s), then (q, t),
    # Σ B[l, s, t]·B̄[l, p, q]·G_i[(s, a), (p, c)]·G_j[(t, b), (q, d)].
    gram = _density(arm, (1, 4, 5, 0, 3, 2, 6)).reshape(-1, 2, 2, 2, 2)  # ES spin, endpoint
    gram = gram.transpose(3, 1, 0, 2, 4).reshape(4, -1)  # [(p, s), (i, a, c)]
    proj = bra.conj()[:, :, :, None, None] * bra[:, None, None]  # [l, p, q, s, t]
    half = proj.transpose(2, 4, 0, 1, 3).reshape(-1, 4) @ gram  # [(q, t, l), (i, a, c)]
    half = half.reshape(4, len(bra), -1, 2, 2).transpose(3, 4, 1, 2, 0).reshape(-1, 4)
    after = (half @ gram).reshape((2, 2) + shape[:5] + (2, 2))  # [a, c, l, i, j, b, d]
    rho[..., 1, :, :] = after.transpose(2, 3, 4, 5, 6, 0, 7, 1, 8).reshape(shape[:5] + (4, 4))
    made[..., 1] = live[:, None, None, None] & live[:, None]
    # Bell-first: project the ES pair, process the left modes of all four
    # labels in one pass, then per label the right modes of its live left
    # records, (r1, u1, right mode, residue1, t1, spin1), in one pass.
    lefts, live1, _mass = _arm(v0.T @ bra @ v0, maps)  # (ρ1, label, mode2, t1, r1, u1, spin1)
    lefts = [x[alive] for x, alive in zip(lefts.transpose(1, 4, 5, 2, 0, 3, 6), live1)]
    for li, inputs in enumerate(lefts):
        # rights: (residue2, (r1, u1), residue1, t1, spin1, t2, r2, u2, spin2)
        rights, live2, _mass = _arm(inputs.reshape((-1,) + inputs.shape[2:]), maps)
        dens = _density(rights, (1, 6, 7, 0, 2, 3, 5, 4, 8))
        rho[li, live1[li], ..., 0, :, :] = dens.reshape((-1,) + rho.shape[2:5] + (4, 4))
        made[li, live1[li], ..., 0] = live2.reshape((-1,) + shape[2:4] + (1,))
    prob = np.trace(rho, axis1=-2, axis2=-1).real
    seen, both = prob.max(axis=-1) >= 1e-12, prob.min(axis=-1) >= 1e-12
    # a record only one ordering produces is as far apart as two states get
    worst = float(np.where(both, np.abs(prob[..., 0] - prob[..., 1]), 1.0)[seen].max(initial=0.0))
    if both.any():
        pair = rho[both] / prob[both][:, :, None, None]
        # ½‖Δ‖_F ≤ ½‖λ‖₁ ≤ ‖Δ‖_F: only a record whose ‖Δ‖_F reaches half the
        # largest (less a rounding margin; NaN stays in) can hold the maximum.
        # Each eigen-solve is per matrix, so the maximum keeps its bits.
        fro = np.linalg.norm(pair[:, 0] - pair[:, 1], axis=(1, 2))
        near = ~(fro < 0.5 * (1.0 - 1e-6) * fro.max())
        worst = max(worst, float(trace_distance(pair[near, 0], pair[near, 1]).max()))
    if not return_records:
        return worst
    records = {
        (_BELL_LABELS[key[0]], *key[1:]): (
            *prob[key].tolist(),
            *(rho[key][o] if made[key][o] else None for o in (0, 1)),
        )
        for key in map(tuple, np.argwhere(seen).tolist())
    }
    return worst, records
