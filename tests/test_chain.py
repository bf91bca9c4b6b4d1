"""Swap algebra against a dense Bell-measurement oracle; chain totals."""

import math
import re
import time

import numpy as np
import pytest

from catrep import catcode, chain as chain_mod
from catrep.catcode import CatCodeSpec, LossWeights, loss_weights, segment_fidelity
from catrep.chain import (
    ATTENUATION_LENGTH_KM,
    ChainParams,
    PauliFrameState,
    SegmentParams,
    binary_entropy,
    chain_distribution,
    chain_fidelity,
    chain_success,
    check_chain_geometry,
    evaluate_chain,
    plob_bound,
    secret_key_rate,
    swap_components,
    swap_pair,
)

BELL = {
    "phi+": np.array([1, 0, 0, 1]) / math.sqrt(2),
    "phi-": np.array([1, 0, 0, -1]) / math.sqrt(2),
    "psi+": np.array([0, 1, 1, 0]) / math.sqrt(2),
    "psi-": np.array([0, 1, -1, 0]) / math.sqrt(2),
}


def bell_diagonal(kind, plus_weight):
    vp = BELL[kind + "+"]
    vm = BELL[kind + "-"]
    return plus_weight * np.outer(vp, vp) + (1 - plus_weight) * np.outer(vm, vm)


def dense_swap(rho_a, rho_b, outcome):
    """Measure the middle qubit pair in the Bell basis, return the raw
    conditional state of the outer pair and the outcome probability."""
    joint = np.kron(rho_a, rho_b)
    b = BELL[outcome]
    proj = np.kron(np.eye(2), np.kron(np.outer(b, b.conj()), np.eye(2)))
    post = proj @ joint @ proj
    r = post.reshape((2,) * 8)
    outer = np.einsum("abcdebch->adeh", r).reshape(4, 4)
    prob = outer.trace().real
    return outer / prob, prob


def recursive_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in recursive_compositions(total - head, parts - 1):
            yield (head,) + rest


def tuple_distribution(weights, n_e):
    """Reference rows: recursive enumeration and the row formulas, per tuple.

    ``chain_distribution`` builds the same rows as arrays and must return
    exactly this list, order included."""
    big_m = 2**weights.m
    p = weights.p
    group = np.array([p[i] + p[i + big_m] for i in range(big_m)])
    diff = np.array([p[i] - p[i + big_m] for i in range(big_m)])
    ratio = np.divide(diff, group, out=np.zeros_like(diff), where=group > 0)
    combos = list(recursive_compositions(n_e, big_m))
    t = np.array(combos)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n_e + 1)])
    log_group = np.log(group, out=np.zeros_like(group), where=group > 0)
    log_prob = log_fact[n_e] - log_fact[t].sum(axis=1) + t @ log_group
    prob = np.exp(np.where((t[:, group == 0] > 0).any(axis=1), -np.inf, log_prob))
    fid = 0.5 + 0.5 * np.prod(ratio**t, axis=1)
    return list(zip(combos, prob.tolist(), fid.tolist()))


def test_swap_fixed_points():
    pure = PauliFrameState("phi", 1.0)
    assert swap_pair(pure, pure).plus_weight == pytest.approx(1.0)
    flat = PauliFrameState("phi", 0.5)
    assert swap_pair(flat, flat).plus_weight == pytest.approx(0.5)


def test_swap_offdiagonal_coefficient():
    a_plus, b_plus = 0.8, 0.55
    comp = swap_components(a_plus, b_plus)
    diff = (2 * a_plus - 1) * (2 * b_plus - 1)
    assert comp["plus"] - comp["minus"] == pytest.approx(diff)
    assert comp["plus"] + comp["minus"] == pytest.approx(1.0)
    # Computational-basis off-diagonal of the swapped state.
    assert 0.5 * (comp["plus"] - comp["minus"]) == pytest.approx(0.5 * diff)
    # a weight outside [0, 1], NaN or infinite, is refused by name
    for args in ((0.0, math.inf), (0.5, math.nan), (1.5, 0.5), (-0.25, 0.5)):
        with pytest.raises(ValueError, match=r"need a_plus and b_plus in \[0, 1\], got "):
            swap_components(*args)


def test_swap_kind_parity_and_phase():
    a = PauliFrameState("phi", 0.9, phase=0.3)
    b = PauliFrameState("psi", 0.8, phase=0.5)
    assert swap_pair(a, b, "phi+").kind == "psi"
    assert swap_pair(a, b, "psi-").kind == "phi"
    assert swap_pair(a, a, "psi+").kind == "psi"
    assert swap_pair(b, b, "psi+").kind == "psi"
    assert swap_pair(a, b, "phi+").phase == pytest.approx(0.8)
    two_pi_wrap = swap_pair(
        PauliFrameState("phi", 1.0, phase=4.0), PauliFrameState("phi", 1.0, phase=3.0)
    )
    assert two_pi_wrap.phase == pytest.approx(7.0 - 2 * math.pi)
    with pytest.raises(ValueError):
        swap_pair(a, b, "bell")


@pytest.mark.parametrize("kind_a,kind_b", [("phi", "phi"), ("psi", "psi"), ("phi", "psi")])
@pytest.mark.parametrize("outcome", ["phi+", "phi-", "psi+", "psi-"])
def test_swap_matches_dense_oracle(kind_a, kind_b, outcome):
    a_plus, b_plus = 0.85, 0.6
    rho_a = bell_diagonal(kind_a, a_plus)
    rho_b = bell_diagonal(kind_b, b_plus)
    out, prob = dense_swap(rho_a, rho_b, outcome)
    assert prob == pytest.approx(0.25, abs=1e-12)
    tracked = swap_pair(
        PauliFrameState(kind_a, a_plus), PauliFrameState(kind_b, b_plus), outcome
    )
    vp = BELL[tracked.kind + "+"]
    vm = BELL[tracked.kind + "-"]
    w_plus = float(vp @ out @ vp)
    w_minus = float(vm @ out @ vm)
    # All weight sits in the predicted doublet; the raw +/- split matches
    # the component algebra up to the outcome's Pauli frame.
    assert w_plus + w_minus == pytest.approx(1.0, abs=1e-12)
    comp = swap_components(a_plus, b_plus)
    assert sorted([w_plus, w_minus]) == pytest.approx(
        sorted([comp["plus"], comp["minus"]]), abs=1e-12
    )
    if outcome == "phi+":
        assert w_plus == pytest.approx(tracked.plus_weight, abs=1e-12)


def test_chain_fidelity_basics():
    assert chain_fidelity(0.87, 1) == pytest.approx(0.87)
    assert chain_fidelity(1.0, 57) == pytest.approx(1.0)
    for n_e in (2, 4, 10):
        assert chain_fidelity(0.3, n_e) >= 0.5
    with pytest.raises(ValueError):
        chain_fidelity(1.2, 2)
    with pytest.raises(ValueError):
        chain_fidelity(0.9, 0)


def test_swap_composition_reproduces_chain_fidelity():
    f0, n_e = 0.93, 6
    state = PauliFrameState("phi", f0)
    for _ in range(n_e - 1):
        state = swap_pair(state, PauliFrameState("phi", f0))
    assert state.plus_weight == pytest.approx(chain_fidelity(f0, n_e), abs=1e-12)


def test_chain_success_log_identity():
    assert chain_success(1.0, 9) == 1.0
    assert chain_success(0.0, 9) == 0.0
    assert chain_success(0.37, 1) == pytest.approx(0.37)
    p0, n_e = 0.3, 50
    assert math.log(chain_success(p0, n_e)) == pytest.approx(
        n_e * math.log(p0), abs=1e-12
    )
    assert chain_success(0.999, 10**6) == pytest.approx(
        math.exp(10**6 * math.log(0.999))
    )


def test_distribution_single_link_reduces_to_weights():
    spec = CatCodeSpec(m=1, alpha=1.2, eta=0.9)
    w = loss_weights(spec)
    rows = chain_distribution(w, 1)
    assert len(rows) == 2
    by_combo = {t: (p, f) for t, p, f in rows}
    for i in range(2):
        t = tuple(1 if j == i else 0 for j in range(2))
        group = w.p[i] + w.p[i + 2]
        assert by_combo[t][0] == pytest.approx(group, abs=1e-12)
        assert by_combo[t][1] == pytest.approx(w.p[i] / group, abs=1e-12)


def test_distribution_two_links_multinomial():
    spec = CatCodeSpec(m=1, alpha=1.0, eta=0.85)
    w = loss_weights(spec)
    g0 = w.p[0] + w.p[2]
    g1 = w.p[1] + w.p[3]
    rows = {t: p for t, p, _ in chain_distribution(w, 2)}
    assert rows[(2, 0)] == pytest.approx(g0 * g0, abs=1e-12)
    assert rows[(1, 1)] == pytest.approx(2 * g0 * g1, abs=1e-12)
    assert rows[(0, 2)] == pytest.approx(g1 * g1, abs=1e-12)


@pytest.mark.parametrize("m,alpha,eta", [(1, 1.2, 0.9), (2, 2.0, 0.95)])
@pytest.mark.parametrize("n_e", [1, 2, 4, 8])
def test_distribution_average_matches_closed_form(m, alpha, eta, n_e):
    spec = CatCodeSpec(m=m, alpha=alpha, eta=eta)
    w = loss_weights(spec)
    rows = chain_distribution(w, n_e)
    total = sum(p for _, p, _ in rows)
    avg = sum(p * f for _, p, f in rows)
    assert total == pytest.approx(1.0, abs=1e-10)
    assert avg == pytest.approx(
        chain_fidelity(segment_fidelity(spec), n_e), abs=1e-10
    )


def test_distribution_long_chain_stays_finite():
    # n_e = 10,000 links of 0.1 km: the multinomial coefficients alone
    # overflow a float, so rows are built in log domain.
    spec = CatCodeSpec(m=1, alpha=2.0, eta=math.exp(-0.1 / 22.0))
    w = loss_weights(spec)
    rows = chain_distribution(w, 10_000)
    assert len(rows) == 10_001
    assert math.fsum(p for _, p, _ in rows) == pytest.approx(1.0, abs=1e-9)
    avg = math.fsum(p * f for _, p, f in rows)
    assert avg == pytest.approx(
        chain_fidelity(w.correctable_mass(), 10_000), abs=1e-9
    )


def test_distribution_rows_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    w = loss_weights(CatCodeSpec(m=1, alpha=2.0, eta=0.9))
    n_e = 1000
    with mpmath.workdps(50):
        g0 = mpmath.mpf(w.p[0]) + mpmath.mpf(w.p[2])
        g1 = mpmath.mpf(w.p[1]) + mpmath.mpf(w.p[3])
        worst = 0.0
        for (t0, t1), p, _ in chain_distribution(w, n_e):
            want = mpmath.binomial(n_e, t0) * g0**t0 * g1**t1
            if want > mpmath.mpf("1e-300"):
                worst = max(worst, float(abs(p - want) / want))
    assert worst < 1e-10


def test_distribution_log_factorials_match_lgamma_list():
    # _geometry_table takes log k! from catcode's table, and past its cap
    # from lgamma itself; both are bit-identical to the list of math.lgamma
    # calls they replaced, so the rows are unchanged.
    for n_e in (10_000, 16_384, 100_000):
        want = np.array([math.lgamma(k + 1.0) for k in range(n_e + 1)])
        log_fact = catcode._log_factorials(n_e)
        assert np.array_equal([log_fact[k] for k in range(n_e + 1)], want), n_e
        t, _, log_multinomial = chain_mod._geometry_table(n_e, 2)
        k = t[:, 0].astype(int)
        assert np.array_equal(log_multinomial, want[n_e] - (want[k] + want[n_e - k])), n_e


def test_distribution_empty_group_rows_are_zero():
    w = loss_weights(CatCodeSpec(m=1, alpha=1.0, eta=1.0))
    rows = {t: p for t, p, _ in chain_distribution(w, 5)}
    assert rows[(5, 0)] == 1.0
    assert all(p == 0.0 for t, p in rows.items() if t != (5, 0))


# Geometries in turn, every one twice, so repeats read a kept table
# between calls at other geometries.
_INTERLEAVED = [
    pytest.param([3, 1, 2, 1, 3, 2], [10, 10_000, 10, 10, 1, 1], id="interleaved"),
    pytest.param([1, 3, 1, 3], [5, 5, 6, 6], id="interleaved-close"),
]


# Every geometry at each (alpha, eta); (7, 2), whose tuple reference alone
# takes about 0.9 s, at the first only.
_WEIGHTS = [(2.0, 0.9), (0.75, 0.99), (1.0, 1.0)]
_GEOMETRIES = [(m, n_e) for m in (1, 2, 3) for n_e in (1, 2, 5, 10)] + [(1, 10_000), (4, 5)]


@pytest.mark.parametrize(
    "alpha,eta,m,n_e",
    [(*w, *g) for w in _WEIGHTS for g in _GEOMETRIES]
    + [pytest.param(*w, *p.values, id=f"{w[0]}-{w[1]}-{p.id}") for w in _WEIGHTS for p in _INTERLEAVED]
    + [(*_WEIGHTS[0], 7, 2)],
)
def test_distribution_matches_tuple_reference(alpha, eta, m, n_e):
    # eta = 1 leaves every loss class but q = 0 empty, so rows that need
    # an empty group are exact zeros.  The exact_average rate is the sum
    # over the reference rows, bit for bit, clamped to 1 as secret_key_rate
    # clamps it (at (4, 5), alpha = 2, eta = 0.9 the sum is 1 + 2^-52).
    geometries = list(zip(m, n_e)) * 2 if isinstance(m, list) else [(m, n_e)]
    for m, n_e in geometries:
        w = loss_weights(CatCodeSpec(m=m, alpha=alpha, eta=eta))
        want = tuple_distribution(w, n_e)
        assert chain_distribution(w, n_e) == want
        _, prob, fid = map(np.array, zip(*want))
        _, rate = secret_key_rate(0.9, 1.0, mode="exact_average", weights=w, n_e=n_e)
        assert rate == min(float(prob @ chain_mod._key_fractions(fid)), 1.0)


def test_key_fractions_match_one_expression():
    # The in-place key fractions against the expression they replaced, by
    # ==, at the edges of each mask as well as inside
    def one_expression(fidelity):
        e = 1.0 - fidelity
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.maximum(0.0, 1.0 - (-e * np.log2(e) - (1 - e) * np.log2(1 - e)))
        return np.where(e >= 0.5, 0.0, np.where(e == 0.0, 1.0, frac))

    edges = [0.0, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 1.0 - 2.0**-53, 1.0]
    fidelity = np.concatenate([np.random.default_rng(23).random(100_000), edges])
    got = chain_mod._key_fractions(fidelity)
    assert np.array_equal(got, one_expression(fidelity))
    # one ulp inside e < 1/2 the entropy rounds to 1, so the clamp gives 0
    assert got[-6:].tolist() == [0.0, 0.0, 0.0, 0.0, got[-2], 1.0] and 0.0 < got[-2] < 1.0


def test_distribution_combinatorial_guard():
    # (m, n_e) = (2, 47) has 19,600 rows, under the limit; (2, 48) has 20,825
    w = loss_weights(CatCodeSpec(m=2, alpha=1.5, eta=0.9))
    assert len(chain_distribution(w, 47)) == 19_600
    kept = chain_mod._kept_table.cache_info().currsize
    with pytest.raises(ValueError, match=r"^20825 syndrome combinations exceed the limit 20000$"):
        chain_distribution(w, 48)
    # the guard raises before a table is built or kept
    assert chain_mod._kept_table.cache_info().currsize == kept
    # n_e = 1 at m = 12: 4,096 rows, under the limit, of 4,096 counts each,
    # 2^24 counts in all, which the table bound refuses as quickly
    w = loss_weights(CatCodeSpec(m=12, alpha=2.0, eta=0.9))
    info = chain_mod._kept_table.cache_info()
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^16777216 table counts exceed the bound 2097152$"):
        secret_key_rate(0.9, 1.0, mode="exact_average", weights=w, n_e=1)
    assert time.perf_counter() - start < 1.0
    assert chain_mod._kept_table.cache_info() == info


@pytest.mark.parametrize("m,n_e", [(7, 2), (1, 19_999)])
def test_compositions_match_recursive_enumeration(m, n_e):
    t, _, _ = chain_mod._compositions(n_e, 2**m)
    assert t.tolist() == [list(row) for row in recursive_compositions(n_e, 2**m)]


def test_kept_tables_are_read_only():
    w = loss_weights(CatCodeSpec(m=3, alpha=2.0, eta=0.9))
    secret_key_rate(0.9, 1.0, mode="exact_average", weights=w, n_e=10)
    t, prob, fid = chain_mod._distribution(w, 10)
    table = chain_mod._kept_table(10, 8)
    assert t is table[0]
    for a in _table_arrays(table):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    # what the weights decide is the caller's own
    assert prob.flags.writeable and fid.flags.writeable


def test_kept_tables_are_bounded():
    chain_mod._kept_table.cache_clear()
    w = loss_weights(CatCodeSpec(m=1, alpha=2.0, eta=0.9))
    for n_e in range(1, 21):
        chain_distribution(w, n_e)
    info = chain_mod._kept_table.cache_info()
    assert info.maxsize == 16 and info.currsize == 16
    big = loss_weights(CatCodeSpec(m=3, alpha=2.0, eta=0.9))
    chain_distribution(big, 10)
    hits = chain_mod._kept_table.cache_info().hits
    chain_distribution(big, 10)
    assert chain_mod._kept_table.cache_info().hits == hits + 1


def _table_arrays(table):
    t, (index, parent), log_multinomial = table
    return [t, *index, *parent, log_multinomial]


def _tree_nodes(m, n_e):
    # per column j below the last, the distinct prefixes t_0..t_j of counts
    # summing to at most n_e; then one leaf per row
    parts = 2**m
    return [math.comb(n_e + j, j) for j in range(1, parts)] + [math.comb(n_e + parts - 1, parts - 1)]


def _table_bytes(m, n_e):
    # 8 bytes each: t as floats and one log multinomial per row, one power
    # index per tree node, and one parent per node of the inner columns
    nodes = _tree_nodes(m, n_e)
    return 8 * (nodes[-1] * (2**m + 1) + sum(nodes) + sum(nodes[1:-1]))


def test_admitted_tables_fit_in_memory():
    # Every geometry the row limit and the count bound admit, by arithmetic;
    # the kept tables are the 16 most recently used of them.
    for m, n_e in ((1, 3), (2, 5), (3, 2), (3, 10)):
        table = chain_mod._geometry_table(n_e, 2**m)
        assert sum(a.nbytes for a in _table_arrays(table)) == _table_bytes(m, n_e)
        assert [a.size for a in table[1][0]] == _tree_nodes(m, n_e)
    # the product at (3, 10) visits each of its tree's nodes once, against
    # 8 factors for each of its 19,448 rows
    assert sum(_tree_nodes(3, 10)) == 51_271
    sizes = []
    for m in range(1, 15):  # from m = 15 on, one link alone has too many rows
        n_e = 1
        while (rows := math.comb(n_e + 2**m - 1, 2**m - 1)) <= chain_mod._COMBO_LIMIT:
            if rows * 2**m <= chain_mod._MAX_TABLE_CELLS:
                sizes.append(_table_bytes(m, n_e))
            n_e += 1
    sizes.sort(reverse=True)
    assert len(sizes) == 20_071
    assert sizes[0] == _table_bytes(10, 1) < 17 * 2**20
    assert sum(sizes[: chain_mod._KEPT_TABLES]) < 60 * 2**20


def _counting(calls, name, fn):
    def wrapped(*args):
        calls.append(name)
        return fn(*args)

    return wrapped


def test_largest_tables_are_kept(monkeypatch):
    # m = 4 at n_e = 5 (15,504 rows of 16) and m = 7 at n_e = 2 (8,256 rows
    # of 128) are kept like any other: a second rate at the geometry, with
    # other weights, builds nothing.
    chain_mod._kept_table.cache_clear()
    calls = []
    monkeypatch.setattr(chain_mod, "_compositions", _counting(calls, "c", chain_mod._compositions))
    for m, n_e in ((4, 5), (7, 2)):
        for alpha in (2.0, 3.0):
            w = loss_weights(CatCodeSpec(m=m, alpha=alpha, eta=0.9))
            _, rate = secret_key_rate(0.9, 1.0, mode="exact_average", weights=w, n_e=n_e)
            assert 0.0 <= rate <= 1.0
    assert calls == ["c", "c"]
    assert chain_mod._kept_table.cache_info().currsize == 2
    w = loss_weights(CatCodeSpec(m=4, alpha=2.0, eta=0.9))
    _, rate = secret_key_rate(0.9, 1.0, mode="exact_average", weights=w, n_e=5)
    rows = chain_distribution(w, 5)
    assert len(rows) == 15_504 and len(rows[0][0]) == 16
    assert abs(rate - math.fsum(p * chain_mod._key_fraction(f) for _, p, f in rows)) <= 1e-15
    assert calls == ["c", "c"]


def test_exact_average_repeat_geometry_builds_nothing(monkeypatch):
    # The table of a geometry is built on its first call and read after,
    # whatever the weights: no enumeration and no log-factorial vector.
    chain_mod._kept_table.cache_clear()
    calls = []
    monkeypatch.setattr(chain_mod, "_compositions", _counting(calls, "c", chain_mod._compositions))
    monkeypatch.setattr(chain_mod, "_log_factorials", _counting(calls, "f", catcode._log_factorials))
    for alpha in (2.0, 3.0):
        w = loss_weights(CatCodeSpec(m=3, alpha=alpha, eta=0.9))
        secret_key_rate(0.9, 1.0, mode="exact_average", weights=w, n_e=10)
    assert calls == ["c", "f"]


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0)
    assert binary_entropy(0.11) == pytest.approx(0.5, abs=2e-3)
    with pytest.raises(ValueError):
        binary_entropy(-0.1)


def test_secret_key_rate_endpoints():
    per_s, per_use = secret_key_rate(1.0, 1.0, 1e-6)
    assert per_s == pytest.approx(1e6)
    assert per_use == pytest.approx(1.0)
    assert secret_key_rate(0.5, 1.0)[1] == 0.0
    assert secret_key_rate(0.3, 1.0)[1] == 0.0
    with pytest.raises(ValueError):
        secret_key_rate(0.9, 0.5, mode="typo")
    with pytest.raises(ValueError):
        secret_key_rate(0.9, 0.5, mode="exact_average")


@pytest.mark.parametrize(
    "m,alpha,eta,n_e,kinds",
    [
        (1, 1.0, 1.0, 5, {"e=0"}),
        (3, 3.0, 1.0, 10, {"e=0"}),
        (1, 5.0, 0.9, 10, {"e<1/2", "e>=1/2"}),
        (3, 4.0, 0.7, 10, {"e<1/2", "e>=1/2"}),
        (2, 1.5, 0.99, 10, {"e<1/2"}),
        (1, 2.0, math.exp(-0.1 / 22.0), 10_000, {"e<1/2"}),
    ],
)
def test_exact_average_key_fraction_matches_scalar_rows(m, alpha, eta, n_e, kinds):
    # The vector key fraction (numpy log2) against the scalar one (libm
    # log2) summed exactly over the reference rows, with p_tot = 1.
    w = loss_weights(CatCodeSpec(m=m, alpha=alpha, eta=eta))
    rows = tuple_distribution(w, n_e)
    errors = [1.0 - f for _, p, f in rows if p > 0]
    assert {"e=0" if e == 0 else "e>=1/2" if e >= 0.5 else "e<1/2" for e in errors} == kinds
    want = math.fsum(p * chain_mod._key_fraction(f) for _, p, f in rows)
    _, got = secret_key_rate(0.9, 1.0, mode="exact_average", weights=w, n_e=n_e)
    assert abs(got - want) <= 1e-15


def test_exact_average_sums_over_arrays(monkeypatch):
    # The rate reads the row arrays: no tuple list and no call per row.
    counts = {"chain_distribution": 0, "_key_fraction": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in counts:
        monkeypatch.setattr(chain_mod, name, counting(name, getattr(chain_mod, name)))
    w = loss_weights(CatCodeSpec(m=3, alpha=2.0, eta=0.9))
    secret_key_rate(0.9, 1.0, mode="exact_average", weights=w, n_e=10)
    assert counts == {"chain_distribution": 0, "_key_fraction": 0}


@pytest.mark.parametrize("n_e", [2, 4])
def test_secret_key_rate_jensen(n_e):
    spec = CatCodeSpec(m=1, alpha=1.2, eta=0.9)
    w = loss_weights(spec)
    f_tot = chain_fidelity(segment_fidelity(spec), n_e)
    _, lower = secret_key_rate(f_tot, 1.0)
    _, exact = secret_key_rate(f_tot, 1.0, mode="exact_average", weights=w, n_e=n_e)
    assert exact >= lower - 1e-12


def test_plob_bound_anchors():
    assert plob_bound(ATTENUATION_LENGTH_KM * math.log(2.0)) == pytest.approx(1.0)
    eta_tot = math.exp(-1000.0 / 22.0)
    assert abs(eta_tot / 1.82e-20 - 1) < 0.02
    bound = plob_bound(1000.0)
    assert abs(bound / 2.62e-20 - 1) < 0.02
    assert bound == pytest.approx(eta_tot / math.log(2.0), rel=1e-10)
    for args in ((-1.0,), (math.nan,), (1000.0, math.nan)):
        with pytest.raises(ValueError, match="distances must be positive"):
            plob_bound(*args)
    with pytest.raises(ValueError, match="l_tot/l_att = inf/inf is not a number"):
        plob_bound(math.inf, math.inf)
    assert plob_bound(math.inf) == 0.0  # an endless line: e^(-inf) is 0, and so is the bound
    # divided as doubles: a float32 quotient would overflow with a RuntimeWarning
    assert plob_bound(np.float32(0.9), 1e-320) == 0.0


@pytest.mark.parametrize("loss", [1e-300, 1e-16, 1e-8, 45.0])
def test_plob_bound_matches_mpmath(loss):
    # -log2(1 - e^{-L}): e^{-L} rounds to 1 below L of about 1e-16, where
    # log1p(-eta_tot) would hit log(0); 45 stays on the log1p route.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        want = -mpmath.log(-mpmath.expm1(-mpmath.mpf(loss))) / mpmath.log(2)
    assert plob_bound(loss, 1.0) == pytest.approx(float(want), rel=1e-14)


def test_plob_bound_rejects_underflowing_ratio():
    with pytest.raises(ValueError, match="l_tot/l_att"):
        plob_bound(1e-300, 1e300)


def test_segment_params_transmission():
    seg = SegmentParams(l0=10.0, m=1, alpha=2.0, eta_local=0.99)
    want = 0.99 * math.exp(-10.0 / 22.0)
    assert seg.eta_segment == pytest.approx(want)
    assert seg.code_spec.eta == pytest.approx(want)
    assert seg.code_spec.m == 1 and seg.code_spec.alpha == 2.0
    with pytest.raises(ValueError):
        SegmentParams(l0=0.0, m=1, alpha=2.0)
    with pytest.raises(ValueError):
        SegmentParams(l0=1.0, m=1, alpha=2.0, eta_local=0.0)


def test_chain_geometry_check():
    seg = SegmentParams(l0=100.0, m=1, alpha=2.0)
    check_chain_geometry(seg, ChainParams(l_tot=1000.0, n_e=10))
    bad = SegmentParams(l0=0.3, m=1, alpha=2.0)
    with pytest.raises(ValueError, match="0.3.*1000"):
        check_chain_geometry(bad, ChainParams(l_tot=1000.0, n_e=3))


def test_evaluate_chain_consistency():
    seg = SegmentParams(l0=250.0, m=1, alpha=1.5)
    chain = ChainParams(l_tot=1000.0, n_e=4)
    report = evaluate_chain(seg, chain)
    spec = seg.code_spec
    assert report.f0 == pytest.approx(segment_fidelity(spec))
    assert report.f_tot == pytest.approx(chain_fidelity(report.f0, 4))
    assert report.p_tot == pytest.approx(chain_success(report.p0, 4))
    assert report.rate_per_use == pytest.approx(report.rate_per_second * 1e-6)
    assert report.plob == pytest.approx(plob_bound(1000.0))
    assert isinstance(report.beats_plob, bool)


def test_total_fidelity_improves_with_shorter_links():
    # Lossless stations, fixed total line: finer segmentation never hurts
    # the end-to-end fidelity.
    l_tot = 1000.0
    f_tots = []
    for l0 in (1000.0, 100.0, 10.0, 1.0, 0.1):
        n_e = round(l_tot / l0)
        seg = SegmentParams(l0=l0, m=1, alpha=2.0)
        f_tots.append(chain_fidelity(segment_fidelity(seg.code_spec), n_e))
    assert all(b >= a - 1e-12 for a, b in zip(f_tots, f_tots[1:]))


def test_evaluate_chain_builds_each_table_once(monkeypatch):
    # One point in weighted-average mode needs two class-series tables, x
    # mod 2M and y mod 2M, which serve the loss weights and the
    # discrimination success alike.
    calls = []
    kernel = catcode._class_series

    def counting(x, modulus):
        calls.append(modulus)
        return kernel(x, modulus)

    monkeypatch.setattr(catcode, "_class_series", counting)
    seg = SegmentParams(l0=1.0, m=3, alpha=3.0)
    evaluate_chain(seg, ChainParams(l_tot=10.0, n_e=10), usd_mode="weighted_average")
    assert calls == [16, 16]


def test_evaluate_chain_makes_no_lgamma_calls_once_the_table_is_warm(monkeypatch):
    # log t! comes from one table, so a repeated point never calls lgamma;
    # a return to per-term lgamma would show here without any timing.
    seg = SegmentParams(l0=1.0, m=3, alpha=3.0)
    params = ChainParams(l_tot=1000.0, n_e=1000)
    evaluate_chain(seg, params)
    calls = 0
    lgamma = math.lgamma

    def counting(v):
        nonlocal calls
        calls += 1
        return lgamma(v)

    monkeypatch.setattr(math, "lgamma", counting)
    evaluate_chain(seg, params)
    assert calls == 0


def test_segment_and_chain_records_hold_the_doubles_of_their_numbers():
    # a numpy scalar, a 0-d array or an int is kept as the double it stands
    # for, so eta_segment is computed in doubles, not float32
    seg = SegmentParams(np.float32(1.0), 2, np.array(2.0), np.float32(0.999), 22)
    double = SegmentParams(1.0, 2, 2.0, float(np.float32(0.999)), 22.0)
    assert all(type(getattr(seg, f)) is float for f in ("l0", "alpha", "eta_local", "l_att"))
    assert seg == double and repr(seg) == repr(double)
    assert type(seg.eta_segment) is float and seg.eta_segment == double.eta_segment
    line = ChainParams(np.float32(1000.0), 1000, np.float32(1e-6))
    assert type(line.l_tot) is float and type(line.t0) is float
    assert line == ChainParams(1000.0, 1000, float(np.float32(1e-6)))
    assert evaluate_chain(seg, ChainParams(1000.0, 1000)) == evaluate_chain(
        double, ChainParams(1000.0, 1000)
    )


_WEIGHTS = loss_weights(CatCodeSpec(1, 1.0, 0.9))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ChainParams(0.0, 1), "need l_tot > 0"),
        (lambda: ChainParams(10.0, 2.0), "need integer n_e >= 1"),
        (lambda: PauliFrameState("chi", 0.5), "kind must be one of ('phi', 'psi')"),
        (lambda: PauliFrameState("phi", 1.5), "plus_weight must lie in [0, 1]"),
        (lambda: chain_success(1.5, 2), "need p0 in [0, 1]"),
        (lambda: chain_success(0.5, 0), "need integer n_e >= 1"),
        (lambda: chain_distribution(_WEIGHTS, 0), "need integer n_e >= 1"),
        (lambda: secret_key_rate(1.5, 0.5), "need f_tot in [0, 1]"),
        (lambda: secret_key_rate(0.9, -0.1), "need p_tot in [0, 1]"),
        (lambda: secret_key_rate(0.9, 0.5, 0.0), "need t0 > 0"),
        (lambda: secret_key_rate(0.9, 0.5, math.nan), "need t0 > 0"),
        (
            lambda: SegmentParams(l0=1000.0, m=1, alpha=2.0, eta_local=0.5, l_att=1.0),
            "eta_local*exp(-l0/l_att) = 0.5*exp(-1000.0/1.0) underflows to 0",
        ),
        # a boolean is no number, as the CLI's cast already says
        (lambda: CatCodeSpec(True, 1.0, 0.9), "cascade depth m=True must be an integer >= 1"),
        (
            lambda: CatCodeSpec(1, True, 0.9),
            "amplitude alpha=True must be real, positive and finite",
        ),
        (lambda: CatCodeSpec(1, 1.0, True), "transmission eta=True outside (0, 1]"),
        # an int past the float range, by the same message
        (
            lambda: CatCodeSpec(1, 10**400, 0.9),
            f"amplitude alpha={10**400} must be real, positive and finite",
        ),
        (lambda: ChainParams(10.0, True), "need integer n_e >= 1"),
        (lambda: chain_fidelity(0.9, True), "need integer n_e >= 1"),
        (lambda: chain_success(0.5, True), "need integer n_e >= 1"),
        (lambda: chain_distribution(_WEIGHTS, True), "need integer n_e >= 1"),
        (
            lambda: secret_key_rate(0.9, 0.5, mode="exact_average", weights=_WEIGHTS, n_e=True),
            "need integer n_e >= 1",
        ),
        # the class weights' m is a count, as the spec's is
        (lambda: LossWeights([0.5, 0.25, 0.25, 0.0], 1.0), "cascade depth m=1.0 must be an"),
        (lambda: LossWeights([0.5, 0.25, 0.25, 0.0], True), "cascade depth m=True must be an"),
        (lambda: LossWeights([1.0, 0.0], 0), "cascade depth m=0 must be an integer >= 1"),
        # a record refuses a bool in a real field, by the field's name
        (
            lambda: evaluate_chain(SegmentParams(10.0, 1, True), ChainParams(1000.0, 100)),
            "alpha=True must be a number, not a bool",
        ),
        # a class index is an int, so a float q is named, not used as a list index
        (
            lambda: evaluate_chain(SegmentParams(10.0, 1, 1.0), ChainParams(1000.0, 100),
                                   "per_q", 0.5),
            "class index q=0.5 must be an int",
        ),
        # a complex amplitude is refused whatever its type: numpy orders
        # complex values, and float() would drop the imaginary part
        (
            lambda: CatCodeSpec(1, np.complex64(1.5 + 2j), 0.9),
            "amplitude alpha=np.complex64(1.5+2j) must be real, positive and finite",
        ),
        (
            lambda: CatCodeSpec(1, np.array(1.5 + 0j), 0.9),
            "amplitude alpha=array(1.5+0.j) must be real, positive and finite",
        ),
        (lambda: CatCodeSpec(1, 1.5, 0.9 + 0j), "transmission eta=(0.9+0j) outside (0, 1]"),
    ],
    ids=[
        "l_tot", "chain_n_e", "kind", "plus_weight", "p0", "success_n_e",
        "distribution_n_e", "f_tot", "p_tot", "t0", "t0_nan", "eta_segment",
        "spec_m_bool", "spec_alpha_bool", "spec_eta_bool", "spec_alpha_past_float",
        "chain_n_e_bool",
        "fidelity_n_e_bool", "success_n_e_bool", "distribution_n_e_bool", "key_rate_n_e_bool",
        "weights_m_float", "weights_m_bool", "weights_m_zero", "segment_alpha_bool", "chain_q_float",
        "spec_alpha_complex64", "spec_alpha_0d_complex", "spec_eta_complex",
    ],
)
def test_public_refusals_are_named(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
