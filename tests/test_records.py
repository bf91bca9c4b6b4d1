"""The package's immutable records: one behaviour, from the catcode._Record base."""

import copy

import numpy as np
import pytest

from catrep.catcode import CatCodeSpec, LossWeights
from catrep.cavity import CavityParams
from catrep.chain import ChainParams, ChainReport, PauliFrameState, SegmentParams
from catrep.fockspace import FockVector, HybridDensity
from catrep.protocol_oracle import UnitReport, simulate_unit
from catrep.usd import CoherentSuperposition

# (class, positional arguments, the same by keyword, repr, other arguments,
# arguments the constructor refuses or None); each repr is the one the
# records printed as frozen dataclasses, and unnamed fields take defaults
CASES = [
    (
        CatCodeSpec, (2, 1.5), {"m": 2, "alpha": 1.5},
        "CatCodeSpec(m=2, alpha=1.5, eta=1.0)", (2, 1.5, 0.5), (0, 1.5),
    ),
    (
        LossWeights, ((0.25,) * 4, 1), {"p": [0.25] * 4, "m": 1},
        "LossWeights(values=(0.25, 0.25, 0.25, 0.25), m=1)", ((0.5, 0.5, 0.0, 0.0), 1),
        ((0.5, 0.5), 1),
    ),
    (
        CavityParams, (), {}, "CavityParams(g=3.0, kappa=1.0, gamma=1.2, kappa_r=0.9)",
        (3.0, 1.0, 1.2, 0.5), (3.0, 1.0, 1.2, 2.0),
    ),
    (
        SegmentParams, (1.0, 2, 1.5), {"l0": 1.0, "m": 2, "alpha": 1.5},
        "SegmentParams(l0=1.0, m=2, alpha=1.5, eta_local=1.0, l_att=22.0)",
        (1.0, 2, 1.5, 0.5), (-1.0, 2, 1.5),
    ),
    (
        ChainParams, (100.0, 10), {"l_tot": 100.0, "n_e": 10},
        "ChainParams(l_tot=100.0, n_e=10, t0=1e-06)", (100.0, 10, 1e-3), (100.0, 0),
    ),
    (
        PauliFrameState, ("psi", 1.0 + 1e-13, 7.0),
        {"kind": "psi", "plus_weight": 1.0 + 1e-13, "phase": 7.0},
        "PauliFrameState(kind='psi', plus_weight=1.0, phase=0.7168146928204138)",
        ("phi", 1.0, 7.0), ("xi", 0.5),
    ),
    (
        ChainReport, (0.9, 0.5, 0.8, 0.4, 1.0, 1e-06, 2e-06, False),
        {
            "f0": 0.9, "p0": 0.5, "f_tot": 0.8, "p_tot": 0.4, "rate_per_second": 1.0,
            "rate_per_use": 1e-06, "plob": 2e-06, "beats_plob": False,
        },
        "ChainReport(f0=0.9, p0=0.5, f_tot=0.8, p_tot=0.4, rate_per_second=1.0, "
        "rate_per_use=1e-06, plob=2e-06, beats_plob=False)",
        (0.9, 0.5, 0.8, 0.4, 1.0, 1e-06, 2e-06, True), None,
    ),
    (
        CoherentSuperposition, ([(1.0, (0.5,))], 1), {"terms": [(1.0, (0.5,))], "n_modes": 1},
        "CoherentSuperposition(coeffs=array([1.+0.j]), amps=array([[0.5+0.j]]))",
        ([(1.0, (0.25,))], 1), ([(1.0, (0.5,))], 0),
    ),
    (
        FockVector, (np.array([1.0]), 0), {"amps": [1.0], "n_max": 0},
        "FockVector(amps=array([1.+0.j]), n_max=0)", ([0.5], 0), ([1.0, 0.0], 0),
    ),
    (
        HybridDensity, (0, 0, [[1.0]]), {"spins": 0, "n_max": 0, "matrix": [[1.0]]},
        "HybridDensity(spins=0, n_max=0, matrix=array([[1.+0.j]]))",
        (0, 0, [[0.5]]), (0, 0, [[2.0]]),
    ),
    (
        UnitReport, (1, 2.0, 0.9, 0.99, (0.5, 0.5), (1.0,), (0.5,), (0.25,), 0.25, (None,), (0.0,)),
        {
            "m": 1, "alpha": 2.0, "eta": 0.9, "f0_oracle": 0.99, "weights": (0.5, 0.5),
            "syndrome_probs": (1.0,), "plus_weight": (0.5,), "usd_success": (0.25,),
            "p_success_weighted": 0.25, "spin_states": (None,), "thetas": (0.0,),
        },
        "UnitReport(m=1, alpha=2.0, eta=0.9, f0_oracle=0.99, weights=(0.5, 0.5), "
        "syndrome_probs=(1.0,), plus_weight=(0.5,), usd_success=(0.25,), "
        "p_success_weighted=0.25, spin_states=(None,), thetas=(0.0,))",
        (1, 2.0, 0.9, 0.5, (0.5, 0.5), (1.0,), (0.5,), (0.25,), 0.25, (None,), (0.0,)), None,
    ),
]


@pytest.mark.parametrize(
    "cls,args,kwargs,text,other,refused", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_record_behaves_as_its_frozen_dataclass_did(cls, args, kwargs, text, other, refused):
    a, b, c = cls(*args), cls(**kwargs), cls(*other)
    assert repr(a) == repr(b) == text
    assert list(vars(a)) == list(cls._fields)
    # equality by value (by identity for a superposition), and hash with it;
    # a record holding an array is unhashable, as the dataclass was
    assert a == a and a != c
    if cls is CoherentSuperposition:
        assert a != b and hash(a) != hash(b)
    else:
        assert a == b
        assert a != tuple(a._values())  # no other type compares equal
        if any(isinstance(v, np.ndarray) for v in a._values()):
            with pytest.raises(TypeError, match="unhashable"):
                hash(a)
        else:
            assert hash(a) == hash(b) and len({a, b, c}) == 2
    name = cls._fields[0]
    for act in (lambda: setattr(a, name, None), lambda: delattr(a, name)):
        with pytest.raises(AttributeError, match=repr(name)):
            act()
    assert repr(a) == text
    twin = copy.copy(a)
    assert repr(twin) == text and vars(twin) == vars(a)
    assert (twin == a) is (cls is not CoherentSuperposition)
    if refused is not None:
        with pytest.raises(ValueError):
            cls(*refused)


# every real field of the chain and cavity records, with an accepted value
# for each of the others; a bool is no number, so each refuses it by name
_REAL_FIELDS = [
    (SegmentParams, {"l0": 0.1, "m": 1, "alpha": 1.0}, ("l0", "alpha", "eta_local", "l_att")),
    (ChainParams, {"l_tot": 1000.0, "n_e": 10}, ("l_tot", "t0")),
    (CavityParams, {}, ("g", "kappa", "gamma", "kappa_r")),
]


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize(
    "cls,kwargs,name",
    [(cls, kwargs, name) for cls, kwargs, names in _REAL_FIELDS for name in names],
    ids=[f"{cls.__name__}.{name}" for cls, _, names in _REAL_FIELDS for name in names],
)
def test_real_fields_refuse_a_bool_by_name(cls, kwargs, name, value):
    with pytest.raises(ValueError, match=f"^{name}={value} must be a number, not a bool$"):
        cls(**{**kwargs, name: value})
    # the same field as a number of the bool's value is read, not refused
    if value:
        assert getattr(cls(**{**kwargs, name: 1}), name) == 1.0


def test_records_holding_arrays_compare_by_shape_and_elements():
    # numpy's == gives an array, so a plain tuple comparison of two such
    # records raises; an array field equals an array of its shape and
    # elements, and a tuple field is compared element by element
    assert FockVector([1, 0], 1) == FockVector([1, 0], 1) != FockVector([0, 1], 1)
    rho = np.diag([0.5, 0.5])
    assert HybridDensity(0, 1, rho) == HybridDensity(0, 1, rho.copy())
    assert HybridDensity(0, 1, rho) != HybridDensity(0, 1, np.diag([1.0, 0.0]))
    spec = CatCodeSpec(1, 1.0, 0.9)
    report = simulate_unit(spec)
    assert report == simulate_unit(spec)
    fields, states = report._values(), report.spin_states
    copies = tuple(state.copy() for state in states)
    assert report == UnitReport(*fields[:9], copies, *fields[10:])
    assert report != UnitReport(*fields[:9], (states[0], None), *fields[10:])
    assert report != UnitReport(*fields[:9], states[:1], *fields[10:])
    # an array equal to another only after numpy broadcasts it is not equal
    flat = UnitReport(*fields[:4], np.array([0.5]), *fields[5:])
    assert flat != UnitReport(*fields[:4], np.array([[0.5]]), *fields[5:])
    assert flat != UnitReport(*fields[:4], 0.5, *fields[5:])
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)
