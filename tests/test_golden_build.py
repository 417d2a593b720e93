"""build_code's output pinned on three codes, to the last bit.

The digests and float reprs were recorded before the per-variable dicts
of ``build_code`` became arrays; a refactor of the construction must
reproduce them exactly.  The codes are the benchmark's sim-aligned
code, its design-sweep point (N, k) = (1024, 3) on tiles (0.3)/(0.0,
0.6), and the README's build example at N = 256, k = 2.
"""

import hashlib

import numpy as np
import pytest

from polarnet.codec import ReceiverSpec, build_code, theorem1_check
from polarnet.erasure import ParityLinkedErasureMAC

SWEEP = dict(target=(0.85, 0.85), delta_good=1 - 1e-4, delta_bad=0.1,
             split_eps=0.05)

CODES = {
    "sim-aligned": (((0.25,), (0.0, 0.5)), 1024, 2, SWEEP),
    "sweep-1024-3": (((0.3,), (0.0, 0.6)), 1024, 3, SWEEP),
    "readme-256-2": (((0.5,), (0.0, 1.0)), 256, 2,
                     dict(target=(0.75, 0.75), split_eps=0.1)),
}

SPEC_SHA256 = {
    "sim-aligned":
        "7a3cdb7d0d9bb4064803b1323bc14749185a9c664236e5a17e5d8a20b0fe3e9e",
    "sweep-1024-3":
        "5afb8245bff6403083e9fa7664c12e7a85c8e78970e87f999fe9a5d779bc4fe5",
    "readme-256-2":
        "3f52093f1e5c7ac4db43d614a43d32e538ed3291c27928da9723b34f0d6a5329",
}

# sha256 of the float64 bytes of var_eps[r][u] for each receiver r and
# each user u it decodes, in decode-set order, as (blocks, N) arrays
VAR_EPS_SHA256 = {
    "sim-aligned":
        "c9962725b9f6a8d223abfb5341d992b534fce751cc83ded1e63cde1d07d8f7d8",
    "sweep-1024-3":
        "7adb7689fd15bc83f9e703c82641c3cab515c8bcbaf84c35650d15842327627d",
    "readme-256-2":
        "641d6c8700dd95255d20ca38e301bfc2c09015c1910fa849a2d16f8b1ef88fe3",
}

# per user: min_rate, target, jointly_good_fraction, gap_i, gap_ii
THEOREM1 = {
    "sim-aligned": {
        1: ("0.8748197834893471", "0.85", "0.8623046875",
            "0.024819783489347103", "0.01251509598934708"),
        2: ("0.8749999859253056", "0.85", "0.66357421875",
            "0.024999985925305612", "0.2114257671753056"),
    },
    "sweep-1024-3": {
        1: ("0.8498857790303566", "0.85", "0.841796875",
            "0.00011422096964341932", "0.008088904030356558"),
        2: ("0.8500008684601417", "0.85", "0.6201171875",
            "8.684601416897308e-07", "0.22988368096014167"),
    },
    "readme-256-2": {
        1: ("0.75", "0.75", "0.734375", "0.0", "0.015625"),
        2: ("0.7499999718506132", "0.75", "0.5390625",
            "2.814938682149659e-08", "0.21093747185061318"),
    },
}

RECEIVER_RATES = {
    "sim-aligned": [("0.8748197834893471", "0.8751802165106526"),
                    ("0.875000014074694", "0.8749999859253056")],
    "sweep-1024-3": [("0.8499991315398651", "0.8500008684601417"),
                     ("0.8498857790303566", "0.8501142209696411")],
    "readme-256-2": [("0.750000028149387", "0.7499999718506132"),
                     ("0.75", "0.75")],
}

SHORTFALL = {
    "sim-aligned": {2: "0.2114257671753056"},
    "sweep-1024-3": {2: "0.22988368096014167"},
    "readme-256-2": {2: "0.21093747185061318"},
}

FIELDS = ("min_rate", "target", "jointly_good_fraction", "gap_i", "gap_ii")


@pytest.fixture(scope="module", params=sorted(CODES))
def built(request):
    tiles, N, k, kw = CODES[request.param]
    receivers = [ReceiverSpec(ParityLinkedErasureMAC(2, t), (1, 2))
                 for t in tiles]
    return request.param, build_code(receivers, N=N, k=k, **kw)


def test_spec_json_digest(built):
    name, spec = built
    digest = hashlib.sha256(spec.to_json().encode()).hexdigest()
    assert digest == SPEC_SHA256[name]


def test_theorem1_floats(built):
    name, spec = built
    report = theorem1_check(spec, 0.05)
    got = {u: tuple(repr(d[f]) for f in FIELDS)
           for u, d in report.per_user.items()}
    assert got == THEOREM1[name]


def test_receiver_rates_and_shortfall(built):
    name, spec = built
    got = [tuple(repr(rr[u]) for u in sorted(rr)) for rr in spec.receiver_rates]
    assert got == RECEIVER_RATES[name]
    assert {u: repr(s) for u, s in spec.shortfall.items()} == SHORTFALL[name]


def test_var_eps_digest(built):
    name, spec = built
    h = hashlib.sha256()
    for r, rec in enumerate(spec.receivers):
        assert sorted(spec.var_eps[r]) == sorted(rec.decode_set)
        for u in rec.decode_set:
            eps = spec.var_eps[r][u]
            assert eps.shape == (spec.schedule.total_blocks, spec.N)
            h.update(np.ascontiguousarray(eps, dtype=float).tobytes())
    assert h.hexdigest() == VAR_EPS_SHA256[name]
