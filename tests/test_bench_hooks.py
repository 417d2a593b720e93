"""The benchmark's tracer wraps polarnet functions by the names their
callers look up (``alignment.validate_successive_decodability``,
``alignment.decoding_dag``, ``codec.build_schedule``,
``AlignmentSchedule.pairs_for_user`` and others).  Installing it around
one small build makes a renamed or deleted hook fail here, not only in
a benchmark run.
"""

import pathlib

import pytest

from polarnet import alignment, codec, regions
from polarnet.erasure import ParityLinkedErasureMAC

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    return tracer


def test_tracer_hooks_a_small_build(tracer):
    originals = (codec.build_schedule, alignment.decoding_dag,
                 alignment.validate_successive_decodability)
    recs = [codec.ReceiverSpec(ParityLinkedErasureMAC(2, (0.25,)), (1, 2)),
            codec.ReceiverSpec(ParityLinkedErasureMAC(2, (0.0, 0.5)), (1, 2))]
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.begin("op", "op")
        spec = codec.build_code(recs, (0.85, 0.85), N=128, k=2,
                                delta_good=1 - 1e-4, delta_bad=0.1)
        codec.theorem1_check(spec, 0.05)
        codec.simulate(spec, 64, seed=1)
        tr.end()
    finally:
        tr.uninstall()
    assert (codec.build_schedule, alignment.decoding_dag,
            alignment.validate_successive_decodability) == originals
    m = tr.metrics()
    pairs = sum(len(spec.schedule.pairs_for_user(u)) for u in (1, 2))
    assert pairs > 0
    assert m["alignment.pairs"]["value"] == pairs
    for name in ("codec.build_code_s", "codec.theorem1_check_s",
                 "alignment.build_schedule_s", "alignment.validate_s",
                 "alignment.combined_eps_s", "polar.classify_s",
                 "chains.find_two_user_split_s"):
        assert m[name]["value"] > 0, name


def test_tracer_counts_one_lp_per_row(tracer):
    # a scaled duplicate and a zero row are dropped before any LP runs;
    # each of the 5 rows left is then tested by one LP, kept or not
    rows = [((1.0, 0.0), 1.0), ((2.0, 0.0), 2.0), ((0.0, 1.0), 1.0),
            ((1.0, 1.0), 3.0), ((0.0, 0.0), 0.0), ((-1.0, 0.0), 0.0),
            ((0.0, -1.0), 0.0)]
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.begin("op", "op")
        kept = regions._remove_redundant(rows, 2)
        tr.end()
    finally:
        tr.uninstall()
    assert len(kept) == 4
    assert tr.metrics()["regions.linprog_calls"]["value"] == 5
