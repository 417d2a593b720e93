"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public polarnet functions with wrappers at
the name each caller looks up (``polarnet.codec.build_schedule`` is the
name ``build_code`` calls, so that is the one wrapped), and
``uninstall`` puts the originals back.  Wrappers record only inside a
phase (one set-up or one operation) that the runner opens.

A timed wrapper records a span (id, name, start, end, parent) and adds
its duration to its metric; a call nested inside another call of the
same metric (recursion, or ``decoding_dag`` under
``validate_successive_decodability``) is counted but not timed again.
Hot leaf functions are counted without spans.
"""

from __future__ import annotations

import functools
import gc
import json
import statistics
import time
from collections import defaultdict

from polarnet import alignment, chains, codec, erasure, exact, polar, regions

# (metric, unit, scope, kind, key).  Scope "op": per operation when
# the workload's operations run the layer, else per set-up when only its
# set-up does; "setup": per set-up always; "ops": per operation always.
# Kinds: "s" seconds inside the wrapped calls, "n" a count, "med" the
# median of per-call samples, "ratio" LP solves inside projections per
# projected row returned.
PER_LAYER = [
    ("codec.sc_decode_s", "s", "op", "s", "codec.sc_decode"),
    ("codec.sc_decode_us_per_bit", "us", "op", "med", "codec.sc_decode_us"),
    ("codec.encode_s", "s", "op", "s", "codec.encode"),
    ("codec.transmit_s", "s", "op", "s", "codec.transmit"),
    ("codec.build_code_s", "s", "op", "s", "codec.build_code"),
    ("codec.theorem1_check_s", "s", "op", "s", "codec.theorem1_check"),
    ("erasure.sym_xor_calls", "count", "op", "n", "erasure.sym_xor"),
    ("erasure.polar_transform_bits_calls", "count", "op", "n",
     "erasure.polar_transform_bits"),
    ("erasure.bec_tree_bit_channel_eps_s", "s", "op", "s",
     "erasure.bec_tree_bit_channel_eps"),
    ("polar.classify_s", "s", "op", "s", "polar.classify"),
    ("alignment.build_schedule_s", "s", "op", "s", "alignment.build_schedule"),
    ("alignment.validate_s", "s", "op", "s", "alignment.validate"),
    ("alignment.combined_eps_s", "s", "op", "s", "alignment.combined_eps"),
    ("alignment.pairs", "count", "op", "n", "alignment.pairs"),
    ("chains.find_two_user_split_s", "s", "op", "s", "chains.find_two_user_split"),
    ("chains.find_k_user_split_s", "s", "op", "s", "chains.find_k_user_split"),
    ("exact.adder3_cond_entropy_calls", "count", "op", "n",
     "exact.adder3_cond_entropy"),
    ("regions.fourier_motzkin_s", "s", "op", "s", "regions.fourier_motzkin"),
    ("regions.linprog_calls", "count", "op", "n", "regions.linprog"),
    ("regions.lp_per_output_row", "ratio", "op", "ratio", "regions.fourier_motzkin"),
    ("regions.vertices_s", "s", "op", "s", "regions.vertices"),
    ("regions.hk_region_s", "s", "op", "s", "regions.hk_region"),
    ("regions.strong_interference_check_s", "s", "setup", "s",
     "regions.strong_interference_check"),
    ("channels.mutual_information_calls", "count", "setup", "n",
     "channels.mutual_information"),
    ("channels.mutual_information_s", "s", "setup", "s",
     "channels.mutual_information"),
    ("runtime.gc_pause_s", "s", "ops", "s", "runtime.gc"),
    ("runtime.gc_gen2_collections", "count", "ops", "n", "runtime.gc_gen2"),
]
# traced minus untraced end-to-end figures of the same run
OVERHEAD = [
    ("trace.overhead_op_s_p50", "s"),
    ("trace.overhead_ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
]


class Tracer:
    def __init__(self):
        self.phase = None          # "setup" or "op" while recording
        self.phase_span = None
        self.spans = []            # (id, name, start, end, parent)
        self.stack = []
        self.depth = defaultdict(int)
        self.total = defaultdict(float)   # (scope, metric) -> seconds
        self.count = defaultdict(int)     # (scope, metric) -> calls/units
        self.samples = defaultdict(list)  # (scope, metric) -> values
        self.phases = defaultdict(int)    # scope -> phases recorded
        self._saved = []
        self._gc_start = None
        self._next_id = 0

    # -- phases -----------------------------------------------------------

    def begin(self, scope: str, label: str):
        self.phase = scope
        self.phases[scope] += 1
        self._next_id += 1
        self.phase_span = (self._next_id, label, time.perf_counter())
        self.stack = [self._next_id]

    def end(self):
        sid, label, t0 = self.phase_span
        self.spans.append((sid, label, t0, time.perf_counter(), None))
        self.phase = None
        self.stack = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, fn, name, metric, post=None):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            scope = tr.phase
            if scope is None:
                return fn(*args, **kwargs)
            tr.count[scope, metric] += 1
            if tr.depth[metric]:
                return fn(*args, **kwargs)
            tr.depth[metric] += 1
            tr._next_id += 1
            sid, parent = tr._next_id, tr.stack[-1]
            tr.stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tr.stack.pop()
                tr.depth[metric] -= 1
            tr.spans.append((sid, name, t0, t1, parent))
            tr.total[scope, metric] += t1 - t0
            if post is not None:
                post(scope, out, args, t1 - t0)
            return out

        return wrapper

    def _counted(self, fn, metric, inside=None):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            scope = tr.phase
            if scope is not None:
                tr.count[scope, metric] += 1
                if inside is not None and tr.depth[inside[0]]:
                    tr.count[scope, inside[1]] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        tr = self

        def sc_decode_post(scope, out, args, dt):
            anchor = args[2]["anchor"]
            tr.samples[scope, "codec.sc_decode_us"].append(
                dt / anchor.size * 1e6)

        def schedule_post(scope, out, args, dt):
            tr.count[scope, "alignment.pairs"] += sum(
                len(out.pairs_for_user(u)) for u in range(1, out.num_users + 1))

        def fm_post(scope, out, args, dt):
            tr.count[scope, "regions.fm_rows_out"] += len(out)

        timed = [
            (codec, "sc_decode", "codec.sc_decode", sc_decode_post),
            (codec, "encode", "codec.encode", None),
            (codec, "transmit", "codec.transmit", None),
            (codec, "build_code", "codec.build_code", None),
            (codec, "theorem1_check", "codec.theorem1_check", None),
            (erasure, "bec_tree_bit_channel_eps",
             "erasure.bec_tree_bit_channel_eps", None),
            (codec, "classify", "polar.classify", None),
            (codec, "build_schedule", "alignment.build_schedule", schedule_post),
            (alignment, "validate_successive_decodability", "alignment.validate", None),
            (alignment, "decoding_dag", "alignment.validate", None),
            (codec, "combined_eps", "alignment.combined_eps", None),
            (codec, "find_two_user_split", "chains.find_two_user_split", None),
            (codec, "find_k_user_split", "chains.find_k_user_split", None),
            (chains, "find_k_user_split", "chains.find_k_user_split", None),
            (regions, "fourier_motzkin", "regions.fourier_motzkin", fm_post),
            (regions.RatePolytope, "vertices", "regions.vertices", None),
            (regions, "hk_region", "regions.hk_region", None),
            (regions, "strong_interference_check",
             "regions.strong_interference_check", None),
            (regions, "mutual_information", "channels.mutual_information", None),
        ]
        for owner, attr, metric, post in timed:
            fn = owner.__dict__[attr]
            qual = getattr(owner, "__name__", "").rsplit(".", 1)[-1]
            self._set(owner, attr, self._timed(fn, f"{qual}.{attr}", metric, post))
        # Adder3Evaluator borrows BruteForceEvaluator's method: wrap it
        # on Adder3Evaluator only, so brute-force calls are not counted.
        cond = exact.BruteForceEvaluator.__dict__["cond_entropy"]
        self._set(exact.Adder3Evaluator, "cond_entropy",
                  self._counted(cond, "exact.adder3_cond_entropy"))
        for owner in (erasure, codec):
            self._set(owner, "sym_xor",
                      self._counted(owner.sym_xor, "erasure.sym_xor"))
        for owner in (erasure, codec, exact, polar):
            self._set(owner, "polar_transform_bits",
                      self._counted(owner.polar_transform_bits,
                                    "erasure.polar_transform_bits"))
        self._set(regions, "linprog", self._counted(
            regions.linprog, "regions.linprog",
            inside=("regions.fourier_motzkin", "regions.linprog_in_fm")))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, event, info):
        scope = self.phase
        if scope is None:
            return
        if event == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.total[scope, "runtime.gc"] += time.perf_counter() - self._gc_start
            self._gc_start = None
            self.count[scope, "runtime.gc"] += 1
            if info["generation"] == 2:
                self.count[scope, "runtime.gc_gen2"] += 1

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name, unit, scope, kind, key in PER_LAYER:
            if scope == "op" and not self._ran("op", key) and self._ran("setup", key):
                scope = "setup"
            scope = "op" if scope == "ops" else scope
            phases = max(self.phases[scope], 1)
            samples = self.samples[scope, key]
            if kind == "s":
                value = self.total[scope, key] / phases
            elif kind == "n":
                value = self.count[scope, key] / phases
            elif kind == "med":
                value = statistics.median(samples) if samples else 0.0
            else:
                rows = self.count[scope, "regions.fm_rows_out"]
                value = self.count[scope, "regions.linprog_in_fm"] / rows if rows else 0.0
            out[name] = {"value": value, "unit": unit}
        return out

    def _ran(self, scope, key) -> bool:
        return self.count[scope, key] > 0 or bool(self.samples[scope, key])

    def dump(self, path: str, extra: dict) -> None:
        doc = dict(extra)
        doc["spans"] = [
            {"id": s, "name": n, "start": a, "end": b, "parent": p}
            for s, n, a, b, p in self.spans
        ]
        doc["counts"] = {f"{scope}:{m}": c for (scope, m), c in sorted(self.count.items())}
        doc["seconds"] = {f"{scope}:{m}": t for (scope, m), t in sorted(self.total.items())}
        doc["phases"] = dict(self.phases)
        with open(path, "w") as f:
            json.dump(doc, f)
