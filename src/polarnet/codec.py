"""End-to-end compound successive-cancellation codec.

The exact pipeline runs on the parity-linked erasure MAC family: every
receiver sees the cross parities of its decode set cleanly plus an
anchor stream through a per-position erasure pattern, so each block
reduces to a single anchor polar tree shared by all of that receiver's
users, and the decoder is an exact three-valued (0/1/unknown) message
passer driven along the alignment schedule's dependency order.

:func:`simulate` does not run that decoder.  SC on an erasure channel
never decides a bit wrongly; it only leaves bits erased, and every bit
it feeds back is known.  So a trial fails exactly when some information
bit is still erased at its turn, given every earlier bit (genie-aided
SC), which is a function of the erasure pattern alone.  Each receiver's
:class:`FailurePlan` is read once off its path's slot map
(:attr:`~polarnet.chains.MonotonePath.positions`) and the alignment
pairs, and evaluated on bit-packed erasure patterns with array
operations.
:func:`sc_decode`, with :func:`encode` and :func:`transmit`, stays as
the reference decoder that the tests compare the plan against.
:meth:`CompoundCodeSpec.to_dict` gives a code as the JSON-ready document
behind ``code_spec.json``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .alignment import (
    AlignmentSchedule,
    build_schedule,
    combined_eps,
    decode_runs,
    validate_successive_decodability,
)
from .chains import (
    MonotonePath,
    PreconditionError,
    check_size,
    find_two_user_split,
    find_k_user_split,
)
from .erasure import (
    ParityLinkedErasureMAC,
    UNKNOWN,
    bec_tree_erasures,
    polar_transform_bits,
    sc_tree_generator,
    sym_xor,
)
from .polar import classify


@dataclass(frozen=True)
class ReceiverSpec:
    """One receiver: which users it decodes and through which channel."""

    mac: ParityLinkedErasureMAC
    decode_set: tuple[int, ...]  # global user ids, sorted

    def __post_init__(self):
        if len(self.decode_set) != self.mac.num_users:
            raise ValueError("decode set size must match the MAC user count")


@dataclass
class CompoundCodeSpec:
    num_users: int
    N: int
    k: int
    receivers: list[ReceiverSpec]
    paths: list[MonotonePath]            # per receiver, over its decode set
    schedule: AlignmentSchedule
    info_sets: dict[int, list]           # user -> sorted (block, index) vars
    frozen_sets: dict[int, list]
    thresholds: tuple[float, float]
    target: tuple[float, ...]
    receiver_rates: list[dict[int, float]]   # per receiver: user -> R_j
    var_eps: list[dict[int, np.ndarray]]  # per receiver: user it decodes ->
                                          # (blocks, N) erasure probabilities
    shortfall: dict[int, float] = field(default_factory=dict)

    @cached_property
    def failure_plans(self) -> list["FailurePlan"]:
        """Per receiver, its :class:`FailurePlan`, computed on first use
        (the first :func:`simulate` call) and kept with the spec."""
        return [failure_plan(self, r) for r in range(len(self.receivers))]

    @property
    def M(self) -> int:
        return (1 << self.k) * self.N

    @property
    def jointly_good(self) -> dict[int, int]:
        """User -> number of jointly good variables, its information bits."""
        return {u: len(vs) for u, vs in self.info_sets.items()}

    @property
    def achieved_rates(self) -> dict[int, float]:
        return {u: len(self.info_sets[u]) / self.M for u in self.info_sets}

    def to_dict(self) -> dict:
        """The code as a JSON-ready document; user ids are string keys."""
        return {
            "num_users": self.num_users,
            "N": self.N,
            "k": self.k,
            "M": self.M,
            "thresholds": list(self.thresholds),
            "target": list(self.target),
            "receivers": [
                {
                    "decode_set": list(r.decode_set),
                    "eps_tile": list(r.mac.eps_tile),
                    "path": p.serialize(),
                }
                for r, p in zip(self.receivers, self.paths)
            ],
            "info_sets": {
                str(u): [list(v) for v in vs] for u, vs in self.info_sets.items()
            },
            "achieved_rates": {str(u): r for u, r in self.achieved_rates.items()},
            "jointly_good": {str(u): c for u, c in self.jointly_good.items()},
            "schedule": self.schedule.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _per_user_stats(rec: ReceiverSpec, path: MonotonePath):
    """Per-index MI vectors of the users a receiver decodes, by global id."""
    prof = rec.mac.path_mi_profile(path)
    return dict(zip(rec.decode_set, prof[path.positions]))


def _slots(mask: np.ndarray) -> list[tuple[int, int]]:
    """``(block, index)`` of a (blocks, N) mask's set entries, sorted."""
    b, i = np.nonzero(mask)
    return list(zip(b.tolist(), (i + 1).tolist()))


def _receiver_target(target, rec: ReceiverSpec, strategy: str):
    """Per-receiver dominant-face rates coordinatewise above the target."""
    sub = [target[u - 1] for u in rec.decode_set]
    slack = rec.mac.sum_capacity() - sum(sub)
    if slack < -1e-9:
        raise PreconditionError(
            f"target sum {sum(sub):.6f} exceeds receiver sum capacity "
            f"{rec.mac.sum_capacity():.6f}"
        )
    if strategy == "equal-sum":
        bump = [slack / len(sub)] * len(sub)
    elif strategy == "unequal-sum":
        # put the extra rate on the first decoded user, spilling over
        bump = [0.0] * len(sub)
        left = slack
        for j in range(len(sub)):
            room = rec.mac.subset_bound(1) - sub[j]
            take = min(left, room)
            bump[j] = take
            left -= take
        if left > 1e-9:
            bump[0] += left
    else:
        raise PreconditionError(f"unknown strategy {strategy!r}")
    return tuple(s + b for s, b in zip(sub, bump))


def _find_receiver_path(rec: ReceiverSpec, rates, N: int, eps: float):
    k = len(rec.decode_set)
    if k == 1:
        return MonotonePath(((1, N),), 1)
    if k == 2:
        return find_two_user_split(rec.mac, rates, eps, N, N_min=N)
    res = find_k_user_split(rec.mac, rates, eps, N, N_min=N)
    return res.path


def build_code(receivers, target, N: int, k: int,
               delta_good: float = 0.99, delta_bad: float = 0.01,
               strategy: str = "equal-sum",
               split_eps: float = 0.05) -> CompoundCodeSpec:
    """Construct the aligned compound code for a rate target.

    ``receivers`` is a list of ReceiverSpec; indices are classified
    across two receivers, so no user may be decoded by more than two of
    them.  ``target`` gives one rate per global user.  Per receiver
    a monotone split path approximating the (coordinatewise dominated)
    per-receiver rates is found, indices are classified across the two
    receivers, combined over k alignment levels, and the jointly good
    variables become the information sets.
    """
    if N < 1 or N & (N - 1):
        raise PreconditionError("N must be a power of two")
    check_size(f"M = 2^k N with k = {k}, N = {N}", N.bit_length() - 1 + k)
    if not receivers:
        raise PreconditionError("at least one receiver required")
    for r in receivers:
        if N % len(r.mac.eps_tile):
            raise PreconditionError(
                f"N={N} is not a multiple of the erasure tile length "
                f"{len(r.mac.eps_tile)}")
    num_users = max(max(r.decode_set) for r in receivers)
    decoders = Counter(u for r in receivers for u in r.decode_set)
    if set(decoders) != set(range(1, num_users + 1)):
        raise PreconditionError("every user must be decoded somewhere")
    crowded = sorted(u for u, n in decoders.items() if n > 2)
    if crowded:
        raise PreconditionError(
            f"users {crowded} are decoded by more than two receivers; "
            "indices are classified across two")
    target = tuple(float(t) for t in target)
    if len(target) != num_users:
        raise PreconditionError("one target rate per user required")

    paths = []
    stats = []   # per receiver: user(global) -> mi vector
    for rec in receivers:
        rates = _receiver_target(target, rec, strategy)
        path = _find_receiver_path(rec, rates, N, split_eps)
        paths.append(path)
        stats.append(_per_user_stats(rec, path))

    # classification per user across the one or two receivers that
    # decode it; users seen by one receiver only have no incompatibility
    cls = {}
    for u in range(1, num_users + 1):
        seen = [s[u] for s in stats if u in s]
        my = seen[0]
        other = seen[1] if len(seen) > 1 else seen[0]
        cls[u] = classify(my, other, delta_good, delta_bad)

    schedule = build_schedule(cls, k, N)
    for rec, p in zip(receivers, paths):
        validate_successive_decodability(schedule, p, rec.decode_set)

    M = (1 << k) * N
    var_eps = [{u: combined_eps(schedule, u, 1.0 - s[u]) for u in s}
               for s in stats]

    info_sets, frozen_sets = {}, {}
    for u in range(1, num_users + 1):
        good = np.ones((1 << k, N), dtype=bool)
        for ve in var_eps:
            if u in ve:
                good &= 1.0 - ve[u] > delta_good
        for p in schedule.pairs_for_user(u):
            good[p.block_a, p.index_a - 1] = False   # jointly-bad XOR
        info_sets[u], frozen_sets[u] = _slots(good), _slots(~good)

    # a left-to-right sum: np.sum's pairwise sum would change the floats
    receiver_rates = [{u: sum((1.0 - e).ravel().tolist()) / M
                       for u, e in ve.items()} for ve in var_eps]

    spec = CompoundCodeSpec(
        num_users=num_users, N=N, k=k, receivers=list(receivers),
        paths=paths, schedule=schedule, info_sets=info_sets,
        frozen_sets=frozen_sets, thresholds=(delta_good, delta_bad),
        target=target, receiver_rates=receiver_rates, var_eps=var_eps,
    )
    for u in range(1, num_users + 1):
        want = min(rr[u] for rr in receiver_rates if u in rr)
        have = spec.achieved_rates[u]
        if have < want - split_eps:
            spec.shortfall[u] = want - have
    return spec


# -- encoding ------------------------------------------------------------


def encode(spec: CompoundCodeSpec, messages):
    """Map per-user message bit arrays to per-user codewords.

    ``messages[u]`` has batch shape (..., |info_u|).  Returns
    ``codewords[u]`` of shape (..., total_blocks, N) and the underlying
    transform-domain blocks (needed by the channel simulator).  Frozen
    bits are 0, as :func:`sc_decode` and :func:`failure_plan` assume.
    """
    nb = spec.schedule.total_blocks
    N = spec.N
    u_blocks = {}
    for u in range(1, spec.num_users + 1):
        msg = np.asarray(messages[u], dtype=np.int8)
        if msg.shape[-1] != len(spec.info_sets[u]):
            raise ValueError(f"user {u}: message length mismatch")
        batch = msg.shape[:-1]
        vals = np.zeros(batch + (nb, N), dtype=np.int8)
        for j, (b, i) in enumerate(spec.info_sets[u]):
            vals[..., b, i - 1] = msg[..., j]
        # xor slots carry the frozen XOR variable; the actual raw bit is
        # reconstructed from the promoted partner
        for p in spec.schedule.pairs_for_user(u):
            x = vals[..., p.block_a, p.index_a - 1].copy()
            vals[..., p.block_a, p.index_a - 1] = (
                x ^ vals[..., p.block_b, p.index_b - 1]
            )
        u_blocks[u] = vals
    codewords = {u: polar_transform_bits(v) for u, v in u_blocks.items()}
    return codewords, u_blocks


# -- decoding ------------------------------------------------------------


class _TreeCursor:
    """Sequential interface to one block's batched erasure SC tree."""

    def __init__(self, leaf_msgs):
        self.gen = sc_tree_generator(np.asarray(leaf_msgs, dtype=np.int8))
        self.values = {}
        try:
            idx, post = next(self.gen)
        except StopIteration:
            idx, post = None, None
        self.pending = idx
        self.posterior = post

    def peek(self, index: int):
        # index is 1-based; generator offsets are 0-based
        if self.pending != index - 1:
            raise RuntimeError("decoder advanced out of order")
        return self.posterior

    def push(self, index: int, value):
        post = self.peek(index)
        self.values[index] = np.asarray(value, dtype=np.int8)
        try:
            idx, p = self.gen.send(self.values[index])
            self.pending, self.posterior = idx, p
        except StopIteration:
            self.pending, self.posterior = None, None


def sc_decode(spec: CompoundCodeSpec, receiver: int, outputs):
    """Decode one receiver's observations.

    ``outputs`` is the dict produced by :func:`transmit` for this
    receiver: anchor leaf symbols per block (batch, nb, N) with 2 for
    erased, plus exact parity streams per decoded user.  Returns
    (messages, failure) where messages[u] has shape (batch, |info_u|)
    and failure flags trials in which some requested info bit stayed
    unresolved.
    """
    ds = spec.receivers[receiver].decode_set
    N = spec.N
    nb = spec.schedule.total_blocks
    anchor = np.asarray(outputs["anchor"], dtype=np.int8)
    batch = anchor.shape[:-2]
    # transform-domain offsets u_j = t xor offset_j per block
    offsets = {ds[0]: np.zeros(batch + (nb, N), dtype=np.int8)}
    for u in ds[1:]:
        offsets[u] = polar_transform_bits(
            np.asarray(outputs["parity"][u], dtype=np.int8)
        )
    # slot s of the receiver's path holds bit i of user u as
    # slot_var[s] == (u, i); pairs are keyed by their XOR slot and by
    # their promoted slot, each as (user, block, index)
    pos = spec.paths[receiver].positions
    slot_var = [None] * pos.size
    for u, row in zip(ds, pos.tolist()):
        for i, s in enumerate(row, start=1):
            slot_var[s] = (u, i)
    xor_pair, promoted = {}, {}
    for u in ds:
        for p in spec.schedule.pairs_for_user(u):
            xor_pair[(u, p.block_a, p.index_a)] = p
            promoted[(u, p.block_b, p.index_b)] = p
    info = {u: set(spec.info_sets[u]) for u in ds}
    cursors = [_TreeCursor(anchor[..., b, :]) for b in range(nb)]
    failure = np.zeros(batch, dtype=bool)
    var_values = {}
    for b, start, stop in decode_runs(spec.schedule, spec.paths[receiver],
                                      ds):
        cur = cursors[b]
        for s in range(start, stop):
            u, i = slot_var[s]
            if i in cur.values:
                val = sym_xor(cur.values[i], offsets[u][..., b, i - 1])
                var_values[(u, b, i)] = val
                continue
            off = offsets[u][..., b, i - 1]
            if (u, b, i) in xor_pair:
                # frozen XOR variable; raw bit follows from the partner
                pair = xor_pair[(u, b, i)]
                val = var_values[(u, pair.block_b, pair.index_b)]  # xor var is 0
                cur.push(i, sym_xor(val, off))
                var_values[(u, b, i)] = val
                continue
            post = cur.peek(i)
            own = sym_xor(post, off)
            if (u, b, i) in promoted:
                pair = promoted[(u, b, i)]
                pcur = cursors[pair.block_a]
                if pair.index_a in pcur.values:
                    alt_tree = pcur.values[pair.index_a]
                else:
                    alt_tree = pcur.peek(pair.index_a)
                alt_var_a = sym_xor(alt_tree, offsets[u][..., pair.block_a,
                                                         pair.index_a - 1])
                alt = alt_var_a  # xor variable frozen to 0: u_b = 0 ^ u_a
                est = np.where(own <= 1, own, alt).astype(np.int8)
            else:
                est = own
            if (b, i) in info[u]:
                failure |= est > 1
                val = np.where(est <= 1, est, 0).astype(np.int8)
            else:
                val = np.zeros_like(est)  # frozen to zero
            cur.push(i, sym_xor(val, off))
            var_values[(u, b, i)] = val

    messages = {}
    for u in ds:
        cols = [var_values[(u, b, i)] for (b, i) in spec.info_sets[u]]
        messages[u] = (
            np.stack(cols, axis=-1) if cols
            else np.zeros(batch + (0,), dtype=np.int8)
        )
    return messages, failure


# -- failure plans -------------------------------------------------------


@dataclass(frozen=True)
class FailurePlan:
    """Where one receiver's SC decoder can fail, for any decode order.

    On the erasure MAC, SC decoding never decides a bit wrongly: it only
    leaves bits erased, and every bit it feeds back into a tree is
    known.  So whether a trial fails depends on the erasure pattern
    alone: it fails exactly when some information bit is still erased
    at its turn, given every earlier bit (genie-aided SC).  Tree bits are
    numbered ``(index - 1) * total_blocks + block``.  A trial fails when
    a bit of ``single`` is erased, or both bits of a row of ``pairs``: a
    promoted slot and the undecided XOR slot that can stand in for it.
    """

    single: np.ndarray   # (n,) tree bits
    pairs: np.ndarray    # (m, 2) tree bits

    def failed(self, bits):
        """Failure flags from bit-channel erasures shaped (N, blocks, ...).

        ``bits`` is :func:`~polarnet.erasure.bec_tree_erasures` of the
        receiver's anchor erasures, bools or trials packed into bits.
        """
        flat = bits.reshape((-1,) + bits.shape[2:])
        fail = np.bitwise_or.reduce(flat[self.single], axis=0)
        both = flat[self.pairs[:, 0]] & flat[self.pairs[:, 1]]
        return fail | np.bitwise_or.reduce(both, axis=0)


def failure_plan(spec: CompoundCodeSpec, receiver: int) -> FailurePlan:
    """Read a receiver's :class:`FailurePlan` off its path and schedule.

    Within a block, slots decode in path order, so tree bit ``(b, i)``
    is decided by the user whose bit i comes first in the path, the
    same user in every block.  That slot can fail only if it holds an
    information bit of its user; XOR slots never do, as
    :func:`build_code` freezes them.  A promoted slot ``(bb, ib)`` waits
    for every slot before its partner's XOR slot ``(ba, ia)``, so tree
    bit ``(ba, ia)`` is already known unless the same user decides it,
    at the XOR slot itself; only then does the promoted slot go into
    ``pairs``.  These are properties of the decoding DAG, so the plan is
    the same for every decode order that :func:`sc_decode` could walk.
    Entries come out in tree-bit order.
    """
    nb = spec.schedule.total_blocks
    # first[i - 1]: the path-local user that decides tree bit i
    first = spec.paths[receiver].positions.argmin(axis=0)
    single, pairs = [], []
    for j, u in enumerate(spec.receivers[receiver].decode_set):
        b, i = np.array(spec.info_sets[u], dtype=np.intp).reshape(-1, 2).T
        mine = set(((i - 1) * nb + b)[first[i - 1] == j].tolist())
        for p in spec.schedule.pairs_for_user(u):
            bit = (p.index_b - 1) * nb + p.block_b
            if bit in mine:
                mine.remove(bit)
                if first[p.index_a - 1] == j:
                    pairs.append((bit, (p.index_a - 1) * nb + p.block_a))
        single += mine
    return FailurePlan(np.array(sorted(single), dtype=np.intp),
                       np.array(sorted(pairs), dtype=np.intp).reshape(-1, 2))


# -- channel simulation --------------------------------------------------


def transmit(spec: CompoundCodeSpec, receiver: int, codewords, rng):
    """Sample one receiver's observations of the transmitted codewords."""
    rec = spec.receivers[receiver]
    ds = rec.decode_set
    N = spec.N
    anchor_x = np.asarray(codewords[ds[0]], dtype=np.int8)
    leaf_eps = rec.mac.leaf_eps(N)
    erased = rng.random(anchor_x.shape) < leaf_eps
    anchor = np.where(erased, UNKNOWN, anchor_x).astype(np.int8)
    parity = {
        u: (np.asarray(codewords[u], dtype=np.int8) ^ anchor_x)
        for u in ds[1:]
    }
    return {"anchor": anchor, "parity": parity}


# Trials whose erasures are drawn into one reused float64 buffer of
# (_DRAW_TRIALS, blocks, N); it bounds a chunk's memory whatever its
# size.  A multiple of 64, so that only a chunk's last slab is padded.
_DRAW_TRIALS = 256


def _skip_messages(bitgen, t: int, info_lengths):
    """Advance a fresh Philox past ``t`` trials of message bits per user.

    Encode-then-transmit drew them with ``integers(0, 2, (t, k),
    dtype=int8)``, one call per user of ``k`` information bits.  That
    takes one uint32 per 4 bits and never rejects; a call starts on a
    fresh uint32, and the halves of each 64-bit output carry over from
    one call to the next.  Returns ``bitgen``.
    """
    halves = sum(-(-t * k // 4) for k in info_lengths)
    words = -(-halves // 2)
    bitgen.advance(words // 4)  # 4 outputs per counter step
    bitgen.random_raw(words % 4)
    return bitgen


def _simulate_chunk(spec: CompoundCodeSpec, plans, t: int, seed: int,
                    ci: int):
    # The message bits do not change whether a trial fails, so they are
    # not drawn: the stream is moved past them, and the erasures take the
    # same part of it as in encode-then-transmit.
    bitgen = _skip_messages(np.random.Philox(key=[seed, ci]), t,
                            [len(spec.info_sets[u])
                             for u in range(1, spec.num_users + 1)])
    rng = np.random.Generator(bitgen)
    shape = (spec.schedule.total_blocks, spec.N)
    draws = np.empty((min(t, _DRAW_TRIALS),) + shape)
    # A slab of d trials is padded with unerased trials to n, a multiple
    # of 64, and its 0/1 bytes are packed 8 rows of whole 64-bit words at
    # a time: trial j goes to bit j // w of byte j % w of its w = n / 8.
    slab = np.empty((-(-len(draws) // 64) * 64,) + shape, dtype=np.uint8)
    packed = np.empty((-(-t // 64) * 8,) + shape, dtype=np.uint8)
    errors = []
    for rec, plan in zip(spec.receivers, plans):
        leaf_eps = rec.mac.leaf_eps(spec.N)
        for t0 in range(0, t, _DRAW_TRIALS):
            d = min(_DRAW_TRIALS, t - t0)
            n = -(-d // 64) * 64
            rng.random(out=draws[:d])
            np.less(draws[:d], leaf_eps, out=slab[:d].view(bool))
            slab[d:n] = 0
            rows = slab[:n].reshape(8, -1).view(np.uint64)
            out = packed[t0 // 8:(t0 + n) // 8].reshape(-1).view(np.uint64)
            np.copyto(out, rows[0])
            for k in range(1, 8):
                out |= rows[k] << np.uint64(k)
        # (N, blocks, words): each word holds 64 trials
        erased = np.ascontiguousarray(packed.transpose(2, 1, 0))
        fail = plan.failed(bec_tree_erasures(erased.view(np.uint64)))
        count = int(np.bitwise_count(fail).sum())
        errors.append({u: count for u in rec.decode_set})
    return errors


def simulate(spec: CompoundCodeSpec, trials: int, seed: int = 0,
             chunk: int = 2048, threads: int = 1):
    """Monte-Carlo block-error simulation, deterministic given the seed.

    Trials are split into fixed-size chunks whose RNG streams are keyed
    by (seed, chunk index), so the result is byte-identical under any
    parallel schedule.  Each trial draws every receiver's anchor erasure
    pattern, and each receiver's :class:`FailurePlan` says whether SC
    decoding fails on it; the messages are not drawn (the stream skips
    them) and the codewords are not formed.
    Returns ``(errors, trials)``: ``errors[r][u]`` is receiver r's
    block-failure count, the trials in which some information bit of
    any user it decodes stayed erased, repeated for each such user u.
    ``trials``, ``chunk`` and ``threads`` below 1 raise ``ValueError``.
    """
    if trials < 1 or chunk < 1 or threads < 1:
        raise ValueError("trials, chunk and threads must be positive")
    sizes = []
    done = 0
    while done < trials:
        t = min(chunk, trials - done)
        sizes.append(t)
        done += t
    plans = spec.failure_plans
    errors = [{u: 0 for u in rec.decode_set} for rec in spec.receivers]
    if threads > 1 and len(sizes) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(
                lambda a: _simulate_chunk(spec, plans, a[1], seed, a[0]),
                enumerate(sizes),
            ))
    else:
        parts = [_simulate_chunk(spec, plans, t, seed, ci)
                 for ci, t in enumerate(sizes)]
    for part in parts:
        for r, per in enumerate(part):
            for u, c in per.items():
                errors[r][u] += c
    return errors, trials


# -- theorem quantities --------------------------------------------------


@dataclass
class Theorem1Report:
    per_user: dict
    passed_i: bool
    passed_ii: bool


def theorem1_check(spec: CompoundCodeSpec, eps: float) -> Theorem1Report:
    """Gap report for the two achievability conditions.

    Condition (i): per user, min over receivers of the path rate is
    within eps of the target.  Condition (ii): the jointly good fraction
    exceeds that minimum minus eps.
    """
    per_user = {}
    ok_i = ok_ii = True
    for u in range(1, spec.num_users + 1):
        rmins = [rr[u] for rr in spec.receiver_rates if u in rr]
        rmin = min(rmins)
        frac = spec.jointly_good[u] / spec.M
        gap_i = abs(rmin - spec.target[u - 1])
        gap_ii = rmin - frac
        per_user[u] = {
            "min_rate": rmin,
            "target": spec.target[u - 1],
            "jointly_good_fraction": frac,
            "gap_i": gap_i,
            "gap_ii": gap_ii,
            "pass_i": gap_i < eps,
            "pass_ii": gap_ii < eps,
        }
        ok_i &= gap_i < eps
        ok_ii &= gap_ii < eps
    return Theorem1Report(per_user, ok_i, ok_ii)
