"""Recursive alignment of incompatible polarized indices.

A type-II index (good for the first receiver, bad for the second) of
one block is XOR-combined with a type-III index of an independent copy:
the XOR variable is bad for both receivers (frozen) while the second
variable becomes good for both.  Repeating over doubled structures
shrinks the incompatible fraction geometrically.

Level l copies blocks 0..2^(l-1)-1 onto blocks 2^(l-1)..2^l-1 and
pairs the j-th surviving type-II slot ``(block, index)`` of the
original blocks with the j-th surviving type-III slot of the copy, both
in the aligned user's combined-sequence order; the copy repeats the
pairs of earlier levels.  A user's combined sequence starts as indices
1..N of block 0.  A level that aligns another user appends the copy's
sequence; a level that aligns this user merges the two at each pair in
turn: the original's entries before the type-II slot, the copy's before
the type-III slot, then the pair's XOR in place of both.  A slot
survives until it is paired, and only surviving slots can be paired, so
``build_schedule`` keeps per user just its surviving incompatible slots and
its pairs, in that order.

Blocks are numbered 0..2^k-1; indices are the 1-based per-block bit
positions.  Each receiver decodes the slots ``(block, slot)`` of its
monotone path; the pairs add dependencies across blocks, and a
topological order of the resulting DAG certifies successive
decodability.  Within a block the slots form a chain, so a decode order
is given as runs ``(block, start, stop)``: slots start..stop-1 of one
block, decoded one after another.  A run ends only where a pair lets a
lower block go next or makes this block wait for another.
``AlignmentSchedule.to_dict`` gives the levels and their pairs as a
JSON-ready document, which ``CompoundCodeSpec.to_dict`` embeds.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chains import MonotonePath
from .erasure import minus_eps, plus_eps


class ScheduleError(ValueError):
    def __init__(self, msg, cycle=None):
        super().__init__(msg)
        self.cycle = cycle


@dataclass(frozen=True)
class CombinePair:
    """XOR-combine index_a of block_a (type II) with index_b of block_b."""

    block_a: int
    index_a: int
    block_b: int
    index_b: int


@dataclass
class AlignmentLevel:
    user: int
    pairs: list[CombinePair]
    leftover_II: list[tuple[int, int]]   # (block, index) unpaired
    leftover_III: list[tuple[int, int]]
    incompatible_after: dict[int, int]   # user -> remaining count, all blocks


@dataclass
class AlignmentSchedule:
    num_users: int
    blocklength: int
    levels: list[AlignmentLevel]
    base_incompatible: dict[int, int]    # user -> |II| + |III| in one block
    pairs: dict[int, tuple[CombinePair, ...]]  # user -> all its pairs

    @property
    def total_blocks(self) -> int:
        return 1 << len(self.levels)

    def pairs_for_user(self, user: int) -> tuple[CombinePair, ...]:
        """All combined pairs of a user, including the copies made when
        later levels duplicate already-combined structure."""
        return self.pairs.get(user, ())

    def to_dict(self) -> dict:
        """The schedule as a JSON-ready document (levels and their pairs)."""
        return {
            "num_users": self.num_users,
            "blocklength": self.blocklength,
            "total_blocks": self.total_blocks,
            "levels": [
                {
                    "user": lvl.user,
                    "pairs": [
                        [p.block_a, p.index_a, p.block_b, p.index_b]
                        for p in lvl.pairs
                    ],
                    "leftover_II": [list(t) for t in lvl.leftover_II],
                    "leftover_III": [list(t) for t in lvl.leftover_III],
                }
                for lvl in self.levels
            ],
        }


def _on_copy(seq, shift: int):
    """A combined sequence moved to the copy: blocks raised by ``shift``."""
    out = []
    for e in seq:
        if e[0] == "xor":
            p = e[1]
            out.append(("xor", CombinePair(p.block_a + shift, p.index_a,
                                           p.block_b + shift, p.index_b)))
        else:
            out.append((e[0], e[1] + shift, e[2]))
    return out


def build_schedule(classifications, k: int,
                   blocklength: int) -> AlignmentSchedule:
    """Build the k-level recursive combining plan.

    ``classifications`` maps user id to an object with ``type_II`` and
    ``type_III`` index sets (1-based, within ``blocklength``).  Level
    ``l`` aligns the indices of user ``(l - 1) % K + 1``, so the levels
    cycle through users 1..K (for two users: 1, 2, 1, ...).  Every
    emitted schedule is validated for successive decodability under the
    plain user-concatenation order.
    """
    if k < 0:
        raise ScheduleError("level count must be nonnegative")
    users = sorted(classifications)
    K = len(users)
    if users != list(range(1, K + 1)):
        raise ScheduleError("classifications must cover users 1..K")
    N = blocklength
    # Per user, its combined sequence cut down to what later levels can
    # still touch: the surviving slots ("II" or "III", block, index) and
    # one ("xor", pair) per pair made so far, in combined-sequence order.
    seq = {}
    for u in users:
        II, III = classifications[u].type_II, classifications[u].type_III
        seq[u] = [("II" if i in II else "III", 0, i) for i in sorted(II | III)]
    base = {u: len(seq[u]) for u in users}
    levels = []
    for lvl in range(1, k + 1):
        user = users[(lvl - 1) % K]
        half = 1 << (lvl - 1)
        # blocks half..2*half-1 copy 0..half-1
        for u in users:
            if u != user:
                seq[u] += _on_copy(seq[u], half)
        # the j-th surviving type-II slot of the original blocks pairs
        # with the j-th surviving type-III slot of the copy; the merged
        # sequence puts the pair's XOR where both slots were
        a, b = seq[user], _on_copy(seq[user], half)
        at_II = [j for j, e in enumerate(a) if e[0] == "II"]
        at_III = [j for j, e in enumerate(b) if e[0] == "III"]
        pairs = [CombinePair(*a[x][1:], *b[y][1:])
                 for x, y in zip(at_II, at_III)]
        merged, x0, y0 = [], 0, 0
        for x, y, p in zip(at_II, at_III, pairs):
            merged += a[x0:x]
            merged += b[y0:y]
            merged.append(("xor", p))
            x0, y0 = x + 1, y + 1
        seq[user] = merged + a[x0:] + b[y0:]
        q = len(pairs)
        after = {u: sum(e[0] != "xor" for e in seq[u]) for u in users}
        levels.append(AlignmentLevel(user, pairs,
                                     [a[x][1:] for x in at_II[q:]],
                                     [b[y][1:] for y in at_III[q:]], after))
    pairs = {u: tuple(e[1] for e in seq[u] if e[0] == "xor") for u in users}
    schedule = AlignmentSchedule(K, N, levels, base, pairs)
    validate_successive_decodability(
        schedule, MonotonePath(tuple((u, N) for u in range(1, K + 1)), K))
    return schedule


def _dependency_edges(schedule: AlignmentSchedule, path: MonotonePath,
                      decode_set=None) -> list:
    """Cross-block edges of one receiver's decoding DAG.

    Nodes are ``(block, slot)``, where slot indexes the receiver's
    monotone path; within a block, slot s precedes slot s + 1 (implicit,
    not listed).  ``decode_set`` maps path-local user j to global user
    ``decode_set[j - 1]`` (default 1..K).  For each pair of a decoded
    user, the promoted slot needs the prefix before the XOR slot, and
    the XOR slot needs the promoted slot.
    """
    N = schedule.blocklength
    if decode_set is None:
        decode_set = tuple(range(1, schedule.num_users + 1))
    if path.num_users != len(decode_set) or path.blocklength != N:
        raise ScheduleError("receiver path does not match schedule shape")
    pos = path.positions.tolist()
    edges = []
    for j, u in enumerate(decode_set):
        for p in schedule.pairs_for_user(u):
            sa = pos[j][p.index_a - 1]
            sb = pos[j][p.index_b - 1]
            if sa > 0:
                edges.append(((p.block_a, sa - 1), (p.block_b, sb)))
            edges.append(((p.block_b, sb), (p.block_a, sa)))
    return edges


def decoding_dag(schedule: AlignmentSchedule, path: MonotonePath,
                 decode_set=None):
    """Dependency DAG of one receiver as a networkx graph, for tests and
    diagnostics (see _dependency_edges)."""
    import networkx as nx

    edges = _dependency_edges(schedule, path, decode_set)
    L = path.positions.size
    g = nx.DiGraph()
    for b in range(schedule.total_blocks):
        g.add_nodes_from((b, s) for s in range(L))
        g.add_edges_from(((b, s), (b, s + 1)) for s in range(L - 1))
    g.add_edges_from(edges)
    return g


def decode_runs(schedule: AlignmentSchedule, path: MonotonePath,
                decode_set=None) -> list[tuple[int, int, int]]:
    """The lexicographically smallest topological order of the DAG, as
    maximal runs ``(block, start, stop)`` of slots start..stop-1.

    Each block is a chain, so at most one slot per block is ever ready,
    and the smallest ready node is the next slot of the lowest ready
    block.  The walk follows that block forward and stops only at a slot
    with cross-block successors, which may make a lower block ready, or
    before a slot that still waits for another block.  The heap holds
    block ids only, so the work grows with the pairs, not the slots.
    Raises ScheduleError, carrying one dependency cycle, if the DAG is
    cyclic.
    """
    edges = _dependency_edges(schedule, path, decode_set)
    L = path.positions.size
    nb = schedule.total_blocks
    succ, waits = {}, {}   # cross-block successors; unmet cross preds
    stops = [[L - 1] for _ in range(nb)]
    for a, c in edges:
        succ.setdefault(a, []).append(c)
        waits[c] = waits.get(c, 0) + 1
        stops[a[0]].append(a[1])
        if c[1] > 0:
            stops[c[0]].append(c[1] - 1)
    stops = [sorted(set(st)) for st in stops]
    nxt = [0] * nb    # first slot not yet emitted, per block
    ready = [b for b in range(nb) if L and not waits.get((b, 0))]
    runs = []
    while ready:
        b = heapq.heappop(ready)
        start = nxt[b]
        while True:
            t = stops[b][bisect_left(stops[b], nxt[b])]
            nxt[b] = t + 1
            for c in succ.get((b, t), ()):
                waits[c] -= 1
                if not waits[c] and c[0] != b and nxt[c[0]] == c[1]:
                    heapq.heappush(ready, c[0])
            if t + 1 == L or waits.get((b, t + 1)):
                break
            if ready and ready[0] < b:
                heapq.heappush(ready, b)
                break
        runs.append((b, start, nxt[b]))
    if any(n < L for n in nxt):
        blocked = {(b, s) for b in range(nb) for s in range(nxt[b], L)}
        cycle = _cycle_among_blocked(blocked, edges)
        shown = " -> ".join(map(str, cycle[:8]))
        raise ScheduleError(
            f"combining induces a circular decoding dependency through "
            f"{len(cycle)} slots: {shown}" + (" -> ..." if len(cycle) > 8 else ""),
            cycle=cycle,
        )
    return runs


def expand_runs(runs) -> list[tuple[int, int]]:
    """The ``(block, slot)`` nodes of ``(block, start, stop)`` runs, in order."""
    return [(b, s) for b, start, stop in runs for s in range(start, stop)]


def _cycle_among_blocked(blocked, edges) -> list[tuple[int, int]]:
    """A cycle through the nodes a topological sort could not emit.

    Each such node keeps an unemitted predecessor, so walking
    predecessors from any of them must revisit a node.
    """
    preds = {}
    for a, c in edges:
        preds.setdefault(c, []).append(a)
    walk, seen = [], {}
    v = min(blocked)
    while v not in seen:
        seen[v] = len(walk)
        walk.append(v)
        b, s = v
        cands = preds.get(v, []) + ([(b, s - 1)] if s > 0 else [])
        v = next(p for p in cands if p in blocked)
    return walk[seen[v]:][::-1]


def validate_successive_decodability(schedule: AlignmentSchedule,
                                     path: MonotonePath,
                                     decode_set=None) -> None:
    """Raise ScheduleError unless the receiver can decode successively."""
    decode_runs(schedule, path, decode_set)


def incompatible_fraction(schedule: AlignmentSchedule, user: int):
    """Exact incompatible fractions for a user, before and after each
    of that user's alignment levels (rational arithmetic)."""
    N = schedule.blocklength
    out = [Fraction(schedule.base_incompatible[user], N)]
    for lvl_idx, lvl in enumerate(schedule.levels, start=1):
        if lvl.user != user:
            continue
        blocks = 1 << lvl_idx
        out.append(Fraction(lvl.incompatible_after[user], blocks * N))
    return out


def combined_eps(schedule: AlignmentSchedule, user: int, base_eps):
    """Per-(block, index) erasure probabilities after combining.

    ``base_eps[i - 1]`` is the erasure probability of bit-channel ``i``
    for one receiver, the same in every block before combining.  Returns
    a (total_blocks, N) array whose entry ``[b, i - 1]`` belongs to slot
    ``(b, i)``: XOR slots get the minus value, promoted slots the plus
    value of their pair.  A slot is in at most one pair of a user, so
    the pairs are applied all at once.
    """
    eps = np.tile(np.asarray(base_eps, dtype=float), (schedule.total_blocks, 1))
    ba, ia, bb, ib = np.array(
        [(p.block_a, p.index_a - 1, p.block_b, p.index_b - 1)
         for p in schedule.pairs_for_user(user)], dtype=np.intp).reshape(-1, 4).T
    ea, eb = eps[ba, ia], eps[bb, ib]
    eps[ba, ia] = minus_eps(ea, eb)
    eps[bb, ib] = plus_eps(ea, eb)
    return eps


def raw_schedule(num_users: int, blocklength: int, level_specs,
                 base_incompatible=None) -> AlignmentSchedule:
    """Assemble a schedule from explicit per-level pair lists, without
    validation.  Intended for tests and diagnostics of improper plans."""
    levels = [
        AlignmentLevel(user, [CombinePair(*p) for p in pairs], [], [], {})
        for user, pairs in level_specs
    ]
    user_pairs = {}
    for lvl in levels:
        user_pairs[lvl.user] = user_pairs.get(lvl.user, ()) + tuple(lvl.pairs)
    return AlignmentSchedule(num_users, blocklength, levels,
                             base_incompatible or {}, user_pairs)
