"""Exact rate-region polytopes.

MAC polymatroids, compound intersections, dominant faces and corner
points, Fourier-Motzkin projection, the Han-Kobayashi inner bound for
two-user interference channels, a grid-based strong-interference test,
and homogeneous superposition-coding regions for broadcast channels.

Rate polytopes live in the nonnegative orthant; inequalities are
``coeffs . R <= bound`` with nonnegativity implicit.  Geometry uses a
1e-9 tolerance by default; ``exact=True`` switches the combination
arithmetic to :class:`fractions.Fraction` for dyadic cross-checks.
``RatePolytope.to_dict`` and ``Region2D.to_dict`` give a region as a
JSON-ready document; ``to_json`` is that document, dumped.

Redundancy removal is one loop: rows are visited in order and a row
goes when an LP over the rows still kept cannot push it past its bound
plus the tolerance.  Each of those LPs is loaded afresh into one HiGHS
instance per call, from scipy's private ``scipy.optimize._highspy``
binding (scipy 1.17, the only version tested); scipy is imported on the
first LP.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .channels import (
    DimensionError,
    DiscreteChannel,
    InputDistribution,
    UnsupportedChannelError,
    mutual_information,
)

TOL = 1e-9


class RegionError(ValueError):
    pass


@dataclass(frozen=True)
class Inequality:
    """coeffs . R <= bound, with an optional human-readable label."""

    coeffs: tuple
    bound: float
    label: str = ""

    def scaled(self):
        """Normalized representative (max |coeff| = 1) for deduping."""
        m = max(abs(float(c)) for c in self.coeffs)
        if m == 0:
            return (0.0,) * len(self.coeffs) + (float(self.bound),)
        return tuple(round(float(c) / m, 12) for c in self.coeffs) + (
            round(float(self.bound) / m, 12),
        )


@dataclass
class RatePolytope:
    """Intersection of halfspaces with the nonnegative orthant."""

    dimension: int
    inequalities: list[Inequality] = field(default_factory=list)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_subset_bounds(cls, dimension: int, bounds: dict,
                           labels: dict | None = None) -> "RatePolytope":
        """``bounds[frozenset J] = c`` becomes sum_{j in J} R_j <= c."""
        ineqs = []
        for J, c in sorted(bounds.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
            coeffs = tuple(1.0 if j in J else 0.0 for j in range(dimension))
            lbl = (labels or {}).get(J, "")
            ineqs.append(Inequality(coeffs, float(c), lbl))
        return cls(dimension, ineqs)

    # -- queries ---------------------------------------------------------

    def vertices(self) -> list[tuple]:
        """All extreme points (enumeration of d-subsets of facets)."""
        return _vertex_enumeration(self._full_system(), self.dimension)

    def _full_system(self):
        rows = [(tuple(float(c) for c in q.coeffs), float(q.bound))
                for q in self.inequalities]
        for j in range(self.dimension):
            coeffs = tuple(-1.0 if i == j else 0.0 for i in range(self.dimension))
            rows.append((coeffs, 0.0))
        return rows

    def canonicalized(self) -> "RatePolytope":
        """Duplicate and LP-redundant constraints removed, sorted."""
        kept = _remove_redundant(
            [(q.coeffs, q.bound, q.label) for q in self.inequalities],
            self.dimension, nonneg=True,
        )
        kept.sort(key=lambda t: (tuple(float(c) for c in t[0]), float(t[1])))
        return RatePolytope(
            self.dimension, [Inequality(c, b, l) for c, b, l in kept]
        )

    def to_dict(self) -> dict:
        """The polytope as a JSON-ready document, with its vertices."""
        return {
            "dimension": self.dimension,
            "inequalities": _inequality_dicts(self.inequalities),
            "vertices": [list(v) for v in self.vertices()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


@dataclass
class Region2D:
    """A convex polygon of achievable (R_1, R_2), counterclockwise."""

    vertices: list[tuple]
    constraints: list[Inequality] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_inequalities(cls, ineqs, metadata=None) -> "Region2D":
        poly = RatePolytope(2, list(ineqs))
        verts = poly.vertices()
        return cls(_ccw_order(verts), list(ineqs), metadata or {})

    def to_dict(self) -> dict:
        """The polygon as a JSON-ready document."""
        return {
            "vertices": [list(v) for v in self.vertices],
            "inequalities": _inequality_dicts(self.constraints),
            "metadata": self.metadata,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _inequality_dicts(ineqs) -> list[dict]:
    return [{"coeffs": [float(c) for c in q.coeffs],
             "bound": float(q.bound), "label": q.label} for q in ineqs]


# -- geometry helpers ----------------------------------------------------


def _ccw_order(points):
    pts = sorted({tuple(round(float(x), 10) for x in p) for p in points})
    if len(pts) <= 2:
        return [tuple(p) for p in pts]
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    pts.sort(key=lambda p: np.arctan2(p[1] - cy, p[0] - cx))
    return [tuple(p) for p in pts]


def _vertex_enumeration(rows, dim, tol=TOL):
    """Vertices of {x : A x <= b} via d-subset hyperplane intersections."""
    A = np.array([r[0] for r in rows], dtype=float)
    b = np.array([r[1] for r in rows], dtype=float)
    combs = np.array(list(itertools.combinations(range(len(rows)), dim)),
                     dtype=int).reshape(-1, dim)
    subs = A[combs]
    combs = combs[np.abs(np.linalg.det(subs)) >= 1e-12]
    if not len(combs):
        return []
    xs = np.linalg.solve(A[combs], b[combs][..., None])[..., 0]
    feasible = (xs @ A.T <= b + max(tol, 1e-8)).all(axis=1)
    seen = set()
    out = []
    for x in xs[feasible]:
        key = tuple(round(float(v), 9) for v in x)
        if key not in seen:
            seen.add(key)
            out.append(tuple(float(v) for v in x))
    return sorted(out)


def linprog(model, A, b, nonneg, c):
    """Minimize ``c . x`` subject to ``A x <= b`` (and x >= 0 with
    ``nonneg``) on the HiGHS instance ``model``, cleared first; the
    minimum, or None unless the solve ends optimal."""
    from scipy.optimize._highspy import _core as highs

    inf = highs.kHighsInf
    n, dim = A.shape
    model.clearModel()
    model.addVars(dim, np.zeros(dim) if nonneg else np.full(dim, -inf),
                  np.full(dim, inf))
    row, col = np.nonzero(A)
    model.addRows(n, np.full(n, -inf), b, len(row),
                  np.searchsorted(row, np.arange(n)).astype(np.int32),
                  col.astype(np.int32), A[row, col])
    model.changeColsCost(dim, np.arange(dim, dtype=np.int32), c)
    model.run()
    if model.getModelStatus() != highs.HighsModelStatus.kOptimal:
        return None
    return model.getInfo().objective_function_value


def _remove_redundant(rows, dim, nonneg=False):
    """Drop duplicate and LP-redundant inequalities.

    ``rows`` is a list of (coeffs, bound[, label]); returns same shape
    with labels preserved.  A row is redundant when maximizing its left
    side subject to the others cannot exceed its bound.  Rows are
    visited in order and each redundant one is dropped before the next
    is tested, so of two rows that imply each other the later survives.
    Each row's LP holds only the rows still kept; all of them run on one
    HiGHS instance, reloaded for each.
    """
    norm = []
    seen = set()
    for r in rows:
        coeffs, bound = r[0], r[1]
        label = r[2] if len(r) > 2 else ""
        if all(abs(float(c)) < 1e-14 for c in coeffs):
            if float(bound) < -TOL:
                raise RegionError("infeasible constant constraint")
            continue
        key = Inequality(tuple(coeffs), float(bound)).scaled()
        if key in seen:
            continue
        seen.add(key)
        norm.append((tuple(coeffs), bound, label))
    if not norm:
        return []
    from scipy.optimize._highspy import _core as highs

    A = np.array([[float(c) for c in r[0]] for r in norm])
    b = np.array([float(r[1]) for r in norm])
    model = highs._Highs()
    model.setOptionValue("output_flag", False)
    kept = list(range(len(norm)))
    i = 0
    while i < len(kept):
        k = kept[i]
        others = kept[:i] + kept[i + 1:]
        low = linprog(model, A[others], b[others], nonneg, -A[k])
        if low is not None and -low <= b[k] + TOL:
            kept.pop(i)
        else:
            i += 1
    return [norm[k] for k in kept]


# -- MAC regions ---------------------------------------------------------


def mac_region(mac: DiscreteChannel, p: InputDistribution,
               decode_set=None, receiver_label: str = "Y") -> RatePolytope:
    """The polymatroid R(J) <= I(X_J; Y, X_{A\\J} | Q) over subsets of A.

    Senders outside the decode set A are marginalized (treated as
    noise).  The polytope's dimension is the channel's sender count;
    undecoded senders are unconstrained except for nonnegativity.
    """
    K = mac.num_senders
    A = sorted(set(range(K) if decode_set is None else
                   (int(j) for j in decode_set)))
    if not A or any(j < 0 or j >= K for j in A):
        raise DimensionError("decode set must be a nonempty subset of senders")
    q_tag = "|Q" if p.num_q > 1 else ""
    bounds, labels = {}, {}
    for r in range(1, len(A) + 1):
        for J in itertools.combinations(A, r):
            rest = [j for j in A if j not in J]
            inner = ",".join(f"V{j + 1}" for j in J)
            cond = "".join(f",V{j + 1}" for j in rest)
            bounds[frozenset(J)] = mutual_information(mac, p, list(J), rest)
            labels[frozenset(J)] = f"I({inner};{receiver_label}{cond}{q_tag})"
    _validate_polymatroid(bounds, A)
    return RatePolytope.from_subset_bounds(K, bounds, labels)


def _validate_polymatroid(bounds, ground):
    """Normalized, monotone, submodular bound function (exhaustive)."""
    f = {frozenset(): 0.0}
    f.update(bounds)
    subsets = [frozenset(c) for r in range(len(ground) + 1)
               for c in itertools.combinations(ground, r)]
    for S in subsets:
        for T in subsets:
            if S <= T and f[S] > f[T] + 1e-9:
                raise RegionError("bound function is not monotone")
            union, inter = S | T, S & T
            if f[S] + f[T] < f[union] + f[inter] - 1e-9:
                raise RegionError("bound function is not submodular")


def intersect(regions) -> RatePolytope:
    """Intersection of rate polytopes over common coordinates."""
    regions = list(regions)
    if not regions:
        raise RegionError("nothing to intersect")
    dim = regions[0].dimension
    if any(r.dimension != dim for r in regions):
        raise DimensionError("regions have mismatched dimensions")
    ineqs = [q for r in regions for q in r.inequalities]
    return RatePolytope(dim, ineqs).canonicalized()


def _subset_bounds_of(region: RatePolytope):
    """Recover a subset-bound map if every inequality is a 0/1 row."""
    bounds = {}
    for q in region.inequalities:
        vals = set(round(float(c), 12) for c in q.coeffs)
        if not vals <= {0.0, 1.0}:
            return None
        J = frozenset(j for j, c in enumerate(q.coeffs) if float(c) > 0.5)
        if J in bounds:
            bounds[J] = min(bounds[J], float(q.bound))
        else:
            bounds[J] = float(q.bound)
    return bounds


def dominant_face(region: RatePolytope):
    """The sum-rate-tight face of a polymatroid region.

    Returns (sum_rate, vertices) where the vertices are the extreme
    points of the face (the greedy permutation corners, deduplicated).
    """
    bounds = _subset_bounds_of(region)
    if bounds is None:
        raise UnsupportedChannelError("region is not subset-bounded")
    ground = sorted(set().union(*bounds) if bounds else set())
    full = frozenset(ground)
    if full not in bounds:
        raise UnsupportedChannelError("region lacks a full-set sum bound")
    try:
        _validate_polymatroid(bounds, ground)
    except RegionError as e:
        raise UnsupportedChannelError(str(e)) from e
    sum_rate = bounds[full]
    corners = set()
    for perm in itertools.permutations(ground):
        point = [0.0] * region.dimension
        seen = frozenset()
        for j in perm:
            nxt = seen | {j}
            point[j] = bounds[nxt] - bounds.get(seen, 0.0)
            seen = nxt
        corners.add(tuple(round(v, 12) for v in point))
    return sum_rate, sorted(corners)


def corner_points(region: RatePolytope):
    """Extreme points of the dominant face."""
    return dominant_face(region)[1]


# -- Fourier-Motzkin -----------------------------------------------------


def fourier_motzkin(rows, eliminate, dim=None, exact: bool = False,
                    prune: bool = True):
    """Project {x : A x <= b} onto the coordinates not in ``eliminate``.

    ``rows`` is a list of (coeffs, bound[, label]); coordinates keep
    their original positions (eliminated ones get zero coefficients).
    With ``exact`` the combination arithmetic runs in Fractions.  With
    ``prune`` every step that leaves more than 4 rows per coordinate
    drops redundant rows, and so does a final pass unless the last
    step already did: re-testing an irredundant set keeps every row.
    """
    rows = [(tuple(r[0]), r[1]) for r in rows]
    if dim is None:
        dim = len(rows[0][0]) if rows else 0
    if exact:
        rows = [(tuple(Fraction(c).limit_denominator(10**12) if not
                       isinstance(c, Fraction) else c for c in co), Fraction(b)
                 if not isinstance(b, Fraction) else b) for co, b in rows]
    pruned_last = False
    for var in eliminate:
        pos, neg, zero = [], [], []
        for co, b in rows:
            c = co[var]
            if c > 0:
                pos.append((co, b))
            elif c < 0:
                neg.append((co, b))
            else:
                zero.append((co, b))
        combined = list(zero)
        for (cp, bp), (cn, bn) in itertools.product(pos, neg):
            a, c = cp[var], -cn[var]
            co = tuple(c * x + a * y for x, y in zip(cp, cn))
            combined.append((co, c * bp + a * bn))
        rows = combined
        pruned_last = prune and len(rows) > 4 * dim
        if pruned_last:
            rows = [(co, b) for co, b, _ in _remove_redundant(rows, dim)]
    if prune and not pruned_last:
        rows = [(co, b) for co, b, _ in _remove_redundant(rows, dim)]
    return rows


# -- Han-Kobayashi -------------------------------------------------------


def _derived_network(ic: DiscreteChannel, maps):
    """Four-sender network P(y1,y2 | v1..v4) from the two symbol maps.

    ``ic`` is the interference channel with senders (x1, x2) and joint
    output index y1 * n2 + y2 (output_arities metadata supplied by the
    caller); ``maps`` are (x1(v1, v2), x2(v3, v4)) with given sender
    arities inferred from the map tables.
    """
    m1, m2 = (np.atleast_2d(np.asarray(m, dtype=int)) for m in maps)
    a1, a2 = m1.shape
    a3, a4 = m2.shape
    n_in1, n_in2 = ic.input_arities
    if m1.max() >= n_in1 or m2.max() >= n_in2:
        raise DimensionError("symbol map exceeds channel input arity")
    kt = ic.kernel_tensor  # (n_in1, n_in2, n_out)
    kernel = np.empty((a1 * a2 * a3 * a4, ic.output_arity))
    idx = 0
    for v1 in range(a1):
        for v2 in range(a2):
            for v3 in range(a3):
                for v4 in range(a4):
                    kernel[idx] = kt[m1[v1, v2], m2[v3, v4]]
                    idx += 1
    return DiscreteChannel((a1, a2, a3, a4), ic.output_arity, kernel)


def _receiver_marginal(net: DiscreteChannel, output_arities, which):
    """Marginalize the joint (y1, y2) output onto one receiver."""
    n1, n2 = output_arities
    if n1 * n2 != net.output_arity:
        raise DimensionError("output arities do not factor the joint output")
    k = net.kernel.reshape(-1, n1, n2)
    marg = k.sum(axis=2) if which == 0 else k.sum(axis=1)
    return DiscreteChannel(net.input_arities, marg.shape[1], marg)


def hk_region(ic: DiscreteChannel, p: InputDistribution, maps,
              output_arities) -> Region2D:
    """Han-Kobayashi inner-bound region for one input distribution.

    Message j of user 1 splits into private/common parts carried by
    auxiliary senders V1 (private-1), V2 (common-1), V3 (common-2),
    V4 (private-2); receiver 1 decodes {V1, V2, V3} and receiver 2
    decodes {V2, V3, V4}.  The 4-D intersection is substituted with
    R_1 = R_1' + R_2', R_2 = R_3' + R_4' and projected to (R_1, R_2).
    """
    if len(p.marginals) != 4:
        raise RegionError("distribution must cover the four auxiliary senders")
    if p.num_q != 1:
        raise RegionError("time sharing must be realized in the maps")
    net = _derived_network(ic, maps)
    if tuple(m.shape[1] for m in p.marginals) != net.input_arities:
        raise DimensionError("distribution arities do not match the maps")
    y1 = _receiver_marginal(net, output_arities, 0)
    y2 = _receiver_marginal(net, output_arities, 1)
    r1 = mac_region(y1, p, decode_set=(0, 1, 2), receiver_label="Y1")
    r2 = mac_region(y2, p, decode_set=(1, 2, 3), receiver_label="Y2")
    both = intersect([r1, r2])
    return project_4_to_2(both)


def project_4_to_2(region: RatePolytope) -> Region2D:
    """Proj with R_1 = R_1' + R_2' and R_2 = R_3' + R_4'.

    Substitutes R_1' = R_1 - R_2' and R_4' = R_2 - R_3' (with the
    nonnegativity of the eliminated primed rates) and Fourier-Motzkin
    eliminates R_2', R_3'; coordinates of the result are (R_1, R_2).
    """
    if region.dimension != 4:
        raise DimensionError("projection expects a 4-D auxiliary region")
    # variable order: (R1, R2, R2', R3')
    rows = []
    for q in region.inequalities:
        c1, c2, c3, c4 = (float(c) for c in q.coeffs)
        # c1 R1' + c2 R2' + c3 R3' + c4 R4' <= b, R1' = R1 - R2',
        # R4' = R2 - R3'
        rows.append(((c1, c4, c2 - c1, c3 - c4), float(q.bound)))
    for co, b in [((0, 0, -1, 0), 0.0),            # R2' >= 0
                  ((0, 0, 0, -1), 0.0),            # R3' >= 0
                  ((-1, 0, 1, 0), 0.0),            # R1' >= 0
                  ((0, -1, 0, 1), 0.0)]:           # R4' >= 0
        rows.append((co, b))
    proj = fourier_motzkin(rows, eliminate=[2, 3], dim=4)
    ineqs = []
    for co, b in proj:
        if abs(co[2]) > 1e-12 or abs(co[3]) > 1e-12:
            raise RegionError("elimination left a projected-out coordinate")
        if co[0] <= 1e-12 and co[1] <= 1e-12:
            continue  # implied by nonnegativity
        ineqs.append(Inequality((float(co[0]), float(co[1])), float(b)))
    return Region2D.from_inequalities(ineqs)


# -- strong interference -------------------------------------------------


def strong_interference_check(ch_y: DiscreteChannel, ch_z: DiscreteChannel,
                              grid_resolution: int = 9):
    """Grid test of I(X;Y,W) <= I(X;Z,W) and I(W;Z,X) <= I(W;Y,X).

    Both channels take senders (X, W); the test sweeps product
    distributions with grid_resolution levels per sender probability.
    Returns (holds, witness, "grid-verified"); the witness is the first
    violating (p_x, p_w) in row-major order, or None.  A grid_resolution
    below 2, which would test no point or only (0, 0), raises RegionError.
    """
    if grid_resolution < 2:
        raise RegionError(
            f"grid_resolution must be at least 2, got {grid_resolution}")
    for ch in (ch_y, ch_z):
        if ch.num_senders != 2 or ch.input_arities != (2, 2):
            raise UnsupportedChannelError(
                "strong-interference test needs two binary senders")
    grid = np.linspace(0.0, 1.0, grid_resolution)
    law = np.stack([1 - grid, grid], axis=1)
    # per channel, the joint law of (X, W, Y) at every grid point (a, b)
    jy, jz = (np.einsum("ax,bw,xwy->abxwy", law, law, ch.kernel_tensor)
              for ch in (ch_y, ch_z))
    bad = ((_grid_mi(jy, 2) > _grid_mi(jz, 2) + 1e-9)
           | (_grid_mi(jz, 3) > _grid_mi(jy, 3) + 1e-9))
    if bad.any():
        a, b = np.unravel_index(np.argmax(bad), bad.shape)
        return False, (float(grid[a]), float(grid[b])), "grid-verified"
    return True, None, "grid-verified"


def _grid_mi(joint, sender):
    """I(sender; output, other sender) in bits at every grid point of a
    (G, G, 2, 2, |Y|) joint; ``sender`` is axis 2 (X) or 3 (W)."""

    def H(axes):
        drop = tuple({2, 3, 4} - set(axes))
        p = joint.sum(axis=drop) if drop else joint
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0, p * np.log2(p), 0.0)
        return -terms.reshape(p.shape[:2] + (-1,)).sum(axis=2)

    return H((sender,)) + H((5 - sender, 4)) - H((2, 3, 4))


# -- superposition coding ------------------------------------------------

SUPERPOSITION_DECODE_SETS = {
    1: ((0,), (1,)),
    2: ((0, 1), (1,)),
    3: ((0,), (0, 1)),
    4: ((0, 1), (0, 1)),
}


def superposition_regions(ch_y1: DiscreteChannel, ch_y2: DiscreteChannel,
                          p: InputDistribution) -> dict:
    """Homogeneous superposition-coding regions of a broadcast channel.

    ``ch_y1``/``ch_y2`` carry the derived network P(y_l | v_1, v_2);
    receiver l must uniquely decode its case's message set.  Returns
    {case: Region2D}; each region's constraints keep symbolic labels of
    the defining mutual informations.
    """
    for ch in (ch_y1, ch_y2):
        if ch.num_senders != 2:
            raise DimensionError("derived network must have two senders")
    return {case: Region2D.from_inequalities(
                intersect([mac_region(ch_y1, p, a1, "Y1"),
                           mac_region(ch_y2, p, a2, "Y2")]).inequalities,
                metadata={"decode_sets": {"Y1": list(a1), "Y2": list(a2)}})
            for case, (a1, a2) in SUPERPOSITION_DECODE_SETS.items()}


def superposition_case_constraints(ch_y1, ch_y2, p, case: int):
    """Unreduced symbolic constraint list of one decode-set case: the
    inequalities of both receivers' :func:`mac_region` as
    ``("R1+R2 <= label", bound)``."""
    a1, a2 = SUPERPOSITION_DECODE_SETS[case]
    return [("+".join(f"R{j + 1}" for j, c in enumerate(q.coeffs) if c)
             + " <= " + q.label, q.bound)
            for ch, A, lbl in ((ch_y1, a1, "Y1"), (ch_y2, a2, "Y2"))
            for q in mac_region(ch, p, A, lbl).inequalities]
