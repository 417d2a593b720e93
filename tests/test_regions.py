import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from polarnet.channels import (
    DiscreteChannel,
    InputDistribution,
    UnsupportedChannelError,
)
from polarnet.regions import (
    Inequality,
    RatePolytope,
    Region2D,
    RegionError,
    _derived_network,
    _receiver_marginal,
    _remove_redundant,
    _vertex_enumeration,
    corner_points,
    dominant_face,
    fourier_motzkin,
    hk_region,
    intersect,
    mac_region,
    strong_interference_check,
    superposition_case_constraints,
    superposition_regions,
)

ADDER2 = DiscreteChannel.binary_adder(2)
UNIF2 = InputDistribution.uniform((2, 2))


class TestMacRegion:
    def test_adder_pentagon(self):
        r = mac_region(ADDER2, UNIF2)
        bounds = {tuple(q.coeffs): q.bound for q in r.inequalities}
        assert bounds[(1.0, 0.0)] == pytest.approx(1.0)
        assert bounds[(0.0, 1.0)] == pytest.approx(1.0)
        assert bounds[(1.0, 1.0)] == pytest.approx(1.5)

    def test_single_decode_set_interval(self):
        r = mac_region(ADDER2, UNIF2, decode_set=[0])
        assert len(r.inequalities) == 1
        assert r.inequalities[0].bound == pytest.approx(0.5)

    def test_dominant_face_segment(self):
        sr, verts = dominant_face(mac_region(ADDER2, UNIF2))
        assert sr == pytest.approx(1.5)
        assert verts == [(0.5, 1.0), (1.0, 0.5)]

    def test_three_user_greedy_corners(self):
        r = mac_region(DiscreteChannel.binary_adder(3),
                       InputDistribution.uniform((2, 2, 2)))
        assert len(corner_points(r)) == 6

    def test_non_polymatroid_rejected(self):
        bad = RatePolytope(2, [Inequality((1.0, 2.0), 1.0)])
        with pytest.raises(UnsupportedChannelError):
            dominant_face(bad)


class TestToDict:
    def test_documents_are_json_native(self):
        # to_json is one dump of to_dict, so the dict is what a reader
        # parses back: lists, string keys, plain floats
        ch1, ch2 = derived_bc(0.0, 0.1)
        p = InputDistribution.product([[0.5, 0.5], [0.7, 0.3]])
        regions = [mac_region(ADDER2, UNIF2), *superposition_regions(
            ch1, ch2, p).values()]
        for r in regions:
            assert r.to_dict() == json.loads(r.to_json())


class TestIntersect:
    def test_idempotent(self):
        r = mac_region(ADDER2, UNIF2)
        assert intersect([r, r]).vertices() == r.vertices()

    def test_pentagon_intersection_vs_halfplane_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            b1 = sorted(rng.uniform(0.2, 1.0, size=2))
            b2 = sorted(rng.uniform(0.2, 1.0, size=2))
            s1 = min(rng.uniform(0.5, 1.5), b1[0] + b1[1])
            s2 = min(rng.uniform(0.5, 1.5), b2[0] + b2[1])
            p1 = RatePolytope.from_subset_bounds(2, {
                frozenset({0}): b1[0], frozenset({1}): b1[1],
                frozenset({0, 1}): s1})
            p2 = RatePolytope.from_subset_bounds(2, {
                frozenset({0}): b2[0], frozenset({1}): b2[1],
                frozenset({0, 1}): s2})
            both = intersect([p1, p2])
            rows = p1._full_system() + p2._full_system()
            oracle = _vertex_enumeration(rows, 2)
            assert both.vertices() == pytest.approx(oracle, abs=1e-9)

    def test_dimension_mismatch(self):
        from polarnet.channels import DimensionError

        with pytest.raises(DimensionError):
            intersect([RatePolytope(2), RatePolytope(3)])


class TestFourierMotzkin:
    def test_cube_projection(self):
        cube = [((1, 0, 0), 1.0), ((0, 1, 0), 1.0), ((0, 0, 1), 1.0),
                ((-1, 0, 0), 0.0), ((0, -1, 0), 0.0), ((0, 0, -1), 0.0)]
        rows = fourier_motzkin(cube, [2])
        keys = sorted((tuple(r[0]), r[1]) for r in rows)
        assert keys == [((-1, 0, 0), 0.0), ((0, -1, 0), 0.0),
                        ((0, 1, 0), 1.0), ((1, 0, 0), 1.0)]

    def test_eliminate_nothing(self):
        rows = [((1.0, 1.0), 1.0), ((1.0, 1.0), 2.0)]
        out = fourier_motzkin(rows, [])
        assert len(out) == 1 and out[0][1] == 1.0

    def test_exact_mode_fractions(self):
        from fractions import Fraction

        rows = [((Fraction(1), Fraction(1)), Fraction(1)),
                ((Fraction(-1), Fraction(0)), Fraction(0)),
                ((Fraction(0), Fraction(-1)), Fraction(0))]
        out = fourier_motzkin(rows, [0], exact=True, prune=False)
        assert any(isinstance(b, Fraction) for _, b in out)


class TestStrongInterference:
    def test_identical_outputs_strong(self):
        holds, witness, label = strong_interference_check(ADDER2, ADDER2, 5)
        assert holds and witness is None and label == "grid-verified"

    def test_erased_cross_link_not_strong(self):
        # receiver z sees only its own input; x's signal is erased there
        ch_y = DiscreteChannel.from_function((2, 2), lambda x, w: x + 2 * w)
        ch_z = DiscreteChannel.from_function((2, 2), lambda x, w: w)
        holds, witness, _ = strong_interference_check(ch_y, ch_z, 5)
        assert not holds and witness is not None


def bsc_kernel(eps):
    return np.array([[1 - eps, eps], [eps, 1 - eps]])


def derived_bc(eps1, eps2):
    k1 = np.array([bsc_kernel(eps1)[v1 ^ v2]
                   for v1 in range(2) for v2 in range(2)])
    k2 = np.array([bsc_kernel(eps2)[v1 ^ v2]
                   for v1 in range(2) for v2 in range(2)])
    return (DiscreteChannel((2, 2), 2, k1), DiscreteChannel((2, 2), 2, k2))


class TestSuperposition:
    def test_case3_symbolic_inequalities(self):
        ch1, ch2 = derived_bc(0.0, 0.1)
        p = InputDistribution.product([[0.5, 0.5], [0.7, 0.3]])
        labels = [s for s, _ in superposition_case_constraints(ch1, ch2, p, 3)]
        assert labels == [
            "R1 <= I(V1;Y1)",
            "R1 <= I(V1;Y2,V2)",
            "R2 <= I(V2;Y2,V1)",
            "R1+R2 <= I(V1,V2;Y2)",
        ]

    def test_case_constraints_are_mac_region_rows(self):
        # Under time sharing the labels carry mac_region's |Q tag, and
        # each bound is the MAC region's row bound.
        ch1, ch2 = derived_bc(0.0, 0.1)
        p = InputDistribution(([[0.5, 0.5], [0.9, 0.1]],
                               [[0.7, 0.3], [0.2, 0.8]]), [0.4, 0.6])
        got = superposition_case_constraints(ch1, ch2, p, 3)
        assert [s for s, _ in got] == [
            "R1 <= I(V1;Y1|Q)",
            "R1 <= I(V1;Y2,V2|Q)",
            "R2 <= I(V2;Y2,V1|Q)",
            "R1+R2 <= I(V1,V2;Y2|Q)",
        ]
        rows = (mac_region(ch1, p, (0,), "Y1").inequalities
                + mac_region(ch2, p, (0, 1), "Y2").inequalities)
        assert [b for _, b in got] == [q.bound for q in rows]

    def test_identical_receivers_same_region(self):
        ch1, ch2 = derived_bc(0.1, 0.1)
        p = InputDistribution.product([[0.5, 0.5], [0.5, 0.5]])
        regs = superposition_regions(ch1, ch2, p)
        v4 = regs[4].vertices
        # case 4 (both decode everything) equals the MAC region of either
        mac = mac_region(ch1, p)
        assert sorted(v4) == pytest.approx(
            sorted(Region2D.from_inequalities(
                [Inequality(tuple(float(c) for c in q.coeffs),
                            float(q.bound)) for q in mac.inequalities]
            ).vertices), abs=1e-9)

    def test_constant_v2_degenerate(self):
        ch1, ch2 = derived_bc(0.0, 0.1)
        p = InputDistribution.product([[0.5, 0.5], [1.0, 0.0]])
        regs = superposition_regions(ch1, ch2, p)
        assert all(abs(v[1]) < 1e-9 for v in regs[1].vertices)


class TestHanKobayashi:
    def make_ic(self):
        def joint(x1, x2):
            return (x1 + x2) * 2 + x2

        ker = np.zeros((4, 6))
        for x1 in range(2):
            for x2 in range(2):
                ker[x1 * 2 + x2, joint(x1, x2)] = 1.0
        return DiscreteChannel((2, 2), 6, ker)

    def test_matches_vertex_oracle(self):
        from scipy.spatial import ConvexHull

        ic = self.make_ic()
        maps = ([[0, 1], [1, 0]], [[0, 1], [1, 0]])
        p4 = InputDistribution.product([[0.5, 0.5]] * 4)
        reg = hk_region(ic, p4, maps, (3, 2))
        net = _derived_network(ic, maps)
        y1 = _receiver_marginal(net, (3, 2), 0)
        y2 = _receiver_marginal(net, (3, 2), 1)
        both = intersect([mac_region(y1, p4, (0, 1, 2)),
                          mac_region(y2, p4, (1, 2, 3))])
        pts = np.array(sorted({(round(v[0] + v[1], 9), round(v[2] + v[3], 9))
                               for v in both.vertices()}))
        hull = ConvexHull(pts)
        oracle = sorted(map(tuple, pts[hull.vertices]))
        got = sorted(tuple(map(float, v)) for v in reg.vertices)
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_non_product_distribution_rejected(self):
        ic = self.make_ic()
        p = InputDistribution.uniform((2, 2))  # wrong sender count
        with pytest.raises(RegionError):
            hk_region(ic, p, ([[0, 1], [1, 0]], [[0, 1], [1, 0]]), (3, 2))


def reference_remove_redundant(rows, dim, nonneg=False, tol=1e-9):
    """The sequential loop that ``_remove_redundant`` must reproduce:
    one ``scipy.optimize.linprog`` per row over the rows still kept."""
    norm = []
    seen = set()
    for r in rows:
        coeffs, bound = r[0], r[1]
        label = r[2] if len(r) > 2 else ""
        if all(abs(float(c)) < 1e-14 for c in coeffs):
            if float(bound) < -tol:
                raise RegionError("infeasible constant constraint")
            continue
        key = Inequality(tuple(coeffs), float(bound)).scaled()
        if key in seen:
            continue
        seen.add(key)
        norm.append((tuple(coeffs), bound, label))
    kept = list(norm)
    i = 0
    while i < len(kept):
        coeffs, bound, label = kept[i]
        others = kept[:i] + kept[i + 1:]
        A = [[float(c) for c in o[0]] for o in others]
        b = [float(o[1]) for o in others]
        lim = (0, None) if nonneg else (None, None)
        res = linprog([-float(c) for c in coeffs], A_ub=A or None,
                      b_ub=b or None, bounds=[lim] * dim, method="highs")
        if res.status == 0 and -res.fun <= float(bound) + tol:
            kept.pop(i)
        else:
            i += 1
    return kept


@st.composite
def redundancy_systems(draw):
    """Systems of dim + 1 rows and up: random facets around a point and
    up to three rows with a coefficient of 1e-13 to 1e-7, then any of a
    box, a flat direction (an equality, or a row and its opposite, one
    of them with a slope of up to 1e-6, whose bounds cross or miss by
    1e-13 to 1e-8), an open direction (no row bounds the last coordinate
    from above), exact and near-duplicate rows, nearly parallel rows,
    and a cut of depth near ``tol`` off a vertex."""
    dim = draw(st.integers(2, 4))
    small = st.integers(-3, 3)
    x0 = [draw(small) / 2 for _ in range(dim)]
    shape = draw(st.sampled_from(["box", "open", "neither"]))
    rows = []

    def add(coeffs, slack):
        rows.append((tuple(float(c) for c in coeffs),
                     float(np.dot(coeffs, x0)) + slack))

    for _ in range(draw(st.integers(dim + 1, 4 * dim + 8))):
        coeffs = [draw(small) for _ in range(dim)]
        if shape == "open":
            coeffs[-1] = -abs(coeffs[-1])
        add(coeffs, draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])))
    for _ in range(draw(st.integers(0, 3))):
        coeffs = [draw(small) for _ in range(dim)]
        coeffs[draw(st.integers(0, dim - 1))] = (
            draw(st.sampled_from([-1, 1])) * 10.0 ** -draw(st.integers(7, 13)))
        if shape == "open":
            coeffs[-1] = -abs(coeffs[-1])
        add(coeffs, draw(st.sampled_from([0.0, 0.5, 1.0])))
    if shape == "box":
        for j in range(dim):
            e = np.eye(dim)[j]
            add(e, 4.0)
            add(-e, 4.0)
        verts = _vertex_enumeration(rows, dim)
        if verts and draw(st.booleans()):
            v = np.array(verts[draw(st.integers(0, len(verts) - 1))])
            A = np.array([co for co, _ in rows])
            b = np.array([bb for _, bb in rows])
            tight = A[np.abs(A @ v - b) < 1e-9]
            a = np.round(np.array([draw(st.integers(1, 9)) for _ in tight])
                         @ tight / 7, 3)
            depth = draw(st.sampled_from([5e-10, 1e-9, 2e-9]))
            rows.append((tuple(float(c) for c in a), float(a @ v) - depth))
    if draw(st.booleans()):
        # x_j <= x0_j, c . x <= c . x0 + s (x_j - x0_j) and
        # f c . x >= f (c . x0 + gap): an equality when s and gap are 0,
        # else a system empty, or nearly so, by about gap
        coeffs = np.array([draw(small) for _ in range(dim)], float)
        e = np.eye(dim)[draw(st.integers(0, dim - (2 if shape == "open"
                                                    else 1)))]
        s = draw(st.sampled_from([0.0, 1e-8, 1e-7, 1e-6]))
        f = draw(st.sampled_from([1.0, 0.999999, 3.0]))
        gap = draw(st.sampled_from([0.0, 1e-13, -1e-13, 1e-10, -1e-10,
                                    1e-8, -1e-8]))
        add(e, 0.0)
        add(coeffs - s * e, 0.0)
        add(-f * coeffs, -f * gap)
    for _ in range(draw(st.integers(0, 4))):
        co, b = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(["scaled", "bound", "coeff", "slope"]))
        delta = draw(st.sampled_from([1e-13, 1e-10, 1e-8, 1e-6, 1e-4]))
        if kind == "scaled":                 # the same halfspace
            f = draw(st.sampled_from([0.5, 2.0, 3.0]))
            rows.append((tuple(f * c for c in co), f * b))
        elif kind == "bound":
            rows.append((co, b + draw(st.sampled_from([-1, 1])) * delta))
        elif kind == "coeff":
            j = draw(st.integers(0, dim - 1))
            rows.append((co[:j] + (co[j] + delta,) + co[j + 1:], b))
        else:                                # e_i - delta e_j <= c
            i, j = draw(st.permutations(range(dim)))[:2]
            if shape == "open":
                i, j = draw(st.integers(0, dim - 2)), dim - 1
            e = np.zeros(dim)
            e[i], e[j] = 1.0, -delta
            add(e, draw(st.sampled_from([0.0, 1.0])))
    order = draw(st.permutations(range(len(rows))))
    return [rows[k] for k in order], dim, draw(st.booleans())


# x1 <= 20 is irredundant only past x2 = 2e6, where x1 <= 1e-5 x2 no
# longer holds x1 under 20: a row whose only witnesses lie far out must
# still be kept.
BEYOND_BOX = ([((1.0, -1e-5), 0.0), ((1.0, 0.0), 20.0), ((-1.0, 0.0), 1.0),
               ((0.0, -1.0), 0.0), ((-1.0, 0.0), 2.0), ((-1.0, 0.0), 3.0),
               ((0.0, -1.0), 1.0), ((0.0, -1.0), 2.0), ((-1.0, -1.0), 5.0)],
              2, False)
# Found by hypothesis.  (1, 2) . x <= -1e-10 touches the polytope at the
# origin, and the solver, allowed 1e-7 of infeasibility, reaches 1e-8
# past it along (1, 2) . x <= 1e-8: the loop keeps the row, so a bound
# that merely meets the row's edge must not drop it.
OPEN_SYSTEM = ([((1.0, 2.0), 0.0), ((0.0, 1.0), 0.5), ((1.0, 1.0), 0.0),
                ((0.0, 1.0), 2.0), ((1.0, 2.0), -1e-10), ((0.0, 0.0), 0.0),
                ((-1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((0.0, 1.0), 1.0),
                ((1.0, 2.0), 1e-08)], 2, False)
# Found by searching corner cuts.  The first row cuts a vertex off at
# depth tol, so whether the loop keeps it rests on the last bits of its
# LP value.
CORNER_CUT = ([((-1.019, 3.666), 4.2314444434444445), ((1.0, 0.0), 4.5),
               ((-0.0, -1.0), 3.0), ((1.0, -1.0), 0.0), ((-3.0, 3.0), 2.5),
               ((-1.0, -0.0), 3.5), ((0.0, 1.0), 2.0), ((3.0, 1.0), 3.0),
               ((0.0, 1.0), 5.0), ((3.0, -2.0), 0.0), ((1.0, 2.0), 3.0),
               ((1.0, -2.0), 0.5), ((1.0, 1.0), 2.5), ((-2.0, -3.0), -3.0)],
              2, False)
# Found by hypothesis.  Slopes of 1e-8 and 1e-13 towards the open third
# coordinate: the solver reads (1, 1, 0) . x <= 0 as redundant, though
# x1 + x2 grows without bound along them.  That answer rests on the
# solver's tolerances, so it holds only for an LP of just the rows the
# loop still keeps.
TINY_SLOPES = ([((0.0, 1.0, -1.0), 0.0), ((-1.0, 0.0, 0.0), 0.0),
                ((0.0, 0.0, -1.0), 0.5), ((0.0, 0.0, -1.0), 1.0),
                ((1.0, 0.0, 0.0), 0.5), ((1.0, 1.0, 0.0), 0.0),
                ((0.0, 0.0, -1.0), 0.0), ((0.0, -1.0, -1.0), 0.0),
                ((0.0, -1.0, 0.0), 0.5), ((0.0, 0.0, -2.0), 0.5),
                ((0.0, 1.0, 0.0), 0.5), ((0.0, 1.0, -1e-13), 0.0),
                ((1.0, 0.0, -1e-08), 0.0)], 3, False)
# Found by hypothesis against a loop warm-started from the last basis.
# The last row cuts the vertex (-0.5, 4, 0, -0.5) off at depth tol, so
# its maximum over the others is its bound + tol to the last bit, and a
# solve from another basis lands on the other side of that edge.
EDGE_CUT = ([((0.0, -1.0, 0.0, 0.0), 0.0), ((0.0, 0.0, -1.0, 0.0), 0.0),
             ((-1.0, 0.0, 1.0, 1.0), 0.0), ((0.0, 0.0, 0.0, 1.0), 0.0),
             ((0.0, 0.0, 0.0, -1.0), 0.5), ((0.0, -1.0, 1.0, -1.0), 0.0),
             ((1.0, 0.0, 0.0, 0.0), 4.0), ((-1.0, 0.0, 0.0, 0.0), 4.0),
             ((0.0, 1.0, 0.0, 0.0), 4.0), ((0.0, -1.0, 0.0, 0.0), 4.0),
             ((0.0, 0.0, 1.0, 0.0), 4.0), ((0.0, 0.0, -1.0, 0.0), 4.0),
             ((0.0, 0.0, 0.0, 1.0), 4.0), ((0.0, 0.0, 0.0, -1.0), 4.0),
             ((-0.143, 0.143, 0.0, 0.0), 0.643499999)], 4, False)
# Found by a random search against a loop warm-started from the last
# basis.  x1 >= 0.5 and x1 <= 0.499999985 + 1e-8 x2 force x2 >= 1.5, so
# the third row is redundant, and its LP over the others finds the
# maximum -3.5.  A warm solve stopped near (0.5, -1.5), where x1 falls
# short of 0.5 by only 3e-8, inside the solver's 1e-7 tolerance, and
# read 2.5.
THIN_WEDGE = ([((-1.0, 0.0), -0.5), ((1.0, -1e-08), 0.499999985),
               ((-1.0, -2.0), -1.5), ((-2.0, -1.0), 0.5)], 2, False)
# Found by hypothesis.  x1 >= 0.5 / 0.999999 and x1 <= 0.5 + 1e-6 x2
# with x2 <= 0.5 leave the system empty by about 5e-13, inside the
# solver's tolerances.  The loop's LPs read infeasible and keep every
# row; a solve warm-started from the last basis read optimal instead.
NEAR_EMPTY = ([((0.0, 1.0), 0.5), ((0.0, 1.0), 1.0), ((-1.0, 0.0), -0.5),
               ((1.0, -1e-06), 0.5), ((-0.999999, 0.0), -0.5)], 2, False)
# A 1e-8 slope in the last row.  HiGHS scales over its whole matrix, so
# an LP that also holds the dropped rows, left free, answers here
# otherwise than one of just the rows still kept.
SLOPE_FREE_ROWS = ([((1.0, 0.0, 0.0), 0.0), ((0.0, 1.0, 0.0), 0.5),
                    ((1.0, 1.0, 0.0), 0.5), ((0.0, -1.0, 0.0), -0.5),
                    ((-1.0, 0.0, 0.0), 0.0), ((1.0, 1e-08, 0.0), 0.0)],
                   3, False)


class TestRemoveRedundant:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(redundancy_systems())
    @example(BEYOND_BOX)
    @example(OPEN_SYSTEM)
    @example(CORNER_CUT)
    @example(TINY_SLOPES)
    @example(EDGE_CUT)
    @example(THIN_WEDGE)
    @example(NEAR_EMPTY)
    @example(SLOPE_FREE_ROWS)
    def test_matches_sequential_loop(self, system):
        rows, dim, nonneg = system
        assert (outcome(_remove_redundant, rows, dim, nonneg)
                == outcome(reference_remove_redundant, rows, dim, nonneg))


def outcome(fn, *args):
    try:
        return fn(*args)
    except RegionError as e:
        return repr(e)
