import json
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
import sympy
import sympy.combinatorics

from aomoto_lab import linalg
from aomoto_lab.arrangement import (
    AffineForm, WeightedArrangement, arrangement_from_json,
    arrangement_to_json, color_group, intersection_lattice, os_dimension,
    permute_form,
)
from aomoto_lab.exactfield import RatFuncKappa
from aomoto_lab.flags import enumerate_flags, flag_of_tuple
from aomoto_lab.svmap import build_arrangement
from arrangements import (
    ACCEPTANCE_POINTS, corpus, crossing_lines, random_m3, sl2_four_point,
    triple_concurrent, two_points,
)
from oracles import naive_rref, proportional

F = Fraction


def brute_force_edge_counts(arr):
    """Independent lattice census: intersect every hyperplane subset via sympy.

    An edge is a nonempty intersection; its canonical key is the rref of
    the augmented system (the row space of all equations it satisfies is
    determined by the affine subspace, so rref keys dedupe exactly).
    """
    M = arr.dimension
    seen = {}
    for p in range(1, M + 1):
        for subset in combinations(range(arr.size), p):
            rows = []
            for i in subset:
                f = arr.forms[i]
                rows.append([sympy.Rational(g) for g in f.gradient]
                            + [sympy.Rational(f.constant)])
            aug = sympy.Matrix(rows)
            coeff = aug[:, :M]
            # inconsistent system = empty intersection
            if coeff.rank() != aug.rank():
                continue
            codim = coeff.rank()
            key = tuple(sympy.Matrix(aug).rref()[0])
            seen.setdefault(codim, set()).add(key)
    return {codim: len(keys) for codim, keys in seen.items()}


def augmented_row(form):
    """The row [gradient | -constant] of the form's equation, unscaled."""
    return [*form.gradient, -form.constant]


def naive_key(rows):
    """Key of the augmented system by textbook elimination; None when empty."""
    red, pivots = naive_rref(rows)
    if pivots and pivots[-1] == len(rows[0]) - 1:
        return None
    return tuple(tuple(row) for row in red)


def lattice_edge_counts(lattice, M):
    return {
        p: len(lattice.by_codim(p))
        for p in range(1, M + 1)
        if lattice.by_codim(p)
    }


def test_two_points_lattice():
    lattice = intersection_lattice(two_points())
    assert len(lattice.by_codim(0)) == 1
    assert len(lattice.by_codim(1)) == 2


def test_crossing_lines_lattice():
    lattice = intersection_lattice(crossing_lines())
    assert len(lattice.by_codim(1)) == 2
    assert len(lattice.by_codim(2)) == 1


def test_lattice_matches_brute_force_on_corpus():
    for arr in corpus():
        lattice = intersection_lattice(arr)
        assert lattice_edge_counts(lattice, arr.dimension) == \
            brute_force_edge_counts(arr), arr


def test_lattice_is_graded_and_transitive():
    for arr in corpus():
        lattice = intersection_lattice(arr)
        n = len(lattice.edges)
        for i in range(n):
            for j in range(n):
                if lattice.contains(i, j) and i != j:
                    assert lattice.edges[i].codim <= lattice.edges[j].codim
                for k in range(n):
                    if lattice.contains(i, j) and lattice.contains(j, k):
                        assert lattice.contains(i, k)


def _reference_defining(arr, key):
    """Forms vanishing at the edge's basis point and along its directions."""
    M = arr.dimension
    point = [F(0)] * M
    for row in key:
        pivot = next(c for c in range(M) if row[c] != 0)
        point[pivot] = row[M]
    directions = linalg.nullspace([row[:M] for row in key], M)
    return frozenset(
        i for i, f in enumerate(arr.forms)
        if f.evaluate(point) == 0
        and all(sum(g * d for g, d in zip(f.gradient, v)) == 0 for v in directions)
    )


def _lattice_cases():
    extra = AffineForm(F(-5), (F(1), F(1)))  # t1 + t2 = 5
    base = build_arrangement([2, 1, 1], list(ACCEPTANCE_POINTS[:3]))
    return [
        *corpus(),
        build_arrangement([2, 1, 1, 2], list(ACCEPTANCE_POINTS), kappa=7),
        build_arrangement([1] * 6, [F(k) for k in range(6)], kappa=7),
        WeightedArrangement(base.dimension, (extra,) + base.forms,
                            [F(0)] + list(base.weights), coloring=base.coloring),
    ]


@pytest.mark.parametrize("case", range(len(_lattice_cases())))
def test_lattice_meets_and_defining_sets_match_direct_elimination(case):
    # every recorded fact is rebuilt here from the edge keys alone:
    # defining sets by the containment test at a basis point and along a
    # nullspace basis, meets by row-reducing [edge key; form]
    arr = _lattice_cases()[case]
    lattice = intersection_lattice(arr)
    edges = lattice.edges
    assert edges[0].key == () and edges[0].codim == 0
    index = {e.key: k for k, e in enumerate(edges)}
    assert len(index) == len(edges)
    for p in range(arr.dimension + 1):
        level = lattice.by_codim(p)
        assert [edges[k].codim for k in level] == [p] * len(level)
        assert [edges[k].key for k in level] == sorted(edges[k].key for k in level)
    assert sum(len(lattice.by_codim(p)) for p in range(arr.dimension + 1)) == len(edges)
    defining = [_reference_defining(arr, e.key) for e in edges]
    assert [e.defining for e in edges] == defining
    meets = {}
    for k, edge in enumerate(edges):
        assert len(edge.key) == edge.codim
        for i, f in enumerate(arr.forms):
            key = naive_key([list(r) for r in edge.key] + [augmented_row(f)])
            want = None
            if key is not None and len(key) == edge.codim + 1:
                want = index[key]  # every proper meet is an edge
            meets[k, i] = want
            assert lattice.meet(k, i) == want, (k, i)
    # Mobius values from the reference defining sets
    mu = {}
    for k in sorted(range(len(edges)), key=lambda k: edges[k].codim):
        mu[k] = 1 if k == 0 else -sum(
            mu[j] for j in mu if defining[j] < defining[k])
    assert lattice.mobius() == mu
    # flags: walk the reference meets for every ordered hyperplane tuple
    for p in range(1, arr.dimension + 1):
        walked = set()
        for tup in permutations(range(arr.size), p):
            want = (0,)
            for i in tup:
                nxt = meets[want[-1], i]
                if nxt is None:
                    want = None
                    break
                want += (nxt,)
            assert flag_of_tuple(lattice, tup) == want, tup
            if want is not None:
                walked.add(want)
        assert enumerate_flags(lattice, p) == sorted(walked)


def _random_arrangement(rng, dimension, size, symbolic):
    forms = []
    while len(forms) < size:
        gradient = tuple(F(rng.randint(-3, 3), rng.randint(1, 2))
                         for _ in range(dimension))
        if not any(gradient):
            continue
        form = AffineForm(F(rng.randint(-4, 4), rng.randint(1, 3)), gradient)
        if not any(form.key == f.key for f in forms):
            forms.append(form)
    weights = [F(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
               for _ in forms]
    if symbolic:
        weights = [w / RatFuncKappa.kappa() for w in weights]
    return WeightedArrangement(dimension, forms, weights)


def _lattice_record(lattice, arr):
    edges = [(e.codim, e.key, [type(v) for row in e.key for v in row],
              e.defining) for e in lattice.edges]
    levels = [lattice.by_codim(p) for p in range(arr.dimension + 1)]
    meets = [lattice.meet(k, i)
             for k in range(len(lattice.edges)) for i in range(arr.size)]
    return edges, levels, meets


def _reference_record(arr):
    """The record of _lattice_record, by textbook elimination alone.

    Each level holds the keys of every proper meet of an edge one level
    up with a hyperplane, sorted; a hyperplane contains an edge when it
    adds nothing to the edge's system.
    """
    rows = [augmented_row(f) for f in arr.forms]
    keys, meets = [()], {}
    levels = [(0,)]
    for p in range(1, arr.dimension + 1):
        found = set()
        for k in levels[-1]:
            for i, row in enumerate(rows):
                key = naive_key([list(r) for r in keys[k]] + [row])
                if key is not None and len(key) == p:
                    found.add(key)
                    meets[keys[k], i] = key
        levels.append(tuple(range(len(keys), len(keys) + len(found))))
        keys += sorted(found)
    index = {key: k for k, key in enumerate(keys)}
    edges = [(len(key), key, [type(v) for row in key for v in row],
              frozenset(i for i, row in enumerate(rows)
                        if len(naive_rref([*key, row])[0]) == len(key)))
             for key in keys]
    return edges, levels, [index.get(meets.get((key, i))) for key in keys
                           for i in range(arr.size)]


def test_lattice_matches_reference_on_random_arrangements():
    # every edge, key entry type, defining set, level and meet must agree
    # with textbook elimination, for rational and symbolic weights
    rng = random.Random(1523)
    cases = [*corpus(), build_arrangement([1, 1, 1, 1], list(ACCEPTANCE_POINTS))]
    for dimension, size in ((2, 5), (2, 7), (3, 6), (3, 7)):
        for symbolic in (False, True):
            cases.append(_random_arrangement(rng, dimension, size, symbolic))
    assert any(isinstance(arr.weights[0], RatFuncKappa) for arr in cases)
    for arr in cases:
        record = _lattice_record(intersection_lattice(arr), arr)
        assert record == _reference_record(arr), arr


def test_defining_sets_are_saturated():
    # the triple point of three concurrent lines must list all three lines
    lattice = intersection_lattice(triple_concurrent())
    (origin,) = [lattice.edges[i] for i in lattice.by_codim(2)]
    assert origin.defining == {0, 1, 2}


def is_general_position(arrangement, indices):
    """True iff the indexed hyperplanes meet in codimension exactly len(indices)."""
    indices = list(indices)
    if len(indices) > arrangement.dimension:
        return False
    rows = [augmented_row(arrangement.forms[i]) for i in indices]
    key = naive_key(rows)
    return key is not None and len(key) == len(indices)


def test_is_general_position():
    lines = crossing_lines()
    assert is_general_position(lines, {0, 1})
    assert not is_general_position(two_points(), {0, 1})
    assert not is_general_position(triple_concurrent(), {0, 1, 2})


def test_os_dimension_examples():
    two = intersection_lattice(two_points())
    assert os_dimension(two, 0) == 1
    assert os_dimension(two, 1) == 2
    cross = intersection_lattice(crossing_lines())
    assert os_dimension(cross, 2) == 1


def test_color_group_sizes():
    same = crossing_lines(weights=(F(2), F(2)), coloring=(0, 0))
    assert len(color_group(same)) == 2
    mixed = crossing_lines(weights=(F(2), F(3)), coloring=(0, 1))
    assert len(color_group(mixed)) == 1
    forms = [
        AffineForm(F(0), (F(1), F(0), F(0))),
        AffineForm(F(0), (F(0), F(1), F(0))),
        AffineForm(F(0), (F(0), F(0), F(1))),
    ]
    arr = WeightedArrangement(3, forms, [F(1), F(1), F(2)], coloring=(0, 0, 1))
    assert len(color_group(arr)) == 2


def test_color_group_permutes_forms_with_equal_weight():
    arr = sl2_four_point(kappa=7)
    group = color_group(arr)
    assert len(group) == 2
    for g in group:
        assert sorted(g.form_perm) == list(range(arr.size))
        for i, form in enumerate(arr.forms):
            j = g.form_perm[i]
            target = arr.forms[j]
            assert arr.weights[i] == arr.weights[j]
            moved = permute_form(form, g.perm)
            same = (target.constant, target.gradient)
            negated = (-target.constant, tuple(-c for c in target.gradient))
            assert (moved.constant, moved.gradient) in (same, negated)


def _two_colour_arrangement(coloring):
    """M=3 forms symmetric under swapping t_1 and t_2, and no other swap."""
    forms = [
        AffineForm(F(0), (F(1), F(0), F(0))),
        AffineForm(F(0), (F(0), F(1), F(0))),
        AffineForm(F(-1), (F(0), F(0), F(2))),
        AffineForm(F(0), (F(-1), F(1), F(0))),
        AffineForm(F(-1), (F(1), F(1), F(0))),
        AffineForm(F(3), (F(0), F(-3), F(3))),
        AffineForm(F(-1), (F(1), F(0), F(-1))),
    ]
    return WeightedArrangement(3, forms, [F(1)] * len(forms), coloring=coloring)


def _brute_force_group(arr):
    """(perm, sign, form_perm) of every colour-preserving coordinate
    permutation, by a ratio search over all pairs of forms; None when one
    does not map the forms onto themselves."""
    M, colors = arr.dimension, arr.coloring
    out = []
    for perm in permutations(range(M)):
        if any(colors[perm[b]] != colors[b] for b in range(M)):
            continue
        sign = sympy.combinatorics.Permutation(list(perm)).signature()
        form_perm = []
        for f in arr.forms:
            moved = permute_form(f, perm)
            found = [j for j, g in enumerate(arr.forms) if proportional(moved, g)]
            if len(found) != 1:
                return None
            form_perm.append(found[0])
        out.append((perm, sign, tuple(form_perm)))
    return out


@pytest.mark.parametrize("case", ["four doublets", "2112", "six doublets",
                                  "two colours", "one colour"])
def test_color_group_matches_brute_force(case):
    arr = {
        "four doublets": lambda: sl2_four_point(kappa=7),
        "2112": lambda: build_arrangement([2, 1, 1, 2], list(ACCEPTANCE_POINTS)),
        "six doublets": lambda: build_arrangement([1] * 6, [F(k) for k in range(6)]),
        "two colours": lambda: _two_colour_arrangement((0, 0, 1)),
        "one colour": lambda: _two_colour_arrangement((0, 0, 0)),
    }[case]()
    want = _brute_force_group(arr)
    if want is None:
        with pytest.raises(ValueError, match="does not preserve form"):
            color_group(arr)
        return
    got = [(g.perm, g.sign, g.form_perm) for g in color_group(arr)]
    assert got == want
    assert len(got) == {"four doublets": 2, "2112": 6, "six doublets": 6,
                        "two colours": 2}[case]


def test_form_keys_decide_proportionality():
    # scaled and negated copies, forms sharing a gradient or a constant,
    # and unrelated forms: two keys are equal iff the ratio test says the
    # forms are proportional
    rng = random.Random(2817)
    forms = []
    for dimension in (1, 2, 3):
        base = []
        while len(base) < 6:
            gradient = tuple(F(rng.randint(-2, 2)) for _ in range(dimension))
            if any(gradient):
                base.append(AffineForm(F(rng.randint(-2, 2)), gradient))
        for f in base:
            c = F(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
            forms += [f, AffineForm(c * f.constant, tuple(c * g for g in f.gradient)),
                      AffineForm(-f.constant, tuple(-g for g in f.gradient)),
                      AffineForm(f.constant + 1, f.gradient),
                      AffineForm(-f.constant, f.gradient)]
    same = 0
    for f in forms:
        assert next(v for v in f.key if v) == 1
        for g in forms:
            if len(f.gradient) == len(g.gradient):
                assert (f.key == g.key) == proportional(f, g), (f, g)
                same += f.key == g.key and f != g
    assert same > 100


def test_codim_one_keys_are_the_form_keys():
    for arr in _lattice_cases():
        lattice = intersection_lattice(arr)
        assert [lattice.edges[k].key for k in lattice.by_codim(1)] == \
            sorted((f.key,) for f in arr.forms)
        assert arr.index == {f.key: i for i, f in enumerate(arr.forms)}


def test_duplicate_form_error_names_the_pair():
    forms = [AffineForm(F(0), (F(1), F(0))), AffineForm(F(-1), (F(0), F(1))),
             AffineForm(F(-1), (F(1), F(1))), AffineForm(F(3), (F(0), F(-3)))]
    with pytest.raises(ValueError,
                       match="forms 1 and 3 cut out the same hyperplane"):
        WeightedArrangement(2, forms, [F(1)] * 4)


def test_rejects_proportional_forms():
    with pytest.raises(ValueError):
        WeightedArrangement(
            1,
            [AffineForm(F(-1), (F(1),)), AffineForm(F(-2), (F(2),))],
            [F(1), F(1)],
        )


def test_json_round_trip_fraction_weights():
    for arr in (two_points(), random_m3()):
        back = arrangement_from_json(
            json.loads(json.dumps(arrangement_to_json(arr)))
        )
        assert back.dimension == arr.dimension
        assert back.forms == arr.forms
        assert back.weights == arr.weights
        assert back.coloring == arr.coloring


def test_json_round_trip_symbolic_weights():
    arr = build_arrangement([1, 1, 1, 1], [0, 1, 3, 7])
    assert isinstance(arr.weights[0], RatFuncKappa)
    back = arrangement_from_json(arrangement_to_json(arr))
    assert back.weights == arr.weights
    assert back.coloring == arr.coloring
