import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from aomoto_lab import linalg
from aomoto_lab.aomoto import (
    AomotoComplex, AomotoSpace, _chi_apply, _chi_columns, chi_fixed_dim, chi_projector,
    dual_functional_space, insertion_sign, monomials,
    shapovalov_image, weight_product,
)
from aomoto_lab.arrangement import (
    AffineForm, WeightedArrangement, color_group, intersection_lattice,
    os_dimension, perm_sign,
)
from aomoto_lab.exactfield import RatFuncKappa
from aomoto_lab.svmap import build_arrangement
from arrangements import corpus, crossing_lines, sl2_four_point, two_points
from oracles import pairing_matrix

F = Fraction


def differential(arrangement, p, vector):
    """Left wedge with eta on monomial coefficients, degree p -> p + 1.

    Dense, over all monomials; AomotoComplex.differential_matrix builds
    its columns from normal forms instead, and the tests compare the two.
    Refuses top-degree input: the complex ends at the dimension.
    """
    if p >= arrangement.dimension:
        raise ValueError("differential is undefined in top degree")
    if len(vector) != len(monomials(arrangement.size, p)):
        raise ValueError(f"expected {len(monomials(arrangement.size, p))} coefficients")
    out_monomials = monomials(arrangement.size, p + 1)
    out_index = {m: k for k, m in enumerate(out_monomials)}
    out = [arrangement.zero] * len(out_monomials)
    for subset, c in zip(monomials(arrangement.size, p), vector):
        if c == 0:
            continue
        for j in range(arrangement.size):
            if j in subset:
                continue
            target = tuple(sorted(subset + (j,)))
            out[out_index[target]] = out[out_index[target]] + (
                arrangement.weights[j] * c * insertion_sign(subset, j)
            )
    return out


def test_differential_of_one_is_eta():
    arr = two_points()
    out = differential(arr, 0, [F(1)])
    assert out == [F(1, 2), F(1, 3)]


def test_differential_insertion_signs():
    arr = crossing_lines()
    out = differential(arr, 1, [F(1), F(0)])
    # left wedge: eta ^ dlog f_1 = a_2 dlog f_2 ^ dlog f_1 = -a_2 e_{12}
    assert out == [F(-3)]
    assert differential(arr, 1, [F(0), F(1)]) == [F(2)]
    assert insertion_sign((1,), 0) == 1
    assert insertion_sign((0,), 1) == -1


def test_differential_refuses_top_degree():
    arr = two_points()
    with pytest.raises(ValueError):
        differential(arr, 1, [F(1), F(0)])


def test_pairing_matrix_examples():
    two = two_points()
    lat = intersection_lattice(two)
    assert linalg.rank(pairing_matrix(two, lat, 1)) == 2
    assert pairing_matrix(two, lat, 0) == [[F(1)]]
    cross = crossing_lines()
    assert linalg.rank(pairing_matrix(cross, intersection_lattice(cross), 2)) == 1


def test_d_after_d_vanishes_in_the_quotient():
    for arr in corpus():
        lattice = intersection_lattice(arr)
        cx = AomotoComplex(arr, lattice)
        for p in range(arr.dimension - 1):
            first = cx.differential_matrix(p)
            second = cx.differential_matrix(p + 1)
            composite = linalg.matmul(second, first) if first and second else []
            for row in composite:
                assert all(v == 0 for v in row), (arr, p)


def test_mobius_dimension_equals_pairing_rank_everywhere():
    for arr in corpus():
        lattice = intersection_lattice(arr)
        for p in range(arr.dimension + 1):
            space = AomotoSpace(arr, lattice, p)
            assert space.dim == os_dimension(lattice, p), (arr, p)


def brute_force_cohomology(arr, p):
    """Independent H^p computation with sympy ranks on the quotient bases."""
    lattice = intersection_lattice(arr)
    cx = AomotoComplex(arr, lattice)

    def sym_rank(matrix):
        if not matrix or not matrix[0]:
            return 0
        return sympy.Matrix(
            [[sympy.Rational(v) for v in row] for row in matrix]
        ).rank()

    rank_in = sym_rank(cx.differential_matrix(p - 1)) if p > 0 else 0
    if p == arr.dimension:
        return cx.space(p).dim - rank_in
    rank_out = sym_rank(cx.differential_matrix(p))
    return cx.space(p).dim - rank_out - rank_in


def pairing_kernel_rref(arr, lattice, p):
    """rref(nullspace(transpose(pairing_matrix))) by sympy over QQ.

    The relations of degree p are the monomial combinations every flag
    functional kills; this is the elimination AomotoSpace no longer runs.
    """
    pairing = pairing_matrix(arr, lattice, p)
    shape = (len(pairing), len(pairing[0]))
    P = DomainMatrix([[_qq(v) for v in row] for row in pairing], shape, QQ)
    kernel = P.transpose().nullspace()
    if not kernel.shape[0]:
        return [], []
    R, pivots = kernel.rref()
    R = R.to_list()[:len(pivots)]
    return ([[F(int(v.numerator), int(v.denominator)) for v in row] for row in R],
            list(pivots))


def relation_rows(space):
    """The relations e_S - NF(S), one dense row per non-free S."""
    rows = []
    for k in space.kernel_pivots:
        row = [F(0)] * len(space.monomials)
        row[k] = F(1)
        for col, v in space.normal_forms[k].items():
            row[col] = F(-v)
        rows.append(row)
    return rows


def with_parallel_line():
    """[2,1,1] plus t1 - t2 = 1, parallel to the diagonal: a pair that never meets."""
    base = build_arrangement([2, 1, 1], [F(-1, 2), F(0), F(1, 2)], kappa=7)
    line = AffineForm(F(-1), (F(1), F(-1)))
    return WeightedArrangement(base.dimension, (*base.forms, line),
                               (*base.weights, F(1, 3)), coloring=base.coloring)


def relation_cases():
    points = [F(-1, 2), F(0), F(1, 2), F(1), F(3, 2), F(2)]
    cases = {"-".join(map(str, w)): build_arrangement(w, points[:len(w)], kappa=7)
             for w in ([1, 1, 1, 1], [2, 1, 1], [2, 2], [2, 1, 1, 2])}
    cases.update({f"corpus{k}": arr for k, arr in enumerate(corpus())})
    cases["parallel-line"] = with_parallel_line()
    return cases


@pytest.mark.parametrize("name", [*relation_cases(), "six-doublets"])
def test_relation_kernel_is_the_rref_of_the_pairing_nullspace(name):
    # the relations straightened from the lattice against the flag
    # pairing: its kernel, row-reduced, by an elimination they never run
    if name == "six-doublets":
        arr = build_arrangement([1] * 6, [F(k, 2) for k in range(-1, 5)], kappa=7)
    else:
        arr = relation_cases()[name]
    lattice = intersection_lattice(arr)
    rng = random.Random(arr.size)
    for p in range(arr.dimension + 1):
        space = AomotoSpace(arr, lattice, p)
        rows, pivots = pairing_kernel_rref(arr, lattice, p)
        assert space.kernel_pivots == pivots, p
        assert relation_rows(space) == rows, p
        assert space.dim == os_dimension(lattice, p), p
        n = len(space.monomials)
        assert space.free == [k for k in range(n) if k not in set(pivots)]
        for _ in range(2):
            vec = [F(rng.randint(-3, 3)) for _ in range(n)]
            assert space.reduce(vec) == linalg.reduce_mod_rowspace(vec, rows, pivots)


@pytest.mark.parametrize("name", [*relation_cases(), "symbolic-2-1-1"])
def test_differential_matrix_is_the_dense_differential_in_coords(name):
    arr = (symbolic_three_point() if name == "symbolic-2-1-1"
           else relation_cases()[name])
    cx = AomotoComplex(arr, intersection_lattice(arr))
    for p in range(arr.dimension):
        src, dst = cx.space(p), cx.space(p + 1)
        matrix = cx.differential_matrix(p)
        assert len(matrix) == dst.dim
        for col, k in enumerate(src.free):
            unit = [arr.zero] * len(src.monomials)
            unit[k] = arr.zero + 1
            want = dst.coords(differential(arr, p, unit))
            got = [row[col] for row in matrix]
            # compared with the types: a Fraction serializes unlike a
            # RatFuncKappa of the same value
            assert [(type(v), v) for v in got] == [(type(v), v) for v in want], (p, k)


def test_two_point_cohomology_generic_and_degenerate():
    generic = two_points()
    lattice = intersection_lattice(generic)
    assert AomotoComplex(generic, lattice).cohomology_dim(0) == brute_force_cohomology(generic, 0) == 0
    assert AomotoComplex(generic, lattice).cohomology_dim(1) == brute_force_cohomology(generic, 1) == 1
    skew = two_points(weights=(F(1), F(-1)))
    lattice = intersection_lattice(skew)
    assert AomotoComplex(skew, lattice).cohomology_dim(0) == brute_force_cohomology(skew, 0)
    assert AomotoComplex(skew, lattice).cohomology_dim(1) == brute_force_cohomology(skew, 1)


def test_sl2_euler_characteristic():
    arr = sl2_four_point(kappa=7)
    lattice = intersection_lattice(arr)
    cx = AomotoComplex(arr, lattice)
    euler_h = sum((-1) ** p * cx.cohomology_dim(p) for p in range(3))
    euler_a = sum((-1) ** p * cx.space(p).dim for p in range(3))
    assert euler_h == euler_a


def test_chi_projector_idempotent_and_hand_value():
    arr = sl2_four_point(kappa=7)
    for p in (1, 2):
        P = chi_projector(arr, p)
        assert linalg.matmul(P, P) == P
    P = chi_projector(arr, 2)
    mons = monomials(arr.size, 2)
    # the monomial on (t1-z1) and (t2-z1): the swap sends it to its own
    # reversal, the wedge reorder gives -1, the sign character gives -1
    k = mons.index((0, 4))
    unit = [F(0)] * len(mons)
    unit[k] = F(1)
    assert linalg.matvec(P, unit) == unit


def test_chi_projector_trivial_group_is_identity():
    arr = crossing_lines(weights=(F(2), F(3)), coloring=(0, 1))
    P = chi_projector(arr, 1)
    assert P == [[F(1), F(0)], [F(0), F(1)]]


def test_diagonal_map_commutes_with_signed_permutations():
    from aomoto_lab.arrangement import color_group, perm_sign

    arr = sl2_four_point(kappa=7)
    M = arr.dimension
    mons = monomials(arr.size, M)
    index = {m: k for k, m in enumerate(mons)}
    diag = [weight_product(arr, subset) for subset in mons]
    for g in color_group(arr):
        rho = [[F(0)] * len(mons) for _ in range(len(mons))]
        for col, subset in enumerate(mons):
            moved = [g.form_perm[i] for i in subset]
            order = tuple(sorted(range(len(moved)), key=lambda s: moved[s]))
            rho[index[tuple(sorted(moved))]][col] = F(perm_sign(order))
        left = [[rho[r][c] * diag[c] for c in range(len(mons))] for r in range(len(mons))]
        right = [[diag[r] * rho[r][c] for c in range(len(mons))] for r in range(len(mons))]
        assert left == right


def top_quotient(arr):
    return AomotoComplex(arr, intersection_lattice(arr)).top_quotient()


def test_shapovalov_image_two_points():
    arr = two_points(weights=(F(1, 7), F(1, 7)))
    quotient = top_quotient(arr)
    rank, basis = shapovalov_image(quotient)
    assert rank == 1 and len(basis) == 1
    taus = dual_functional_space(quotient)
    assert len(taus) == 1
    tau = taus[0]
    # the functional kills eta = (e1 + e2)/7, so tau is proportional to (1, -1)
    assert tau[0] == -tau[1] != 0
    raw = [F(1, 7) * tau[0], F(1, 7) * tau[1]]
    assert quotient.coords(raw) == quotient.coords(list(basis[0].rep))
    assert any(c != 0 for c in quotient.coords(raw))


def image_arrangements():
    """Rational and symbolic-kappa arrangements, each with and without chi."""
    symbolic = build_arrangement([2, 1, 1], [F(-1, 2), F(0), F(1)])
    for arr in (sl2_four_point(kappa=7), symbolic):
        for use_chi in (False, True):
            yield arr, use_chi


def test_dual_functional_space_is_the_canonical_annihilator():
    for arr, _ in image_arrangements():
        quotient = top_quotient(arr)
        M = arr.dimension
        below = monomials(arr.size, M - 1)
        constraints, _ = pairing_kernel_rref(arr, intersection_lattice(arr), M)
        for k in range(len(below)):
            unit = [F(0)] * len(below)
            unit[k] = F(1)
            constraints.append(differential(arr, M - 1, unit))
        taus = dual_functional_space(quotient)
        assert len(taus) == quotient.dim
        for fc, tau in zip(quotient.free, taus):
            assert [tau[c] for c in quotient.free] == [F(c == fc) for c in quotient.free]
            for row in constraints:
                assert sum((a * b for a, b in zip(row, tau)), F(0)) == 0
        assert taus == linalg.nullspace(constraints, len(quotient.space.monomials))


def test_shapovalov_image_matches_greedy_rank_selection():
    for arr, use_chi in image_arrangements():
        quotient = top_quotient(arr)
        M = arr.dimension
        mons = monomials(arr.size, M)
        diag = [weight_product(arr, subset) for subset in mons]
        P = chi_projector(arr, M) if use_chi else None
        kept = []
        for tau in dual_functional_space(quotient):
            if P is not None:
                tau = [sum((P[r][c] * tau[r] for r in range(len(mons))), F(0))
                       for c in range(len(mons))]
            s = [d * t for d, t in zip(diag, tau)]
            if P is not None:
                s = [sum((a * b for a, b in zip(row, s)), F(0)) for row in P]
            red = quotient.reduce(s)
            if linalg.rank(kept + [red]) > len(kept):
                kept.append(red)
        rank, basis = shapovalov_image(quotient, use_chi=use_chi)
        assert rank == len(kept) == len(basis)
        assert [list(cls.rep) for cls in basis] == kept


def test_shapovalov_image_chi_rank_two_for_both_kappas():
    for kappa in (3, 7):
        arr = sl2_four_point(kappa=kappa)
        rank, _ = shapovalov_image(top_quotient(arr), use_chi=True)
        assert rank == 2


def test_image_classes_are_chi_isotypic():
    arr = sl2_four_point(kappa=7)
    quotient = top_quotient(arr)
    _, basis = shapovalov_image(quotient, use_chi=True)
    P = chi_projector(arr, arr.dimension)
    for cls in basis:
        projected = linalg.matvec(P, list(cls.rep))
        assert quotient.coords(projected) == quotient.coords(list(cls.rep))


def image_span_in_quotient(arr):
    quotient = top_quotient(arr)
    rank, basis = shapovalov_image(quotient, use_chi=True)
    rows = [quotient.coords(list(cls.rep)) for cls in basis]
    rref_rows, _ = linalg.rref(rows)
    return rank, quotient.free, rref_rows


def test_image_invariant_under_weight_rescaling():
    base = sl2_four_point(kappa=7)
    rank0, free0, span0 = image_span_in_quotient(base)
    assert rank0 == 2
    for factor in (F(2), F(-5)):
        scaled = type(base)(
            base.dimension,
            base.forms,
            [factor * w for w in base.weights],
            coloring=base.coloring,
        )
        rank, free, span = image_span_in_quotient(scaled)
        assert rank == rank0
        assert free == free0
        assert span == span0


def test_top_quotient_dim_matches_cohomology():
    for arr in corpus():
        lattice = intersection_lattice(arr)
        quotient = AomotoComplex(arr, lattice).top_quotient()
        assert quotient.dim == AomotoComplex(arr, lattice).cohomology_dim(arr.dimension)


def test_chi_fixed_top_dimension():
    assert chi_fixed_dim(top_quotient(sl2_four_point(kappa=7))) == 6


# ---------------------------------------------------------------------------
# the quotient-coordinate top quotient against references built without it


def three_variable(kappa=7):
    """Weights [2,1,1,2]: 15 hyperplanes in three variables."""
    return build_arrangement([2, 1, 1, 2],
                             [F(-1, 2), F(0), F(1, 2), F(1)], kappa=kappa)


def symbolic_three_point():
    return build_arrangement([2, 1, 1], [F(-1, 2), F(0), F(1)])


def image_rows_of_every_monomial(arr):
    """eta ^ e_J for every degree M-1 monomial J, on top monomials."""
    below = monomials(arr.size, arr.dimension - 1)
    rows = []
    for k in range(len(below)):
        unit = [F(0)] * len(below)
        unit[k] = F(1)
        rows.append(differential(arr, arr.dimension - 1, unit))
    return rows


def _qq(x):
    return QQ(x.numerator, x.denominator)


def reference_top_rref(arr):
    """Reduced echelon form of relations plus image over all top monomials.

    Rational weights: the relations are the left kernel of the flag
    pairing and everything is reduced by sympy over QQ.  Symbolic weights:
    the relation rows of AomotoSpace and the image rows are stacked into
    one matrix for linalg.rref.
    """
    lattice = intersection_lattice(arr)
    M = arr.dimension
    image = image_rows_of_every_monomial(arr)
    if any(isinstance(w, RatFuncKappa) for w in arr.weights):
        relations = relation_rows(AomotoSpace(arr, lattice, M))
        return linalg.rref(relations + image)
    pairing = pairing_matrix(arr, lattice, M)
    shape = (len(pairing), len(pairing[0]))
    P = DomainMatrix([[_qq(v) for v in row] for row in pairing], shape, QQ)
    relations = P.transpose().nullspace().to_list()
    rows = relations + [[_qq(v) for v in row] for row in image]
    R, pivots = DomainMatrix(rows, (len(rows), shape[0]), QQ).rref()
    R = R.to_list()[:len(pivots)]
    return ([[F(int(v.numerator), int(v.denominator)) for v in row] for row in R],
            list(pivots))


def quotient_arrangements():
    return corpus() + [symbolic_three_point(), three_variable()]


def test_top_quotient_matches_relations_plus_image_reference():
    for arr in quotient_arrangements():
        cx = AomotoComplex(arr, intersection_lattice(arr))
        quotient = cx.top_quotient()
        rows, pivots = reference_top_rref(arr)
        n = len(quotient.space.monomials)
        assert quotient.free == [k for k in range(n) if k not in set(pivots)]
        assert quotient.dim == n - len(pivots)
        assert cx.top_quotient() is quotient
        below = cx.differential_matrix(arr.dimension - 1)
        assert len(quotient.image_pivots) == linalg.rank(below)
        # normal form, then the image in nbc coordinates, equals reduction
        # modulo the whole echelon form
        rng = random.Random(arr.size)
        for _ in range(3):
            vec = [arr.weights[0] * rng.randint(-3, 3) for _ in range(n)]
            assert quotient.reduce(vec) == linalg.reduce_mod_rowspace(vec, rows, pivots)


def dense_chi_reference(arrangement, p):
    """The sign-isotypic projector accumulated entry by entry, densely."""
    group = color_group(arrangement)
    mons = monomials(arrangement.size, p)
    index = {m: k for k, m in enumerate(mons)}
    P = [[F(0)] * len(mons) for _ in mons]
    for g in group:
        for col, subset in enumerate(mons):
            moved = [g.form_perm[i] for i in subset]
            order = tuple(sorted(range(len(moved)), key=lambda s: moved[s]))
            P[index[tuple(sorted(moved))]][col] += (
                F(g.sign * perm_sign(order), len(group))
            )
    return P


def test_sparse_sign_action_matches_the_dense_projector():
    for arr in (sl2_four_point(kappa=7), symbolic_three_point(),
                three_variable()):
        M = arr.dimension
        P = dense_chi_reference(arr, M)
        assert chi_projector(arr, M) == P
        columns = _chi_columns(arr, M)
        group_size = len(color_group(arr))
        assert all(len(entries) <= group_size for entries in columns)
        # symmetric, so the same sparse action serves tau and its image
        assert [list(row) for row in zip(*P)] == P
        n = len(P)
        rng = random.Random(n)
        vectors = [[arr.weights[0] * F(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(n)] for _ in range(2)]
        if n <= 40:
            vectors += [[arr.weights[0] * (k == j) for j in range(n)]
                        for k in range(n)]
        for vec in vectors:
            assert _chi_apply(columns, vec) == linalg.matvec(P, vec)


def test_chi_fixed_dim_matches_the_dense_projector_rank():
    for arr in (sl2_four_point(kappa=7), symbolic_three_point()):
        quotient = top_quotient(arr)
        P = dense_chi_reference(arr, arr.dimension)
        cols = [quotient.coords([row[k] for row in P]) for k in quotient.free]
        assert chi_fixed_dim(quotient) == linalg.rank(cols)
