"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every test evaluates its checks, prints a single summary line to the
real stdout (bypassing capture so the line is visible in any run mode),
and then asserts.  Exact checks compare rational numbers with zero
tolerance; floating checks state their tolerance inline.  Each criterion
also carries a wall-clock budget that is enforced as part of the pass.
"""

import time
from fractions import Fraction

import mpmath

from aomoto_lab import linalg
from aomoto_lab.aomoto import (
    AomotoComplex,
    AomotoSpace,
    monomials,
    shapovalov_image,
    weight_product,
)
from aomoto_lab.arrangement import (
    WeightedArrangement,
    color_group,
    intersection_lattice,
    os_dimension,
    perm_sign,
)
from aomoto_lab.cli import _kz_flat_samples
from aomoto_lab.flags import enumerate_flags, phi
from aomoto_lab.kz import (
    KzSystem,
    casimir_matrices,
    eigenvalues_2x2,
    flat_section_residual,
    hyp2f1,
    pochhammer_monodromy,
    simple_loop_monodromy,
)
from aomoto_lab.liealg import conformal_block_dim
from aomoto_lab.logforms import (
    coordinate_functions,
    expand_top_form,
    grundlegend_control,
    monomial_value,
    verify_grundlegend,
)
from aomoto_lab.svmap import egregium_check
from arrangements import (
    ACCEPTANCE_POINTS,
    corpus,
    crossing_lines,
    random_m3,
    sl2_four_point,
    two_points,
)
from oracles import (
    contravariant_form,
    diagonalizability_report,
    flag_relations,
    pairing_matrix,
)

from itertools import combinations, permutations

F = Fraction


def _conclude(number, name, budget, started, failures, record_property):
    elapsed = time.monotonic() - started
    if elapsed >= budget:
        failures.append(
            f"runtime {elapsed:.2f}s exceeded the {budget:.0f}s budget"
        )
    ok = not failures
    line = (
        f"acceptance {number} {name}: {'PASS' if ok else 'FAIL'} "
        f"({elapsed:.2f}s, budget {budget:.0f}s)"
    )
    print(line)
    record_property("acceptance", line)
    assert ok, f"criterion {number} ({name}): " + "; ".join(failures)


def test_criterion_1_invariants_match_both_realizations(record_property):
    # four sl2 doublets at (-1/2, 0, 1/2, 1), kappa in {3, 7}: the space
    # of tensor invariants (dim 2), the span of the rational top-form
    # classes, and the sign-projected weight-diagonal image must all have
    # rank 2 and the two subspaces of top cohomology must coincide
    # exactly (rational arithmetic, zero tolerance)
    started = time.monotonic()
    failures = []
    expected = {
        "invariants_dim": 2,
        "sv_rank": 2,
        "image_rank": 2,
        "subspaces_equal": True,
        "match": True,
    }
    for kappa in (3, 7):
        report = egregium_check([1, 1, 1, 1], ACCEPTANCE_POINTS, kappa)
        if report != expected:
            failures.append(f"kappa={kappa}: got {report}")
    _conclude(1, "invariants match both cohomology realizations", 10.0,
              started, failures, record_property)


def _image_span(arr):
    quotient = AomotoComplex(arr, intersection_lattice(arr)).top_quotient()
    rank, basis = shapovalov_image(quotient, use_chi=True)
    rows = [quotient.coords(enumerate(cls)) for cls in basis]
    rref_rows, _ = linalg.rref(rows)
    return rank, quotient.free, rref_rows


def test_criterion_2_image_scale_invariance(record_property):
    # multiplying every weight by 2 and by -5 must leave the image rank
    # and the image subspace unchanged, compared exactly
    started = time.monotonic()
    failures = []
    base = sl2_four_point(kappa=3)
    rank0, free0, span0 = _image_span(base)
    if rank0 != 2:
        failures.append(f"base image rank {rank0} != 2")
    for factor in (F(2), F(-5)):
        scaled = WeightedArrangement(
            base.dimension,
            base.forms,
            [factor * w for w in base.weights],
            coloring=base.coloring,
        )
        result = _image_span(scaled)
        if result != (rank0, free0, span0):
            failures.append(f"scaling by {factor} changed the image")
    _conclude(2, "image invariant under weight rescaling", 5.0,
              started, failures, record_property)


def test_criterion_3_boundary_identity_with_control(record_property):
    # the telescoping identity between mixed kernel forms and
    # (eta(x) - eta(y)) wedge the full mixed form, checked as an exact
    # equality of exterior elements at 5 sampled integer points for every
    # k = 1..M on three arrangements, plus one falsification control
    # with a perturbed weight that must be detected
    started = time.monotonic()
    failures = []
    cases = [
        ("two points (M=1)", two_points()),
        ("four-point discriminantal (M=2)", sl2_four_point()),
        ("random six hyperplanes (M=3)", random_m3()),
    ]
    if cases[2][1].size != 6 or cases[2][1].dimension != 3:
        failures.append("random arrangement is not six hyperplanes in M=3")
    for label, arr in cases:
        F_list = coordinate_functions(arr.dimension)
        for k in range(1, arr.dimension + 1):
            if not verify_grundlegend(arr, F_list, k, num_points=5, seed=97):
                failures.append(f"{label}: identity failed at k={k}")
    if not grundlegend_control(sl2_four_point(), coordinate_functions(2), seed=1):
        failures.append("control failed to detect the perturbed weight")
    _conclude(3, "boundary identity at sampled points", 30.0,
              started, failures, record_property)


def test_criterion_4_conformal_block_dimensions(record_property):
    # four sl2 doublets: level 1 gives dim 1, level 2 gives dim 2, and
    # the dimension stabilizes (level 5 still 2); exact integers
    started = time.monotonic()
    failures = []
    expected = {1: 1, 2: 2, 5: 2}
    for level, dim in expected.items():
        got = conformal_block_dim([1, 1, 1, 1], level, ACCEPTANCE_POINTS)
        if got != dim:
            failures.append(f"level {level}: got {got}, expected {dim}")
    _conclude(4, "conformal block dimensions at levels 1, 2, 5", 5.0,
              started, failures, record_property)


def test_criterion_5_casimir_matrices(record_property):
    # two-site Casimir operators on the coinvariant basis {[v], [w]} of
    # four doublets; all six matrices pinned entrywise, exact
    started = time.monotonic()
    failures = []
    expected = {
        (0, 1): [[F(1, 2), F(-1)], [F(0), F(-3, 2)]],
        (0, 2): [[F(-3, 2), F(0)], [F(-1), F(1, 2)]],
        (0, 3): [[F(-1, 2), F(1)], [F(1), F(-1, 2)]],
        (1, 2): [[F(-1, 2), F(1)], [F(1), F(-1, 2)]],
        (1, 3): [[F(-3, 2), F(0)], [F(-1), F(1, 2)]],
        (2, 3): [[F(1, 2), F(-1)], [F(0), F(-3, 2)]],
    }
    got = casimir_matrices()
    if got != expected:
        failures.append(f"matrices differ: {got}")
    _conclude(5, "two-site Casimir matrices", 1.0, started, failures,
              record_property)


def test_criterion_6_flat_section_residuals(record_property):
    # both candidate flat sections at kappa=3 satisfy the connection
    # equations to better than 1e-10 at 256-bit precision at 5 generic
    # complex points; the wrong-exponent control exceeds 1e-3
    started = time.monotonic()
    failures = []
    sys_obj = KzSystem(ACCEPTANCE_POINTS, 3, precision_bits=256)
    samples = _kz_flat_samples(ACCEPTANCE_POINTS, seed=0)
    if len(samples) != 5:
        failures.append(f"expected 5 sample points, got {len(samples)}")
    threshold = mpmath.mpf("1e-10")
    for i, z in enumerate(samples):
        r_phi = flat_section_residual(sys_obj, z)
        r_fv = flat_section_residual(sys_obj, z, section="fv")
        if not r_phi < threshold:
            failures.append(f"sample {i}: prefactored-kernel residual {r_phi}")
        if not r_fv < threshold:
            failures.append(f"sample {i}: dual-block residual {r_fv}")
    wrong = flat_section_residual(sys_obj, samples[0], exponent=F(-1, 5))
    if not wrong > mpmath.mpf("1e-3"):
        failures.append(f"wrong-exponent control too small: {wrong}")
    _conclude(6, "flat-section residuals below 1e-10", 30.0,
              started, failures, record_property)


def test_criterion_7_commutator_monodromy_unipotent(record_property):
    # at kappa=3 the commutator-loop monodromy is unipotent but not the
    # identity: both eigenvalues within 1e-6 of 1, distance from the
    # identity above 1e-3, lower-left entry above 1e-3; the contour
    # integral oracle confirms |2F1(1/3, -1/3; 1/3 | 2)| > 0.01, and at
    # kappa=4 the three generator monodromies are diagonalizable
    started = time.monotonic()
    failures = []
    sys3 = KzSystem(ACCEPTANCE_POINTS, 3, precision_bits=256)
    mono = pochhammer_monodromy(sys3, 1, 3)
    with mpmath.workprec(320):
        eigs = eigenvalues_2x2(mono)
        for e in eigs:
            if not abs(e - 1) < mpmath.mpf("1e-6"):
                failures.append(f"eigenvalue {mpmath.nstr(e, 12)} not within 1e-6 of 1")
        dist = max(
            abs(mono[r][c] - (1 if r == c else 0))
            for r in range(2) for c in range(2)
        )
        if not dist > mpmath.mpf("1e-3"):
            failures.append(f"monodromy too close to the identity: {dist}")
        if not abs(mono[1][0]) > mpmath.mpf("1e-3"):
            failures.append(f"lower-left entry too small: {abs(mono[1][0])}")
    value = hyp2f1(F(1, 3), F(-1, 3), F(1, 3), 2, precision_bits=256)
    if not abs(value) > mpmath.mpf("0.01"):
        failures.append(f"contour oracle magnitude too small: {abs(value)}")
    sys4 = KzSystem(ACCEPTANCE_POINTS, 4, precision_bits=256)
    with mpmath.workprec(320):
        for around in (1, 2, 3):
            report = diagonalizability_report(
                simple_loop_monodromy(sys4, around)
            )
            if not (report["separation"] > mpmath.mpf("1e-6")
                    and report["condition"] < mpmath.mpf("1e6")):
                failures.append(
                    f"loop around point {around + 1} at kappa=4 is not "
                    f"cleanly diagonalizable: separation "
                    f"{mpmath.nstr(report['separation'], 6)}, condition "
                    f"{mpmath.nstr(report['condition'], 6)}"
                )
    _conclude(7, "unipotent commutator monodromy at kappa=3", 120.0,
              started, failures, record_property)


def test_criterion_8_property_suites(record_property):
    # compact re-run of the structural property suites: d after d
    # vanishes; combinatorial dimension equals pairing rank in every
    # degree on six arrangements; the flag functionals annihilate all
    # relations; the weight-diagonal map is symmetric and commutes with
    # the signed color-preserving permutations; the adjacency Gram
    # matrix factors through the pairing with weight-product diagonal;
    # the Casimir matrices satisfy the infinitesimal braid relations, so
    # the connection is flat; top-form expansion round-trips
    started = time.monotonic()
    failures = []
    arrangements = corpus()
    if len(arrangements) < 5:
        failures.append("property corpus has fewer than five arrangements")

    for arr in arrangements:
        lattice = intersection_lattice(arr)
        cx = AomotoComplex(arr, lattice)
        for p in range(arr.dimension - 1):
            first = cx.differential_matrix(p)
            second = cx.differential_matrix(p + 1)
            composite = linalg.matmul(second, first) if first and second else []
            if any(v != 0 for row in composite for v in row):
                failures.append(f"d after d nonzero at p={p}")
        for p in range(arr.dimension + 1):
            dim = os_dimension(lattice, p)
            if AomotoSpace(arr, lattice, p).dim != dim:
                failures.append(f"monomial space dim mismatch at p={p}")
            if linalg.rank(pairing_matrix(arr, lattice, p)) != dim:
                failures.append(f"pairing rank mismatch at p={p}")
        for p in range(1, arr.dimension + 1):
            flags = enumerate_flags(lattice, p)
            relations = flag_relations(lattice, p)
            for subset in combinations(range(arr.size), p):
                functional = phi(arr, lattice, subset, flags=flags)
                if any(
                    sum(f * r for f, r in zip(functional, rel)) != 0
                    for rel in relations
                ):
                    failures.append(f"flag functional hits a relation at p={p}")
        M = arr.dimension
        gram = contravariant_form(arr, lattice, M)
        if any(
            gram[i][j] != gram[j][i]
            for i in range(len(gram)) for j in range(len(gram))
        ):
            failures.append("adjacency Gram matrix is not symmetric")
        for p in (1, M):
            gram_p = contravariant_form(arr, lattice, p)
            pairing = pairing_matrix(arr, lattice, p)
            mons = monomials(arr.size, p)
            nflags = len(enumerate_flags(lattice, p))
            expected = [
                [arr.weights[0] * 0 for _ in range(nflags)]
                for _ in range(nflags)
            ]
            for row, subset in zip(pairing, mons):
                w = weight_product(arr, subset)
                for i, vi in enumerate(row):
                    if vi == 0:
                        continue
                    for j, vj in enumerate(row):
                        if vj != 0:
                            expected[i][j] = expected[i][j] + w * vi * vj
            if gram_p != expected:
                failures.append(
                    f"Gram does not factor through the pairing at p={p}"
                )

    # signed-permutation equivariance of the weight-diagonal map
    equivariance_case = sl2_four_point(kappa=7)
    mons = monomials(equivariance_case.size, equivariance_case.dimension)
    index = {m: k for k, m in enumerate(mons)}
    diag = [weight_product(equivariance_case, subset) for subset in mons]
    for g in color_group(equivariance_case):
        for col, subset in enumerate(mons):
            moved = [g.form_perm[i] for i in subset]
            order = tuple(sorted(range(len(moved)), key=lambda s: moved[s]))
            row = index[tuple(sorted(moved))]
            sign = F(perm_sign(order))
            if sign * diag[col] != diag[row] * sign:
                failures.append("weight-diagonal map is not equivariant")
                break

    omegas = casimir_matrices()

    def om(i, j):
        return omegas[(min(i, j), max(i, j))]

    def commutes(a, b):
        return linalg.matmul(a, b) == linalg.matmul(b, a)

    for i, j, k in permutations(range(4), 3):
        total = [[x + y for x, y in zip(r, s)]
                 for r, s in zip(om(i, k), om(j, k))]
        if not commutes(om(i, j), total):
            failures.append(f"Omega_{i + 1}{j + 1} does not commute with "
                            f"Omega_{i + 1}{k + 1} + Omega_{j + 1}{k + 1}")
    for i, j, k, l in permutations(range(4), 4):
        if not commutes(om(i, j), om(k, l)):
            failures.append(f"Omega_{i + 1}{j + 1} and Omega_{k + 1}{l + 1} "
                            "do not commute")

    for arr in [two_points(), crossing_lines(), random_m3()]:
        lattice = intersection_lattice(arr)
        space = AomotoSpace(arr, lattice, arr.dimension)
        mons = monomials(arr.size, arr.dimension)
        coeffs = [F(i + 1, 2 * i + 3) for i in range(len(mons))]

        def evaluator(pt, coeffs=coeffs, arr=arr, mons=mons):
            return sum(
                c * monomial_value(arr, sub, pt)
                for c, sub in zip(coeffs, mons)
            )

        got = expand_top_form(arr, lattice, evaluator, seed=13, space=space)
        if list(got) != list(space.representative(space.normal_form(enumerate(coeffs)))):
            failures.append(
                f"top-form expansion round-trip failed in M={arr.dimension}"
            )

    _conclude(8, "structural property suites", 180.0, started, failures,
              record_property)
