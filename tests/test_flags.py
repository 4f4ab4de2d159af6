from fractions import Fraction
from itertools import combinations

from aomoto_lab import linalg
from aomoto_lab.aomoto import monomials, weight_product
from aomoto_lab.arrangement import (
    AffineForm, WeightedArrangement, intersection_lattice, os_dimension,
)
from aomoto_lab.flags import enumerate_flags, phi
from arrangements import corpus, crossing_lines, sl2_four_point, two_points
from oracles import contravariant_form, flag_relations, pairing_matrix

F = Fraction


def flag_space_dim(lattice, p):
    """dim F^p = number of raw flags minus the rank of the relation matrix."""
    flags = enumerate_flags(lattice, p)
    relations = flag_relations(lattice, p)
    if not relations:
        return len(flags)
    rel_rows = [[Fraction(c) for c in r] for r in relations]
    return len(flags) - linalg.rank(rel_rows)


def test_two_point_flags_and_relations():
    lattice = intersection_lattice(two_points())
    assert len(enumerate_flags(lattice, 0)) == 1
    assert len(enumerate_flags(lattice, 1)) == 2
    # relations come from interior gaps only, so degree one has none and
    # both point flags stay independent
    assert flag_relations(lattice, 1) == []
    assert flag_space_dim(lattice, 1) == 2


def test_single_hyperplane_flag_space():
    arr = WeightedArrangement(1, [AffineForm(F(0), (F(1),))], [F(1, 2)])
    lattice = intersection_lattice(arr)
    assert flag_relations(lattice, 1) == []
    assert flag_space_dim(lattice, 1) == 1


def test_crossing_lines_interior_relation():
    lattice = intersection_lattice(crossing_lines())
    flags = enumerate_flags(lattice, 2)
    assert len(flags) == 2
    relations = flag_relations(lattice, 2)
    # one gapped chain (ambient > origin) completed by both lines
    assert relations == [(1, 1)]
    assert flag_space_dim(lattice, 2) == 1


def test_phi_single_hyperplane_is_delta():
    arr = two_points()
    lattice = intersection_lattice(arr)
    flags = enumerate_flags(lattice, 1)
    values = phi(arr, lattice, (0,), flags=flags)
    assert sorted(values) == [0, 1]
    assert sum(abs(v) for v in phi(arr, lattice, (1,), flags=flags)) == 1


def test_phi_is_alternating():
    arr = sl2_four_point(kappa=7)
    lattice = intersection_lattice(arr)
    flags = enumerate_flags(lattice, 2)
    for pair in [(0, 4), (1, 8), (2, 6), (0, 8)]:
        forward = phi(arr, lattice, pair, flags=flags)
        backward = phi(arr, lattice, pair[::-1], flags=flags)
        assert forward == [-v for v in backward]
        assert any(v != 0 for v in forward)


def test_phi_of_crossing_pair():
    arr = crossing_lines()
    lattice = intersection_lattice(arr)
    values = phi(arr, lattice, (0, 1))
    assert sorted(values) == [-1, 1]


def test_phi_annihilates_all_relations_on_corpus():
    for arr in corpus():
        lattice = intersection_lattice(arr)
        for p in range(1, arr.dimension + 1):
            flags = enumerate_flags(lattice, p)
            relations = flag_relations(lattice, p)
            for subset in combinations(range(arr.size), p):
                functional = phi(arr, lattice, subset, flags=flags)
                for rel in relations:
                    assert sum(f * r for f, r in zip(functional, rel)) == 0


def test_contravariant_form_two_points():
    # diagonal in the flag basis: each point flag pairs with itself through
    # its own hyperplane weight and with the other flag through nothing
    arr = two_points()
    lattice = intersection_lattice(arr)
    gram = contravariant_form(arr, lattice, 1)
    assert gram[0][1] == 0 and gram[1][0] == 0
    assert sorted([gram[0][0], gram[1][1]]) == [F(1, 3), F(1, 2)]


def test_contravariant_form_degree_zero():
    arr = two_points()
    lattice = intersection_lattice(arr)
    assert contravariant_form(arr, lattice, 0) == [[F(1)]]


def test_contravariant_form_crossing_lines():
    arr = crossing_lines()
    lattice = intersection_lattice(arr)
    gram = contravariant_form(arr, lattice, 2)
    a = F(6)  # product of the weights 2 and 3
    assert gram == [[a, -a], [-a, a]] or gram == [[a, a], [a, a]]
    # the two flags come from the two orderings of one subset, so the
    # off-diagonal signs must differ from the diagonal
    assert gram[0][1] == -gram[0][0]


def test_gram_equals_weighted_pairing_square_on_corpus():
    # the quasi-classical form assembled from adjacency must coincide with
    # transpose(Phi) * diag(weight products) * Phi; this pins the sign
    # convention of the form
    for arr in corpus():
        lattice = intersection_lattice(arr)
        for p in (1, arr.dimension):
            gram = contravariant_form(arr, lattice, p)
            pairing = pairing_matrix(arr, lattice, p)
            mons = monomials(arr.size, p)
            nflags = len(enumerate_flags(lattice, p))
            expected = [
                [arr.weights[0] * 0 for _ in range(nflags)] for _ in range(nflags)
            ]
            for row, subset in zip(pairing, mons):
                w = weight_product(arr, subset)
                for i, vi in enumerate(row):
                    if vi == 0:
                        continue
                    for j, vj in enumerate(row):
                        if vj != 0:
                            expected[i][j] = expected[i][j] + w * vi * vj
            assert gram == expected, (arr, p)


def test_gram_is_symmetric_and_kills_relations():
    for arr in corpus():
        lattice = intersection_lattice(arr)
        M = arr.dimension
        gram = contravariant_form(arr, lattice, M)
        n = len(gram)
        for i in range(n):
            for j in range(n):
                assert gram[i][j] == gram[j][i]
        for rel in flag_relations(lattice, M):
            image = [
                sum((gram[i][j] * rel[j] for j in range(n)), arr.weights[0] * 0)
                for i in range(n)
            ]
            assert all(v == 0 for v in image)


def test_flag_space_dim_matches_mobius_and_pairing_rank():
    for arr in corpus():
        lattice = intersection_lattice(arr)
        for p in range(arr.dimension + 1):
            dim = flag_space_dim(lattice, p)
            assert dim == os_dimension(lattice, p)
            pairing = [
                [F(v) if not isinstance(v, F) else v for v in row]
                for row in pairing_matrix(arr, lattice, p)
            ]
            assert dim == linalg.rank(pairing)
