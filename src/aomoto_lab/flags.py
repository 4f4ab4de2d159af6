"""Flag spaces of an intersection lattice and the duality with log forms.

A flag of length p is a chain  L^0 > L^1 > ... > L^p  of edges with
codim L^i = i (L^0 the ambient space).  The flag space F^p is the free
abelian group on flags modulo one relation per flag-with-an-interior-gap:
for every chain missing its codim-i member, 1 <= i <= p-1, the sum of
all flags completing it is zero.  Only interior gaps produce relations;
endpoint gaps do not.

The duality functional of a p-tuple (H_1, ..., H_p) of hyperplanes is

    phi(H_1, ..., H_p) = sum_sigma sign(sigma) * delta_{F(H_sigma)},

summed over the permutations sigma for which the stepwise intersection
flag F(H_sigma(1), ..., H_sigma(p)) exists, i.e. every partial
intersection is nonempty of the right codimension.  These functionals
annihilate all relations and span the dual of F^p.

The quasi-classical bilinear form on flags is assembled from hyperplane
p-tuples adjacent to both arguments, each tuple weighted by the product
of its weights and by the product of the signs of the two permutations
realizing the arguments.  Summing ordered tuples cancels the 1/p!
normalization, so the implementation iterates over unordered subsets.
"""

from fractions import Fraction
from itertools import combinations, permutations

from . import linalg
from .arrangement import perm_sign


def flag_of_tuple(lattice, indices):
    """The stepwise flag of an ordered hyperplane tuple, or None.

    Walks ambient > H_1 > H_1 cap H_2 > ... through lattice.meet; returns
    the tuple of lattice edge indices when every step raises the
    codimension by one.
    """
    flag = [0]  # ambient edge is always first in the lattice ordering
    for h in indices:
        nxt = lattice.meet(flag[-1], h)
        if nxt is None:
            return None
        flag.append(nxt)
    return tuple(flag)


def enumerate_flags(lattice, p):
    """All flags of length p, ordered lexicographically by edge keys."""
    flags = [(0,)]
    for q in range(1, p + 1):
        level = lattice.by_codim(q)
        nxt = []
        for flag in flags:
            last = flag[-1]
            for idx in level:
                if lattice.contains(last, idx):
                    nxt.append(flag + (idx,))
        flags = nxt
    return sorted(flags)


def flag_relations(lattice, p):
    """Relation vectors over the raw flags of length p.

    One vector per (interior gap position i, gapped chain): coefficient 1
    on every flag completing the chain, 0 elsewhere.  Empty for p <= 1.
    """
    flags = enumerate_flags(lattice, p)
    index = {f: k for k, f in enumerate(flags)}
    relations = []
    for i in range(1, p):
        groups = {}
        for f in flags:
            gapped = f[:i] + f[i + 1 :]
            groups.setdefault(gapped, []).append(index[f])
        for gapped in sorted(groups):
            vec = [0] * len(flags)
            for k in groups[gapped]:
                vec[k] = 1
            relations.append(tuple(vec))
    return relations


def phi(arrangement, lattice, indices, flags=None):
    """Duality functional of a hyperplane tuple, as coefficients on raw flags.

    Alternating in the entries of `indices`; the zero functional when no
    permutation of the tuple yields a flag.  Pass `flags` to reuse an
    already enumerated flag list.
    """
    p = len(indices)
    if flags is None:
        flags = enumerate_flags(lattice, p)
    index = {f: k for k, f in enumerate(flags)}
    values = [0] * len(flags)
    for sigma in permutations(range(p)):
        flag = flag_of_tuple(lattice, [indices[s] for s in sigma])
        if flag is not None:
            values[index[flag]] += perm_sign(sigma)
    return values


def contravariant_form(arrangement, lattice, p):
    """Gram matrix of the quasi-classical form on raw flags of length p.

    Entry (F, G) sums, over unordered p-subsets of hyperplanes adjacent
    to both flags, the weight product times sign(sigma_F) * sign(sigma_G)
    for the unique orderings realizing F and G.
    """
    flags = enumerate_flags(lattice, p)
    index = {f: k for k, f in enumerate(flags)}
    n = len(flags)
    zero = arrangement.zero
    gram = [[zero for _ in range(n)] for _ in range(n)]
    for subset in combinations(range(arrangement.size), p):
        weight = zero + 1
        for i in subset:
            weight = weight * arrangement.weights[i]
        realized = {}
        for sigma in permutations(range(p)):
            flag = flag_of_tuple(lattice, [subset[s] for s in sigma])
            if flag is None:
                continue
            k = index[flag]
            if k in realized:
                raise AssertionError("two orderings of one subset realize the same flag")
            realized[k] = perm_sign(sigma)
        for kf, sf in realized.items():
            for kg, sg in realized.items():
                gram[kf][kg] = gram[kf][kg] + weight * (sf * sg)
    return gram


def flag_space_dim(lattice, p):
    """dim F^p = number of raw flags minus the rank of the relation matrix."""
    flags = enumerate_flags(lattice, p)
    relations = flag_relations(lattice, p)
    if not relations:
        return len(flags)
    rel_rows = [[Fraction(c) for c in r] for r in relations]
    return len(flags) - linalg.rank(rel_rows)
