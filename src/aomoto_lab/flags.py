"""Flags of an intersection lattice and the duality functionals of tuples.

A flag of length p is a chain  L^0 > L^1 > ... > L^p  of edges with
codim L^i = i (L^0 the ambient space).  The duality functional of a
p-tuple (H_1, ..., H_p) of hyperplanes is

    phi(H_1, ..., H_p) = sum_sigma sign(sigma) * delta_{F(H_sigma)},

summed over the permutations sigma for which the stepwise intersection
flag F(H_sigma(1), ..., H_sigma(p)) exists, i.e. every partial
intersection is nonempty of the right codimension.  These functionals
annihilate the relations of the flag space F^p, one per chain missing
an interior member (the sum of all flags completing it), and span its
dual.

No request runs this module.  The tests build the flag pairing, the
flag-space relations and the contravariant form on it (tests/oracles.py)
as the Schechtman-Varchenko oracle for the nbc normal forms of aomoto.
"""

from itertools import permutations

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
