"""Weighted affine hyperplane arrangements and their intersection lattices.

An arrangement is a list of pairwise non-proportional degree-one forms
f_i on an M-dimensional affine space together with scalar weights a_i.
Edges are the nonempty intersections of hyperplanes; they are graded by
codimension and ordered by inclusion.  Edges are identified by the
reduced row echelon form of their defining linear system, which makes
equality and ordering canonical.  The intersection lattice extends the
key of an edge by the row of a hyperplane (linalg.extend) for each pair
whose meet it has not already found, and records the meets; the
defining sets of the edges and the flags of hyperplane tuples are read
off that record.

The one-form eta = sum_i a_i dlog f_i plays the role of the twisting
differential throughout the package.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from . import linalg
from .errors import MissingColoring
from .exactfield import RatFuncKappa, format_rational, parse_rational


@dataclass(frozen=True)
class AffineForm:
    """A degree-one form  constant + sum_b gradient[b] * t_b  with exact coefficients."""

    constant: Fraction
    gradient: tuple

    def __post_init__(self):
        object.__setattr__(self, "constant", Fraction(self.constant))
        object.__setattr__(self, "gradient", tuple(Fraction(g) for g in self.gradient))
        if all(g == 0 for g in self.gradient):
            raise ValueError("affine form must have a nonzero gradient")

    def evaluate(self, point):
        acc = self.constant
        for g, x in zip(self.gradient, point):
            acc += g * x
        return acc

    def proportional_to(self, other):
        """True when the two forms cut out the same hyperplane."""
        ratio = None
        for a, b in zip((self.constant, *self.gradient), (other.constant, *other.gradient)):
            if (a == 0) != (b == 0):
                return False
            if b != 0:
                r = a / b
                if ratio is None:
                    ratio = r
                elif r != ratio:
                    return False
        return True


class WeightedArrangement:
    """Forms plus weights, with an optional coloring of the coordinates.

    The coloring labels each of the M coordinates; it is only consulted
    by the symmetry-group machinery.  Weights may be Fractions or
    RatFuncKappa scalars (symbolic mode).  zero is the scalar zero every
    computation on the weights starts from: a RatFuncKappa zero when any
    weight is a RatFuncKappa, Fraction(0) otherwise.
    """

    def __init__(self, dimension, forms, weights, coloring=None):
        if not isinstance(dimension, int) or isinstance(dimension, bool) \
                or dimension < 1:
            raise ValueError(f"dimension must be an integer >= 1, got {dimension!r}")
        self.dimension = dimension
        self.forms = tuple(forms)
        self.weights = tuple(weights)
        self.coloring = tuple(coloring) if coloring is not None else None
        symbolic = any(isinstance(w, RatFuncKappa) for w in self.weights)
        self.zero = RatFuncKappa.constant(0) if symbolic else Fraction(0)
        if len(self.forms) != len(self.weights):
            raise ValueError("need exactly one weight per form")
        for f in self.forms:
            if len(f.gradient) != self.dimension:
                raise ValueError("form gradient length does not match the dimension")
        for i in range(len(self.forms)):
            for j in range(i + 1, len(self.forms)):
                if self.forms[i].proportional_to(self.forms[j]):
                    raise ValueError(f"forms {i} and {j} cut out the same hyperplane")
        if self.coloring is not None and len(self.coloring) != self.dimension:
            raise ValueError("coloring must label every coordinate")

    @property
    def size(self):
        return len(self.forms)

    def __repr__(self):
        return (
            f"WeightedArrangement(dimension={self.dimension}, "
            f"size={self.size}, colored={self.coloring is not None})"
        )


@dataclass(frozen=True)
class Edge:
    """A nonempty intersection of hyperplanes.

    key is the row-reduced echelon form of the defining system [A | b],
    a tuple of row tuples; two edges are equal iff their keys are equal.
    defining is the saturated set of all hyperplane indices containing
    the edge.
    """

    codim: int
    key: tuple
    defining: frozenset


def _augmented_row(form):
    return [*form.gradient, -form.constant]


def _meet_key(key, row):
    """The key of the edge `key` cut by the hyperplane of augmented `row`.

    Extends a copy of the key by the row.  None when the key already
    holds the row (the hyperplane contains the edge) or when the row's
    pivot falls in the constant column (the two do not meet).
    """
    rows = [list(r) for r in key]
    pivots = [next(c for c, v in enumerate(r) if v) for r in rows]
    lead = linalg.extend(rows, pivots, row)
    if lead is None or lead == len(row) - 1:
        return None
    return tuple(tuple(r) for r in rows)


class IntersectionLattice:
    """All edges of an arrangement, graded by codimension.

    Built level by level: codim-(p+1) edges are the proper intersections
    of codim-p edges with single hyperplanes, deduplicated by canonical
    key and sorted by key within a level.  Every proper intersection
    found is recorded in a meet table, read through meet(edge, i).

    The defining set of a new edge X is the union of defining(E) | {i}
    over the recorded pairs (E, i) that produce X.  That union is exact:
    a hyperplane H_j containing X either contains a parent E of X, or it
    does not, and then E cap H_j is X, so (E, j) is a recorded pair.
    Edge containment is decided through these saturated sets: X is
    contained in Y iff defining(Y) is a subset of defining(X).

    A pair (E, i) needs no elimination when the running defining set of
    an edge Y already found at this level holds i and defining(E): then
    Y lies in E cap H_i, and both have the same codimension, so they
    are equal.
    """

    def __init__(self, arrangement):
        rows = [_augmented_row(f) for f in arrangement.forms]
        edges = [Edge(codim=0, key=(), defining=frozenset())]
        self._meet = {}
        self._by_codim = {0: [0]}
        for p in range(1, arrangement.dimension + 1):
            found = {}  # key -> (defining set, producing pairs)
            # i -> the found (defining set, pairs) values whose set holds i
            through = [[] for _ in rows]
            for e in self._by_codim[p - 1]:
                edge = edges[e]
                for i, row in enumerate(rows):
                    if i in edge.defining:
                        continue
                    entry = next((y for y in through[i]
                                  if edge.defining <= y[0]), None)
                    if entry is None:
                        key = _meet_key(edge.key, row)
                        if key is None:
                            continue
                        entry = found.setdefault(key, (set(), []))
                    defining, pairs = entry
                    for j in (edge.defining | {i}) - defining:
                        defining.add(j)
                        through[j].append(entry)
                    pairs.append((e, i))
            self._by_codim[p] = []
            for key in sorted(found):
                defining, pairs = found[key]
                for pair in pairs:
                    self._meet[pair] = len(edges)
                self._by_codim[p].append(len(edges))
                edges.append(Edge(codim=p, key=key, defining=frozenset(defining)))
        self.edges = tuple(edges)

    def by_codim(self, p):
        return tuple(self._by_codim.get(p, ()))

    def meet(self, edge, i):
        """Index of edges[edge] cap H_i one codimension down.

        None when H_i contains the edge or misses it (is parallel to it).
        """
        return self._meet.get((edge, i))

    def contains(self, outer, inner):
        """True when edges[outer] contains edges[inner] (weak containment)."""
        a, b = self.edges[outer], self.edges[inner]
        return a.defining <= b.defining and a.codim <= b.codim

    def mobius(self):
        """Mobius function mu(ambient, X) for every edge, by recursion on codim."""
        if getattr(self, "_mobius", None) is not None:
            return self._mobius
        mu = {}
        for idx in sorted(range(len(self.edges)), key=lambda i: self.edges[i].codim):
            if self.edges[idx].codim == 0:
                mu[idx] = 1
                continue
            total = 0
            for jdx, val in mu.items():
                if jdx != idx and self.contains(jdx, idx):
                    total += val
            mu[idx] = -total
        self._mobius = mu
        return mu


def intersection_lattice(arrangement):
    return IntersectionLattice(arrangement)


def os_dimension(lattice, p):
    """Dimension of the degree-p logarithmic subalgebra, as a Mobius sum.

    Equals sum over codim-p edges X of |mu(ambient, X)|; serves as the
    combinatorial cross-check for the rank of the flag pairing matrix.
    """
    mu = lattice.mobius()
    return sum(abs(mu[idx]) for idx in lattice.by_codim(p))


@dataclass(frozen=True)
class GroupElement:
    """A coordinate permutation with its sign and induced form permutation.

    perm maps coordinate b to perm[b]; form_perm[i] is the index of the
    arrangement form proportional to the permuted form i.
    """

    perm: tuple
    sign: int
    form_perm: tuple


def perm_sign(perm):
    """Sign of a permutation given as a tuple of images."""
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def permute_form(form, perm):
    grad = [Fraction(0)] * len(perm)
    for b, g in enumerate(form.gradient):
        grad[perm[b]] = g
    return AffineForm(form.constant, tuple(grad))


def _induced_form_perm(arrangement, perm):
    out = []
    for i, f in enumerate(arrangement.forms):
        moved = permute_form(f, perm)
        target = None
        for j, g in enumerate(arrangement.forms):
            if moved.proportional_to(g):
                target = j
                break
        if target is None:
            raise ValueError(f"coordinate permutation {perm} does not preserve form {i}")
        out.append(target)
    return tuple(out)


def color_group(arrangement):
    """All coordinate permutations preserving the coloring, with induced data.

    Elements are sorted by their permutation tuple, so the identity comes
    first.  Raises MissingColoring when the arrangement has no coloring.
    """
    if arrangement.coloring is None:
        raise MissingColoring("color_group needs an arrangement with a coloring")
    M = arrangement.dimension
    colors = arrangement.coloring
    elements = []
    for perm in permutations(range(M)):
        if all(colors[perm[b]] == colors[b] for b in range(M)):
            elements.append(
                GroupElement(
                    perm=perm,
                    sign=perm_sign(perm),
                    form_perm=_induced_form_perm(arrangement, perm),
                )
            )
    elements.sort(key=lambda g: g.perm)
    return tuple(elements)


# ---------------------------------------------------------------------------
# serialization for the CLI


def _weight_to_json(w):
    if isinstance(w, RatFuncKappa):
        return w.to_json()
    return format_rational(w)


def _weight_from_json(data):
    if isinstance(data, dict):
        return RatFuncKappa.from_json(data)
    return parse_rational(data)


def arrangement_to_json(arr):
    return {
        "dimension": arr.dimension,
        "forms": [
            {
                "constant": format_rational(f.constant),
                "gradient": [format_rational(g) for g in f.gradient],
            }
            for f in arr.forms
        ],
        "weights": [_weight_to_json(w) for w in arr.weights],
        "coloring": list(arr.coloring) if arr.coloring is not None else None,
    }


def arrangement_from_json(data):
    forms = [
        AffineForm(
            parse_rational(f["constant"]),
            tuple(parse_rational(g) for g in f["gradient"]),
        )
        for f in data["forms"]
    ]
    coloring = data.get("coloring")
    if coloring is not None and not isinstance(coloring, list):
        raise ValueError(f"coloring must be a list or null, got {coloring!r}")
    return WeightedArrangement(
        dimension=data["dimension"],
        forms=forms,
        weights=[_weight_from_json(w) for w in data["weights"]],
        coloring=coloring,
    )
