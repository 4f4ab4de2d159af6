"""Spans around the calls into each layer of ``aomoto_lab``, for traced runs.

Tracing patches the public functions named in ``SPANS`` from outside:
a module-level function is replaced in every ``aomoto_lab`` module that
holds it (callers that imported it by name included), a class is traced
through its ``__init__`` and a method through its class attribute.
``instrumented`` undoes every patch on exit, so untraced rounds run the
unmodified code.  Spans are kept in memory as tuples

    (request id, span id, parent span id, name, start, end)

and every request has one root span, ``request``, that covers the whole
call including serialization.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "svmap", "arrangement", "flags", "aomoto", "linalg",
          "exactfield", "liealg", "logforms", "kz")

ROOT = "request"
SERIALIZE = "cli.serialize"

SPANS = (
    "cli.run",
    SERIALIZE,
    "arrangement.intersection_lattice",
    "flags.enumerate_flags",
    "flags.phi",
    "aomoto.AomotoSpace",
    "aomoto.TopQuotient",
    "aomoto.AomotoComplex.cohomology_dim",
    "aomoto.chi_projector",
    "aomoto.chi_fixed_dim",
    "aomoto.shapovalov_image",
    "linalg.rref",
    "linalg.nullspace",
    "linalg.solve",
    "linalg.reduce_mod_rowspace",
    "linalg.matvec",
    "linalg.matmul",
    "liealg.invariants_dim",
    "liealg.invariant_functionals",
    "liealg.conformal_block_dim",
    "liealg.coinvariants_quotient",
    "svmap.build_arrangement",
    "svmap.sv_vector_eval",
    "svmap.omega_sv",
    "svmap.egregium_check",
    "logforms.expand_top_form",
    "logforms.verify_grundlegend",
    "logforms.grundlegend_control",
    "exactfield.random_point_avoiding",
    "kz.KzSystem",
    "kz.casimir_matrices",
    "kz.pochhammer_monodromy",
    "kz.simple_loop_monodromy",
    "kz.transport",
    "kz.flat_section_residual",
    "kz.hyp2f1",
)

# Spans that call other spans; only these report a self time apart
# from their busy time.
NESTING = frozenset((
    "cli.run",
    "arrangement.intersection_lattice",
    "flags.phi",
    "aomoto.AomotoSpace",
    "aomoto.TopQuotient",
    "aomoto.AomotoComplex.cohomology_dim",
    "aomoto.chi_fixed_dim",
    "aomoto.shapovalov_image",
    "linalg.nullspace",
    "linalg.solve",
    "liealg.invariant_functionals",
    "liealg.conformal_block_dim",
    "liealg.coinvariants_quotient",
    "svmap.build_arrangement",
    "svmap.omega_sv",
    "svmap.egregium_check",
    "logforms.expand_top_form",
    "logforms.verify_grundlegend",
    "logforms.grundlegend_control",
    "kz.KzSystem",
    "kz.casimir_matrices",
    "kz.pochhammer_monodromy",
    "kz.simple_loop_monodromy",
))


def _cells(args, kwargs):
    matrix = args[0] if args else kwargs["matrix"]
    return len(matrix) * (len(matrix[0]) if matrix else 0)


# Counts recorded where the work happens: span (or probe) name ->
# function of (args, kwargs, result) giving (counter, amount) pairs.
HOOKS = {
    "arrangement.intersection_lattice":
        lambda a, k, r: (("arrangement.edges", len(r.edges)),),
    "flags.enumerate_flags": lambda a, k, r: (("flags.flags", len(r)),),
    "aomoto.TopQuotient":
        lambda a, k, r: (("aomoto.top_monomials", len(a[0].space.monomials)),),
    "linalg.rref": lambda a, k, r: (("linalg.rref.cells", _cells(a, k)),),
    "aomoto.shapovalov_image":
        lambda a, k, r: (("aomoto.shapovalov_image.rank", r[0]),),
    "aomoto.dual_functional_space":
        lambda a, k, r: (("aomoto.shapovalov_image.candidates", len(r)),),
}

# Functions that only feed counters, without a span of their own.
PROBES = ("aomoto.dual_functional_space",)


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.records = []
        self.counts = defaultdict(float)
        self._stack = []
        self._next_id = 0
        self._request = None

    def begin(self, name):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((span_id, parent, name, self.clock()))

    def end(self):
        end = self.clock()
        span_id, parent, name, start = self._stack.pop()
        self.records.append((self._request, span_id, parent, name, start, end))
        return end - start

    def count(self, name, amount):
        self.counts[name] += amount

    def begin_request(self, request_id):
        if self._stack:
            raise RuntimeError("a request span is already open")
        self._request = request_id
        self.begin(ROOT)

    def end_request(self):
        """Close the root span; returns the request's traced wall time."""
        if len(self._stack) != 1:
            raise RuntimeError("spans left open inside the request")
        return self.end()


def _wrap(fn, name, tracer, traced):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if traced:
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
        else:
            result = fn(*args, **kwargs)
        if hook is not None:
            for counter, amount in hook(args, kwargs, result):
                tracer.count(counter, amount)
        return result

    return wrapper


def _target(name):
    """(owner, attribute) to patch for a span name."""
    module_name, *path = name.split(".")
    owner = importlib.import_module(f"aomoto_lab.{module_name}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    attr = path[-1]
    value = getattr(owner, attr)
    if isinstance(value, type):
        return value, "__init__"
    return owner, attr


@contextmanager
def instrumented(tracer):
    """Patch every span and probe target for the duration of the block."""
    modules = [m for k, m in sorted(sys.modules.items())
               if k == "aomoto_lab" or k.startswith("aomoto_lab.")]
    undo = []
    try:
        for name in SPANS + PROBES:
            if name == SERIALIZE:
                continue
            owner, attr = _target(name)
            original = owner.__dict__[attr]
            wrapper = _wrap(original, name, tracer, traced=name not in PROBES)
            holders = [owner]
            if not isinstance(owner, type):
                holders += [m for m in modules
                            if m is not owner and m.__dict__.get(attr) is original]
            for holder in holders:
                setattr(holder, attr, wrapper)
                undo.append((holder, attr, original))
        yield tracer
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)


# ---------------------------------------------------------------------------
# analysis of recorded spans


def self_times(records):
    """Span id -> duration minus the durations of its direct children."""
    own = {rec[1]: rec[5] - rec[4] for rec in records}
    for _, _, parent, _, start, end in records:
        if parent is not None:
            own[parent] -= end - start
    return own


def request_balance(records, own):
    """Largest gap, over requests, between summed self times and root duration."""
    sums = defaultdict(float)
    roots = {}
    for request, span_id, parent, name, start, end in records:
        sums[request] += own[span_id]
        if parent is None:
            roots[request] = end - start
    return max((abs(sums[r] - roots[r]) for r in roots), default=0.0)


def per_span(records, own):
    """Span name -> [calls, busy seconds, self seconds]."""
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for _, span_id, _, name, start, end in records:
        row = table[name]
        row[0] += 1
        row[1] += end - start
        row[2] += own[span_id]
    return table


def layer_of(name):
    layer = name.split(".", 1)[0]
    return layer if layer in LAYERS else "bench"


def per_layer_self(table):
    totals = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for name, (_, _, own) in table.items():
        totals[layer_of(name)] += own
    return totals


def nested_calls(records, child, ancestor):
    """How many ``child`` spans have an ``ancestor`` span above them."""
    by_id = {rec[1]: (rec[2], rec[3]) for rec in records}
    found = 0
    for _, _, parent, name, _, _ in records:
        if name != child:
            continue
        while parent is not None:
            parent, parent_name = by_id[parent]
            if parent_name == ancestor:
                found += 1
                break
    return found


PER_REQUEST_COUNTS = ("arrangement.edges", "flags.flags", "aomoto.top_monomials",
                      "linalg.rref.cells")
RATIOS = ("aomoto.shapovalov_image.useful_ratio",
          "logforms.expand_top_form.solves_per_call")
OVERHEAD = "tracing.overhead_s"


def _ratio(num, den):
    return num / den if den else 0.0


def derived_counts(records, counts, requests):
    """The six per-layer count metrics, each with a note on its base."""
    expand = sum(1 for rec in records if rec[3] == "logforms.expand_top_form")
    solves = nested_calls(records, "linalg.solve", "logforms.expand_top_form")
    rank = counts.get("aomoto.shapovalov_image.rank", 0)
    candidates = counts.get("aomoto.shapovalov_image.candidates", 0)
    out = {name: (counts.get(name, 0) / requests, "per request")
           for name in PER_REQUEST_COUNTS}
    out[RATIOS[0]] = (_ratio(rank, candidates), f"{rank:g} rank / {candidates:g} candidates")
    out[RATIOS[1]] = (_ratio(solves, expand), f"{solves} solves / {expand} calls")
    return out


def per_layer_spec():
    """(name, unit, better) of every metric a traced run reports."""
    spec = []
    for span in SPANS:
        spec.append((f"{span}.calls", "calls/req", "lower"))
        spec.append((f"{span}.busy_s", "s/req", "lower"))
        if span in NESTING:
            spec.append((f"{span}.self_s", "s/req", "lower"))
    spec += [(name, "count/req", "lower") for name in PER_REQUEST_COUNTS]
    spec.append((RATIOS[0], "ratio", "higher"))
    spec.append((RATIOS[1], "ratio", "lower"))
    spec += [(f"layer.{layer}.self_s", "s/req", "lower") for layer in LAYERS]
    spec.append((OVERHEAD, "s", "lower"))
    return spec
