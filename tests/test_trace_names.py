"""The benchmark's traced runs patch package functions by name.

``perfbench/tracing.py`` wraps the functions named in its ``SPANS`` and
``PROBES`` from outside, and its hooks read attributes of their
arguments.  These tests fail when a rename or a changed attribute in
the package would break a traced run.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402

from aomoto_lab import aomoto, cli  # noqa: E402
from aomoto_lab.arrangement import intersection_lattice  # noqa: E402
from arrangements import sl2_four_point  # noqa: E402


def test_every_traced_name_resolves():
    for name in tracing.SPANS + tracing.PROBES:
        if name == tracing.SERIALIZE:
            continue
        owner, attr = tracing._target(name)
        assert callable(owner.__dict__[attr]), name


def test_top_quotient_hook_reads_a_built_quotient():
    arr = sl2_four_point(kappa=7)
    cx = aomoto.AomotoComplex(arr, intersection_lattice(arr))
    quotient = cx.top_quotient()
    hook = tracing.HOOKS["aomoto.TopQuotient"]
    assert tuple(hook((quotient, cx), {}, None)) == (("aomoto.top_monomials", 36),)


def test_traced_request_records_the_quotient_spans():
    config = json.loads((ROOT / "configs" / "image_chi_symbolic.json").read_text())
    original = aomoto.TopQuotient.__init__
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        tracer.begin_request("r0")
        cli.run("image", config)
        tracer.end_request()
    assert aomoto.TopQuotient.__init__ is original
    names = {record[3] for record in tracer.records}
    assert {"cli.run", "aomoto.TopQuotient", "aomoto.shapovalov_image",
            "linalg.rref"} <= names
    assert tracer.counts["aomoto.top_monomials"] == 36
    assert tracer.counts["aomoto.shapovalov_image.rank"] == 2
    assert tracer.counts["aomoto.shapovalov_image.candidates"] > 0
