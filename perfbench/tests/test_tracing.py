import itertools

import pytest

from perfbench import tracing


def _tracer():
    ticks = itertools.count()
    return tracing.Tracer(clock=lambda: float(next(ticks)))


def test_self_time_subtracts_direct_children_only():
    tracer = _tracer()
    tracer.begin_request("r0")           # t=0
    tracer.begin("cli.run")              # 1
    tracer.begin("aomoto.TopQuotient")   # 2
    tracer.begin("linalg.rref")          # 3
    tracer.end()                         # 4  rref: 1
    tracer.begin("linalg.rref")          # 5
    tracer.end()                         # 6  rref: 1
    tracer.end()                         # 7  TopQuotient: 5, self 3
    tracer.end()                         # 8  cli.run: 7, self 2
    tracer.begin(tracing.SERIALIZE)      # 9
    tracer.end()                         # 10 serialize: 1
    wall = tracer.end_request()          # 11 request: 11, self 3
    own = tracing.self_times(tracer.records)
    by_name = {}
    for rec in tracer.records:
        by_name.setdefault(rec[3], []).append(own[rec[1]])
    assert by_name == {
        "linalg.rref": [1.0, 1.0],
        "aomoto.TopQuotient": [3.0],
        "cli.run": [2.0],
        tracing.SERIALIZE: [1.0],
        tracing.ROOT: [3.0],
    }
    assert wall == 11.0
    assert sum(own.values()) == wall
    assert tracing.request_balance(tracer.records, own) == 0.0
    table = tracing.per_span(tracer.records, own)
    assert table["linalg.rref"] == [2, 2.0, 2.0]
    layers = tracing.per_layer_self(table)
    assert layers["linalg"] == 2.0 and layers["aomoto"] == 3.0
    assert layers["cli"] == 3.0 and layers["bench"] == 3.0


def test_nested_calls_follow_the_parent_chain():
    tracer = _tracer()
    tracer.begin_request("r0")
    tracer.begin("logforms.expand_top_form")
    tracer.begin("linalg.solve")
    tracer.end()
    tracer.end()
    tracer.begin("linalg.solve")
    tracer.end()
    tracer.end_request()
    assert tracing.nested_calls(tracer.records, "linalg.solve",
                                "logforms.expand_top_form") == 1


def test_request_must_close_its_spans():
    tracer = _tracer()
    tracer.begin_request("r0")
    tracer.begin("cli.run")
    with pytest.raises(RuntimeError):
        tracer.end_request()


def test_instrumented_patches_importers_and_restores():
    from aomoto_lab import aomoto, cli, linalg, svmap

    originals = (linalg.rref, svmap.shapovalov_image, cli.intersection_lattice,
                 aomoto.AomotoSpace.__init__)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        assert svmap.shapovalov_image is aomoto.shapovalov_image
        assert svmap.shapovalov_image is not originals[1]
        assert cli.intersection_lattice is not originals[2]
        tracer.begin_request("r0")
        linalg.rank([[1, 2], [2, 4]])
        tracer.end_request()
    assert (linalg.rref, svmap.shapovalov_image, cli.intersection_lattice,
            aomoto.AomotoSpace.__init__) == originals
    names = [rec[3] for rec in tracer.records]
    assert names == ["linalg.rref", tracing.ROOT]
    assert tracer.counts["linalg.rref.cells"] == 4


def test_every_span_target_resolves():
    for name in tracing.SPANS + tracing.PROBES:
        if name != tracing.SERIALIZE:
            owner, attr = tracing._target(name)
            assert callable(owner.__dict__[attr]), name
