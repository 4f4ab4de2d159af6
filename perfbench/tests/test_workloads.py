import json
from pathlib import Path

import pytest

from perfbench import oracles, run, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_one_seed_gives_one_request_list(workload):
    first = [workloads.make_round(workload, 7, i) for i in range(4)]
    again = [workloads.make_round(workload, 7, i) for i in (3, 2, 1, 0)][::-1]
    assert first == again
    assert first != [workloads.make_round(workload, 8, i) for i in range(4)]
    assert workloads.warmup_requests(workload, 7) == workloads.warmup_requests(workload, 7)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_two_rounds_have_the_same_mix(workload):
    def labels(seed, index):
        return [r.label for r in workloads.make_round(workload, seed, index)]
    mixes = {tuple(sorted(labels(s, 2 * i) + labels(s, 2 * i + 1)))
             for s in range(5) for i in range(5)}
    assert len(mixes) == 1


def test_exact_inputs_stay_in_their_ranges():
    for i in range(20):
        for request in workloads.make_round("exact-egregium", 3, i):
            points = [oracles.Fraction(p) for p in request.config["points"]]
            assert len(set(points)) == len(points)
            assert all(abs(p.numerator) <= 40 and p.denominator <= 12 for p in points)
            if "kappa" in request.config:
                assert oracles.Fraction(request.config["kappa"]) != 0
            if "levels" in request.config:
                assert min(request.config["levels"]) >= max(request.config["weights"])


def test_kz_rounds_alternate_kappa_three_and_a_seeded_kappa():
    for seed in range(10):
        requests = [r for i in range(4) for r in workloads.make_round("kz-monodromy", seed, i)]
        assert [r.config["precision_bits"] for r in requests] == [128] * 4
        assert [r.config["kappa"] == "3/1" for r in requests[::2]] == [True, True]
        assert requests[1].config["kappa"] != requests[3].config["kappa"]
        for r in requests:
            assert set(r.config["loop"]) <= {2, 3, 4} and len(set(r.config["loop"])) == 2


def test_independent_counts():
    assert [oracles.cg_invariants(w) for w in workloads.SHAPES] == [2, 1, 1]
    assert [oracles.fusion_blocks((1, 1, 1, 1), k) for k in (1, 2, 5)] == [1, 2, 2]
    assert [oracles.two_variable_dims(n)[1] for n in (4, 3, 2)] == [12, 6, 2]


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == tracing.per_layer_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
