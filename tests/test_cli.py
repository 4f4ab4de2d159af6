"""Command-line interface: reports, config validation, exit codes."""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from aomoto_lab import cli, kz, logforms
from aomoto_lab.aomoto import (
    MAX_TOP_MONOMIALS, AomotoComplex, check_top_size, chi_fixed_dim,
    rational_split, shapovalov_image,
)
from aomoto_lab.arrangement import (
    AffineForm, WeightedArrangement, arrangement_to_json,
    intersection_lattice,
)
from aomoto_lab.cli import main, run
from aomoto_lab.errors import (
    AomotoLabError, BranchCut, ConfigError, ExhaustedRetries,
    LoopEnclosesPuncture, PrecisionLoss, TooManyMonomials, TooManyWeightVectors,
)
from aomoto_lab.liealg import MAX_ZERO_WEIGHT_DIM, zero_weight_dim
from aomoto_lab.svmap import build_arrangement
from arrangements import corpus
from aomoto_lab.exactfield import (
    RatFuncKappa, format_rational, parse_rational, specialize_kappa,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _load(name):
    return json.loads((CONFIGS / name).read_text())


def test_lattice_report():
    report = run("lattice", _load("lattice_two_points.json"))
    assert report["schema"] == "1"
    assert report["command"] == "lattice"
    assert report["edge_counts"] == {"codim1": 2, "codim2": 0}
    assert report["monomial_space_dims"] == {"0": 1, "1": 2}
    assert report["hyperplanes"] == 2
    assert report["dimension"] == 1


def test_invariants_report_single_level():
    report = run("invariants", _load("invariants_level1.json"))
    assert report["invariants_dim"] == 2
    assert report["conformal_block_dim"] == 1
    assert report["conformal_block_dims"] == {"1": 1}
    assert report["config"]["levels"] == [1]


def test_invariants_report_level_sweep():
    config = {
        "schema": "1",
        "weights": [1, 1, 1, 1],
        "levels": [1, 2, 5],
        "points": ["-1/2", "0/1", "1/2", "1/1"],
    }
    report = run("invariants", config)
    assert report["conformal_block_dims"] == {"1": 1, "2": 2, "5": 2}
    assert "conformal_block_dim" not in report
    # the default algebra is echoed back
    assert report["config"]["algebra"] == {"type": "A", "rank": 1}


def test_egregium_report():
    report = run("egregium", _load("egregium_kappa3.json"))
    assert report["invariants_dim"] == 2
    assert report["sv_rank"] == 2
    assert report["image_rank"] == 2
    assert report["subspaces_equal"] is True
    assert report["match"] is True
    assert report["config"]["kappa"] == "3/1"


def test_egregium_three_variable_report():
    # [2,1,1,2] has two invariants by Clebsch-Gordan: 2 x 1 x 1 x 2
    # contains the trivial module twice
    report = run("egregium", _load("egregium_three_variable.json"))
    assert report["invariants_dim"] == 2
    assert report["sv_rank"] == 2
    assert report["image_rank"] == 2
    assert report["subspaces_equal"] is True
    assert report["match"] is True


def test_aomoto_report():
    config = {
        "schema": "1",
        "weights": [1, 1, 1, 1],
        "points": ["-1/2", "0/1", "1/2", "1/1"],
        "kappa": "7/1",
    }
    report = run("aomoto", config)
    assert report["a_dims"]["0"] == 1
    assert report["a_dims"]["1"] == 9
    assert set(report["a_dims"]) == {"0", "1", "2"}
    assert set(report["h_dims"]) == {"0", "1", "2"}
    assert report["chi_fixed_top_dim"] == 6


def test_image_report():
    report = run("image", _load("image_chi_kappa7.json"))
    assert report["rank"] == 2
    assert report["chi"] is True
    assert len(report["basis"]) == 2
    assert all(isinstance(v, list) for v in report["basis"])


def test_sv_report():
    report = run("sv", _load("sv_kappa7.json"))
    assert report["functional_count"] == 2
    assert report["rank"] == 2
    assert len(report["classes"]) == 2
    assert report["top_cohomology_dim"] >= 2


def test_verify_forms_report():
    report = run("verify-forms", _load("verify_forms_sl2.json"))
    assert report["identity_holds"] == {"k=1": True, "k=2": True}
    assert report["all_hold"] is True
    assert report["control_detects_perturbation"] is True
    assert report["num_points"] == 5


def test_exact_commands_leave_kz_and_mpmath_unloaded():
    # a fresh interpreter, since this one has imported kz for other tests
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import aomoto_lab.cli as cli\n"
        "cli.run('egregium', {'weights': [1, 1, 1, 1], "
        "'points': ['-1/2', '0', '1/2', '1'], 'kappa': '7'})\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'aomoto_lab.kz' or m.split('.')[0] == 'mpmath'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_kz_report_reduced_precision():
    config = {"schema": "1", "kappa": "3/1", "precision_bits": 96, "seed": 0}
    report = run("kz", config)
    poch = report["pochhammer"]
    assert float(poch["unipotence_residual"]) < 1e-6
    assert float(poch["identity_distance"]) > 1e-3
    assert float(poch["a21_abs"]) > 1e-3
    assert float(poch["det_defect"]) < 1e-12
    flat = report["flat_sections"]
    assert float(flat["phi_max_residual"]) < 1e-10
    assert float(flat["fv_max_residual"]) < 1e-10
    assert abs(float(report["hyp2f1"]["abs"]) - 1) < 1e-8
    assert report["config"]["loop"] == [2, 4]
    assert report["config"]["points"] == ["-1/2", "0/1", "1/2", "1/1"]


@pytest.fixture
def fresh_hyp2f1_memo():
    # the memo outlives a request, so a test that swaps hyp2f1 must not
    # find or leave a value in it
    cli._hyp2f1_self_test.cache_clear()
    yield
    cli._hyp2f1_self_test.cache_clear()


KZ_QUICK = {"schema": "1", "precision_bits": 64, "kappa": "-7/3", "loop": [2, 3]}


def test_kz_hyp2f1_self_test_runs_once_per_precision(
        monkeypatch, fresh_hyp2f1_memo):
    calls = []
    hyp2f1 = kz.hyp2f1

    def counted(*args, precision_bits):
        calls.append(precision_bits)
        return hyp2f1(*args, precision_bits=precision_bits)

    monkeypatch.setattr(kz, "hyp2f1", counted)
    first, second = (json.dumps(run("kz", KZ_QUICK), sort_keys=True, indent=2)
                     for _ in range(2))
    assert first == second
    assert calls == [64]
    run("kz", {**KZ_QUICK, "precision_bits": 72})
    assert calls == [64, 72]


def test_kz_hyp2f1_failure_is_not_remembered(
        tmp_path, capsys, monkeypatch, fresh_hyp2f1_memo):
    calls = []

    def unconverged(*args, precision_bits):
        calls.append(precision_bits)
        raise PrecisionLoss("contour quadrature did not converge on a chord")

    monkeypatch.setattr(kz, "hyp2f1", unconverged)
    for _ in range(2):
        with pytest.raises(PrecisionLoss):
            run("kz", KZ_QUICK)
    assert calls == [64, 64]
    path = tmp_path / "kz.json"
    path.write_text(json.dumps(KZ_QUICK))
    assert main(["kz", "--config", str(path)]) == 1
    assert "PrecisionLoss" in capsys.readouterr().err
    assert calls == [64, 64, 64]


def test_kz_flat_sections_apply_at_kappa_3_only(monkeypatch):
    config = {"schema": "1", "precision_bits": 64}
    flat = run("kz", {**config, "kappa": "3/1"})["flat_sections"]
    assert sorted(flat) == ["fv_max_residual", "phi_max_residual", "samples"]
    assert flat["samples"] == 5

    # away from kappa 3 nothing is sampled: a sampler that can never
    # succeed goes unnoticed
    def always_on_cut(zs):
        raise BranchCut("forced")

    monkeypatch.setattr(kz, "_check_branch", always_on_cut)
    flat = run("kz", {**config, "kappa": "-7/3"})["flat_sections"]
    assert flat == {"applies": False,
                    "reason": "closed-form exponents hold at kappa 3/1 only"}


def _seeded_kz_config():
    rng = random.Random(19)
    kappa = Fraction(rng.choice((-1, 1)) * rng.randint(1, 24), rng.randint(1, 3))
    return {"schema": "1", "kappa": format_rational(kappa),
            "loop": sorted(rng.sample((2, 3, 4), 2)), "precision_bits": 128}


@pytest.mark.parametrize("config", [
    _load("kz_kappa3.json"), _load("kz_kappa_m7_3.json"), _seeded_kz_config(),
], ids=["kappa3", "kappa_m7_3", "seeded"])
def test_kz_digits_do_not_move_when_the_transport_tightens(config):
    # a report prints what its default tolerance resolves: a transport
    # 2^32 times tighter changes no printed digit
    bits = config["precision_bits"]
    tight = {**config, "tol": 2.0 ** -(bits // 2 + 32)}
    blocks = [{key: run("kz", c)[key] for key in ("pochhammer", "flat_sections")}
              for c in (config, tight)]
    assert blocks[0] == blocks[1]


def test_run_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        run("no-such-command", {})
    with pytest.raises(ConfigError):
        run("lattice", "not a dict")
    with pytest.raises(ConfigError):
        run("lattice", {"schema": "2"})
    with pytest.raises(ConfigError) as err:
        run("invariants", {"schema": "1", "weights": "nope"})
    assert "config field 'weights'" in str(err.value)
    for algebra in ({"type": "A", "rank": True}, {"type": "A", "rank": 0},
                    {"type": "A", "rank": -3}, {"type": "A", "rank": 1.0},
                    {"type": "A", "rank": "1"}, {"type": None}, {"type": ""},
                    {"type": "AB"}, {"type": "Z"}, {"type": 1}, "A1", ["A", 1]):
        with pytest.raises(ConfigError) as err:
            run("invariants", {"schema": "1", "weights": [1, 1],
                               "algebra": algebra})
        assert "config field 'algebra'" in str(err.value)


def test_main_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["lattice", "--config", str(CONFIGS / "lattice_two_points.json"),
               "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["edge_counts"]["codim1"] == 2

    rc = main(["lattice", "--config", str(tmp_path / "missing.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error:")

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    rc = main(["lattice", "--config", str(broken)])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err

    badfield = tmp_path / "badfield.json"
    badfield.write_text(json.dumps({"schema": "1", "weights": []}))
    rc = main(["invariants", "--config", str(badfield)])
    assert rc == 2
    assert "config field 'weights'" in capsys.readouterr().err

    collide = tmp_path / "collide.json"
    config = _load("egregium_kappa3.json")
    config["points"] = ["0/1", "0/1", "1/2", "1/1"]
    collide.write_text(json.dumps(config))
    rc = main(["egregium", "--config", str(collide)])
    assert rc == 1
    assert "DuplicatePoints" in capsys.readouterr().err


def test_main_exit_codes_for_algebra_and_beta(tmp_path, capsys):
    # a well-formed algebra other than A1 is refused as a domain error,
    # a malformed one, and any beta but 0 per variable, as a config error
    base = {"schema": "1", "weights": [1, 1, 1, 1],
            "points": ["-1/2", "0/1", "1/2", "1/1"], "kappa": "3/1"}
    path = tmp_path / "config.json"
    cases = [
        ("invariants", {"algebra": {"type": "A", "rank": 2}}, 1),
        ("aomoto", {"algebra": {"type": "E", "rank": 5}}, 1),
        ("invariants", {"algebra": {"type": "A", "rank": 0}}, 2),
        ("invariants", {"algebra": {"type": "Z", "rank": 1}}, 2),
        ("aomoto", {"beta": [1, 0]}, 2),
        ("aomoto", {"beta": [0]}, 2),
        ("aomoto", {"beta": [0, False]}, 2),
    ]
    for command, extra, code in cases:
        path.write_text(json.dumps({**base, **extra}))
        assert main([command, "--config", str(path)]) == code, extra
        err = capsys.readouterr().err
        if code == 1:
            assert err.startswith("UnsupportedAlgebra:"), err
        else:
            assert err.startswith("config error: config field"), err
    path.write_text(json.dumps({**base, "algebra": {"type": "a", "rank": 1},
                                "beta": [0, 0]}))
    out = tmp_path / "report.json"
    assert main(["aomoto", "--config", str(path), "--out", str(out)]) == 0
    echo = json.loads(out.read_text())["config"]
    assert echo["algebra"] == {"type": "a", "rank": 1}
    assert echo["beta"] == [0, 0]


@pytest.mark.parametrize("command,config", [("egregium", "egregium_kappa3.json"),
                                            ("sv", "sv_kappa7.json")])
def test_main_checks_and_echoes_beta_for_sl2_commands(command, config, tmp_path,
                                                       capsys):
    # egregium and sv build their arrangement from the sl2 recipe, and read
    # beta as aomoto does: 0 for each of the two variables, or exit 2
    base = _load(config)
    path = tmp_path / "config.json"
    for beta in ([5, "x"], [1, 0], [0], [0, False], "0"):
        path.write_text(json.dumps({**base, "beta": beta}))
        assert main([command, "--config", str(path)]) == 2, beta
        assert capsys.readouterr().err.startswith("config error: config field 'beta'")
    path.write_text(json.dumps({**base, "beta": [0, 0]}))
    out = tmp_path / "report.json"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["beta"] == [0, 0]
    # without beta the report is the one without the echo
    assert ({k: v for k, v in report["config"].items() if k != "beta"}
            == run(command, base)["config"])


def test_main_output_is_byte_stable(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    args = ["egregium", "--config", str(CONFIGS / "egregium_kappa3.json")]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_kz_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "kz.json"
    cfg.write_text(json.dumps({"schema": "1", "precision_bits": 96}))
    out = tmp_path / "kz_report.json"
    rc = main([
        "kz", "--config", str(cfg), "--kappa", "1000000/1", "--loop", "2,3",
        "--out", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["config"]["kappa"] == "1000000/1"
    assert report["config"]["loop"] == [2, 3]
    assert report["config"]["precision_bits"] == 96
    assert float(report["pochhammer"]["identity_distance"]) < 1e-3

    rc = main(["kz", "--config", str(cfg), "--loop", "2"])
    assert rc == 2
    assert "--loop" in capsys.readouterr().err

    # point 1 is the moving point, so no loop can circle it
    rc = main(["kz", "--config", str(cfg), "--loop", "1,2"])
    assert rc == 2
    assert "config field 'loop'" in capsys.readouterr().err

    for bits in (cli.MAX_PRECISION_BITS + 1, 10**6):
        rc = main(["kz", "--config", str(cfg), "--precision-bits", str(bits)])
        assert rc == 2
        assert "config field 'precision_bits'" in capsys.readouterr().err


BEYOND_FLOAT = str(10**400) + "/1"


@pytest.mark.parametrize("field, value", [
    ("tol", "abc"),
    ("tol", "-1e-20"),
    ("tol", [1]),
    ("points", ["0/1", "1/4", "1/2", "3/4", "1/1"]),
    ("points", ["0/1", "1/2", "1/1"]),
    ("points", ["-1/2", "0/1", "1/2", BEYOND_FLOAT]),
    ("points", ["-" + BEYOND_FLOAT, "0/1", "1/2", "1/1"]),
    ("base", BEYOND_FLOAT),
    ("base", "-" + BEYOND_FLOAT),
    ("precision_bits", 63),
    ("precision_bits", cli.MAX_PRECISION_BITS + 1),
    ("precision_bits", 10**6),
    ("loop", [1, 2]),
    ("loop", [3, 1]),
    ("loop", [2, 5]),
])
def test_kz_rejects_malformed_fields(tmp_path, capsys, field, value):
    config = {"schema": "1", "precision_bits": 64, field: value}
    with pytest.raises(ConfigError) as err:
        run("kz", config)
    assert f"config field '{field}'" in str(err.value)
    path = tmp_path / "kz.json"
    path.write_text(json.dumps(config))
    assert main(["kz", "--config", str(path)]) == 2
    assert f"config field '{field}'" in capsys.readouterr().err


JUST_OUTSIDE = f"{cli.MAX_KZ_COORDINATE * 10**6 + 1}/{10**6}"


@pytest.mark.parametrize("field, value", [
    ("points", ["-1/2", "0/1", "1/2", JUST_OUTSIDE]),
    ("points", ["-" + JUST_OUTSIDE, "0/1", "1/2", "1/1"]),
    ("base", JUST_OUTSIDE),
    ("base", "-" + JUST_OUTSIDE),
])
def test_kz_refuses_coordinates_beyond_the_bound(tmp_path, capsys, field,
                                                 value):
    config = {"schema": "1", "precision_bits": 64, "loop": [2, 3],
              field: value}
    started = time.process_time()
    with pytest.raises(ConfigError) as err:
        run("kz", config)
    assert time.process_time() - started < 1
    assert f"config field '{field}'" in str(err.value)
    assert str(cli.MAX_KZ_COORDINATE) in str(err.value)
    path = tmp_path / "kz.json"
    path.write_text(json.dumps(config))
    assert main(["kz", "--config", str(path)]) == 2


def test_kz_accepts_coordinates_at_the_bound():
    bound = cli.MAX_KZ_COORDINATE
    report = run("kz", {
        "schema": "1", "precision_bits": 64, "kappa": "-7/3", "loop": [2, 3],
        "points": ["-1/2", "0/1", "1/2", str(bound)], "base": str(-bound),
    })
    assert report["config"]["base"] == f"{-bound}/1"
    # a commutator has determinant 1
    assert float(report["pochhammer"]["det_defect"]) < 1e-15


def test_kz_refuses_a_kappa_whose_loops_do_not_hold_the_digits(tmp_path):
    # at kappa 1/50 the conjugation by the way out grows the transport's
    # error far beyond the report's guard digits: the commutator came out
    # with an eigenvalue near -3e55, where the Fricke identity gives
    # trace 2
    config = {"schema": "1", "kappa": "1/50"}
    with pytest.raises(PrecisionLoss, match="can grow the transport's error"):
        run("kz", config)
    path = tmp_path / "kz.json"
    path.write_text(json.dumps(config))
    assert main(["kz", "--config", str(path)]) == 1


@pytest.mark.parametrize("third", ["1/10", "1/" + str(10**400)])
def test_kz_loop_enclosing_two_punctures_is_a_domain_error(
        tmp_path, capsys, third):
    # the radius-0.15 circle around point 2 (at 0) also encloses point 3,
    # which would make the commutator trivial; the second value rounds to
    # the same float as point 2 although it is distinct from it
    config = {"schema": "1", "precision_bits": 64, "loop": [2, 3],
              "points": ["-1/2", "0/1", third, "1/1"]}
    with pytest.raises(LoopEnclosesPuncture) as err:
        run("kz", config)
    assert "point 2 (0)" in str(err.value)
    assert f"point 3 ({third})" in str(err.value)
    path = tmp_path / "kz.json"
    path.write_text(json.dumps(config))
    assert main(["kz", "--config", str(path)]) == 1
    assert "LoopEnclosesPuncture" in capsys.readouterr().err


@pytest.mark.parametrize("command, name", [
    ("lattice", "egregium_kappa3.json"),
    ("aomoto", "egregium_kappa3.json"),
    ("image", "image_chi_kappa7.json"),
    ("invariants", "invariants_level1.json"),
    ("sv", "sv_kappa7.json"),
    ("egregium", "egregium_kappa3.json"),
    ("verify-forms", "verify_forms_sl2.json"),
])
def test_marked_point_count_must_match_weights(
        tmp_path, capsys, command, name):
    base = _load(name)
    for points in (base["points"][:-1], base["points"] + ["7/1"]):
        config = {**base, "points": points}
        with pytest.raises(ConfigError) as err:
            run(command, config)
        assert "config field 'points'" in str(err.value)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path)]) == 2
        assert "config field 'points'" in capsys.readouterr().err


FUZZ_BASES = {
    "lattice": "lattice_two_points.json",
    "aomoto": "aomoto_symbolic.json",
    "image": "image_chi_kappa7.json",
    "invariants": "invariants_level1.json",
    "sv": "sv_kappa7.json",
    "egregium": "egregium_kappa3.json",
    "verify-forms": "verify_forms_sl2.json",
    "kz": "kz_kappa3.json",
}

FUZZ_VALUES = (
    None, True, False, 0, -1, 2, 1.5, "", "abc", "1/0", "1/2", "x/y",
    [], [True], ["1/0"], ["abc"], [None], [[]], [1.5], {}, {"a": 1},
)


def _fuzz_values(value):
    values = list(FUZZ_VALUES)
    if isinstance(value, list) and value:
        values += [value[:-1], value + value[-1:]]
    return values


@pytest.mark.parametrize("command", sorted(FUZZ_BASES))
def test_malformed_configs_raise_only_domain_errors(command):
    # every top-level field, and every field of a nested object, is set in
    # turn to each malformed value; run may refuse the config or compute a
    # report, but nothing other than an AomotoLabError may escape it
    base = _load(FUZZ_BASES[command])
    if command == "kz":
        base["precision_bits"] = 64
    cases = []
    for field, value in base.items():
        cases += [((field,), v) for v in _fuzz_values(value)]
        if isinstance(value, dict):
            cases += [((field, sub), v) for sub, inner in value.items()
                      for v in _fuzz_values(inner)]
    for path, value in cases:
        config = json.loads(json.dumps(base))
        target = config
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        try:
            run(command, config)
        except AomotoLabError:
            pass
        except Exception as exc:
            pytest.fail(f"{command} {'.'.join(path)}={value!r} raised "
                        f"{type(exc).__name__}: {exc}")


def test_kz_flat_sampling_exhaustion_is_a_domain_error(
        tmp_path, capsys, monkeypatch):
    def always_on_cut(zs):
        raise BranchCut("forced")

    monkeypatch.setattr(kz, "_check_branch", always_on_cut)
    config = {"schema": "1", "precision_bits": 64}
    with pytest.raises(ExhaustedRetries):
        run("kz", config)
    path = tmp_path / "kz.json"
    path.write_text(json.dumps(config))
    assert main(["kz", "--config", str(path)]) == 1
    assert "ExhaustedRetries" in capsys.readouterr().err


def test_invariants_level_far_above_the_weights_is_exact_and_fast():
    # T = sum z_i e^(i) is nilpotent, so levels past the weight sum all
    # give the dimension at the weight sum
    base = _load("invariants_level1.json")
    del base["level"]
    at_sum = run("invariants", {**base, "levels": [4]})
    started = time.monotonic()
    far = run("invariants", {**base, "levels": [10**6]})
    assert time.monotonic() - started < 5
    assert far["conformal_block_dims"] == {"1000000": at_sum["conformal_block_dims"]["4"]}


def _fusion_count(ms, level):
    """sl2 conformal blocks by the level-l fusion rule, highest weight 0 at the end."""
    counts = {0: 1}
    for m in ms:
        nxt = {}
        for a, mult in counts.items():
            for c in range(abs(a - m), min(a + m, 2 * level - a - m) + 1, 2):
                nxt[c] = nxt.get(c, 0) + mult
        counts = nxt
    return counts.get(0, 0)


def test_a_long_levels_list_is_computed_once_per_level():
    # 10^4 entries over 20 distinct levels: four of them need an
    # elimination, the rest lie past sum(m) / 2 - 1 and need none
    levels = [4 + k % 20 for k in range(10**4)]
    config = {"schema": "1", "weights": [4, 4, 4, 4], "levels": levels,
              "points": ["0/1", "1/1", "3/1", "7/1"]}
    started = time.monotonic()
    report = run("invariants", config)
    assert time.monotonic() - started < 20
    assert report["conformal_block_dims"] == {
        str(level): _fusion_count([4, 4, 4, 4], level) for level in range(4, 24)}
    assert report["config"]["levels"] == levels


def test_invariants_levels_refuse_a_large_weight_zero_space(tmp_path, capsys):
    # [5,5,5,5] has 146 weight-0 basis vectors, above MAX_ZERO_WEIGHT_DIM;
    # its dense V_0 rank takes more than ten seconds.  [4,4,4,4] has 85.
    assert zero_weight_dim((5, 5, 5, 5)) > MAX_ZERO_WEIGHT_DIM >= zero_weight_dim((4, 4, 4, 4))
    config = {"schema": "1", "weights": [5, 5, 5, 5], "level": 5,
              "points": ["0/1", "1/1", "2/1", "3/1"]}
    started = time.monotonic()
    with pytest.raises(TooManyWeightVectors) as err:
        run("invariants", config)
    assert time.monotonic() - started < 1
    assert "146" in str(err.value)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["invariants", "--config", str(path)]) == 1
    assert "TooManyWeightVectors" in capsys.readouterr().err
    # without levels the command only counts, so it is not refused
    del config["level"], config["points"]
    assert run("invariants", config)["invariants_dim"] == 6


def test_verify_forms_refuses_too_many_points(tmp_path, capsys):
    config = {**_load("verify_forms_sl2.json"), "num_points": cli.MAX_NUM_POINTS + 1}
    with pytest.raises(ConfigError) as err:
        run("verify-forms", config)
    assert "config field 'num_points'" in str(err.value)
    path = tmp_path / "config.json"
    for value in (cli.MAX_NUM_POINTS + 1, 10**6):
        path.write_text(json.dumps({**config, "num_points": value}))
        assert main(["verify-forms", "--config", str(path)]) == 2
        assert "config field 'num_points'" in capsys.readouterr().err


@pytest.mark.parametrize("command,extra", [("aomoto", {}), ("image", {"chi": True})])
def test_coloring_that_does_not_permute_the_forms_is_a_config_error(
        tmp_path, capsys, command, extra):
    # swapping t1 and t2 is allowed by the coloring but moves the line
    # t1 + 2 t2 = 5 to 2 t1 + t2 = 5, which is not in the arrangement
    forms = [AffineForm(Fraction(0), (Fraction(1), Fraction(0))),
             AffineForm(Fraction(-5), (Fraction(1), Fraction(2))),
             AffineForm(Fraction(0), (Fraction(0), Fraction(1)))]
    arr = WeightedArrangement(2, forms, [Fraction(1, 2), Fraction(1, 3),
                                         Fraction(1, 5)], coloring=[0, 0])
    config = {"schema": "1", "arrangement": arrangement_to_json(arr), **extra}
    with pytest.raises(ConfigError) as err:
        run(command, config)
    assert "config field 'arrangement'" in str(err.value)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path)]) == 2
    assert "config field 'arrangement'" in capsys.readouterr().err


def test_top_monomial_budget_admits_six_doublets():
    six = build_arrangement([1] * 6, [Fraction(k) for k in range(6)],
                            kappa=7)
    assert (six.size, six.dimension) == (21, 3)
    assert 1330 <= MAX_TOP_MONOMIALS
    check_top_size(six)
    report = run("lattice", {"schema": "1", "weights": [1] * 6,
                             "points": [f"{k}/1" for k in range(6)],
                             "kappa": "7/1"})
    assert report["hyperplanes"] == 21


@pytest.mark.parametrize("command", ["aomoto", "image", "sv", "egregium",
                                     "verify-forms", "lattice"])
def test_top_monomial_budget_refuses_five_weight_two_points(
        tmp_path, capsys, command):
    # 35 hyperplanes in five variables: C(35, 5) = 324632 top monomials
    config = {"schema": "1", "weights": [2] * 5,
              "points": ["0/1", "1/1", "2/1", "3/1", "4/1"], "kappa": "7/1"}
    started = time.monotonic()
    with pytest.raises(TooManyMonomials) as err:
        run(command, config)
    assert time.monotonic() - started < 5
    assert "324632" in str(err.value)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path)]) == 1
    assert "TooManyMonomials" in capsys.readouterr().err


def test_golden_reports():
    cases = [
        ("lattice", "lattice_two_points.json"),
        ("lattice", "lattice_three_variable.json"),
        ("invariants", "invariants_level1.json"),
        ("egregium", "egregium_kappa3.json"),
        ("egregium", "egregium_kappa7.json"),
        ("egregium", "egregium_three_variable.json"),
        ("sv", "sv_kappa7.json"),
        ("sv", "sv_two_variable.json"),
        ("aomoto", "aomoto_symbolic.json"),
        ("image", "image_chi_symbolic.json"),
        ("image", "image_chi_kappa7.json"),
        ("aomoto", "aomoto_three_variable.json"),
        ("image", "image_chi_three_variable.json"),
        ("image", "image_chi_symbolic_three_variable.json"),
        ("kz", "kz_kappa3.json"),
        ("kz", "kz_kappa_m7_3.json"),
        ("verify-forms", "verify_forms_sl2.json"),
        ("verify-forms", "verify_forms_three_variable.json"),
    ]
    for command, name in cases:
        # kz runs twice, so the golden also pins the report whose hyp2f1
        # value comes from the per-process memo
        for _ in range(2 if command == "kz" else 1):
            report = run(command, _load(name))
            text = json.dumps(report, sort_keys=True, indent=2) + "\n"
            assert text == (GOLDEN / name).read_text(), name


def _specialize_entry(entry, kappa):
    value = RatFuncKappa([parse_rational(c) for c in entry["num"]],
                         [parse_rational(c) for c in entry["den"]])
    return format_rational(specialize_kappa(value, kappa))


@pytest.mark.parametrize("weights", [[2, 2], [2, 1, 1]])
def test_symbolic_image_specializes_to_rational_image(weights):
    rng = random.Random(sum(weights) * 100 + len(weights))
    points = sorted({Fraction(rng.randint(-20, 20), rng.randint(1, 6))
                     for _ in range(len(weights))})
    while len(points) < len(weights):
        points.append(points[-1] + 1)
    base = {"schema": "1", "weights": weights,
            "points": [format_rational(p) for p in points]}
    for chi in (False, True):
        symbolic = run("image", {**base, "chi": chi})
        for kappa in ("7/1", "-5/3"):
            rational = run("image", {**base, "chi": chi, "kappa": kappa})
            assert symbolic["rank"] == rational["rank"]
            specialized = [
                [_specialize_entry(e, parse_rational(kappa)) for e in vec]
                for vec in symbolic["basis"]
            ]
            assert specialized == rational["basis"], (weights, chi, kappa)
    symbolic = run("aomoto", base)
    for kappa in ("7/1", "-5/3"):
        rational = run("aomoto", {**base, "kappa": kappa})
        for field in ("a_dims", "h_dims", "chi_fixed_top_dim"):
            assert symbolic[field] == rational[field], (weights, field, kappa)


def _general_reports(arr):
    """image (chi false, true) and aomoto payloads from the general path.

    The complex runs on arr exactly as given, weights unsplit, so this is
    the reference for the scaled path that run takes on proportional
    symbolic weights.  Images keep their scalars, types included.
    """
    cx = AomotoComplex(arr, intersection_lattice(arr))
    quotient = cx.top_quotient()
    images = {chi: shapovalov_image(quotient, use_chi=chi)
              for chi in (False, True)}
    degrees = range(arr.dimension + 1)
    aomoto = {
        "a_dims": {str(p): cx.space(p).dim for p in degrees},
        "h_dims": {str(p): cx.cohomology_dim(p) for p in degrees},
        "chi_fixed_top_dim": chi_fixed_dim(quotient),
    }
    return images, aomoto


def _entry_json(c):
    return c.to_json() if isinstance(c, RatFuncKappa) else format_rational(c)


def _assert_run_matches_general(config, arr, all_symbolic=False):
    images, aomoto = _general_reports(arr)
    for chi, (rank, basis) in images.items():
        if all_symbolic:
            assert all(type(c) is RatFuncKappa for cls in basis for c in cls.rep)
        expected = [[_entry_json(c) for c in cls.rep] for cls in basis]
        report = run("image", {**config, "chi": chi})
        assert report["rank"] == rank, chi
        if all_symbolic:
            assert all(set(entry) == {"num", "den"}
                       for vec in report["basis"] for entry in vec), chi
        # entry by entry: a Fraction serializes as "p/q", a RatFuncKappa
        # as a num/den object, so this compares types too
        assert len(report["basis"]) == len(expected)
        for got, want in zip(report["basis"], expected):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a == b, (chi, a, b)
    report = run("aomoto", config)
    assert {field: report[field] for field in aomoto} == aomoto


@pytest.mark.parametrize("weights", [[1, 1, 1, 1], [2, 1, 1], [2, 2],
                                     [2, 1, 1, 2]])
def test_scaled_symbolic_path_matches_general_path(weights):
    points = ["-1/2", "0/1", "1/2", "1/1"][:len(weights)]
    arr = build_arrangement(weights,
                            [parse_rational(p) for p in points])
    assert rational_split(arr) is not None
    _assert_run_matches_general(
        {"schema": "1", "weights": weights, "points": points}, arr,
        all_symbolic=True)


def _weight_variants():
    base = build_arrangement([2, 1, 1],
                             [Fraction(-1, 2), Fraction(0), Fraction(1, 2)])
    kappa = RatFuncKappa.kappa()
    # c_i with weights c_i / kappa, and a symmetric extra line t1 + t2 = 5
    cs = [w * kappa for w in base.weights]
    extra = (AffineForm(Fraction(-5), (Fraction(1), Fraction(1))),)

    def make(weights, forms=base.forms):
        return WeightedArrangement(base.dimension, forms, weights,
                                   coloring=base.coloring)

    return {
        "zero first weight": (
            make([kappa * 0] + list(base.weights), extra + base.forms), True),
        "Fraction zero first weight": (
            make([Fraction(0)] + list(base.weights), extra + base.forms), True),
        "scale (kappa+1)/kappa": (
            make([w * (kappa + 1) for w in base.weights]), True),
        "constant RatFuncKappa weights": (
            make([c * Fraction(3, 7) for c in cs]), True),
        # one RatFuncKappa weight anywhere makes every class entry symbolic
        "constant RatFuncKappa, then Fractions": (
            make(cs[:1] + [c.as_fraction() for c in cs[1:]]), True),
        "Fractions, then constant RatFuncKappa": (
            make([c.as_fraction() for c in cs[:2]] + cs[2:]), True),
        "Fraction 1/2 next to 1/kappa": (
            make([Fraction(1, 2)] + list(base.weights[1:])), False),
        "1/kappa next to 1/(kappa+1)": (
            make(list(base.weights[:-1]) + [1 / (kappa + 1)]), False),
        "all zero": (make([kappa * 0] * base.size), False),
    }


def _divided_split(arr):
    """rational_split's reference: every ratio formed by division."""
    w = next((x for x in arr.weights if x), None)
    if w is None or not isinstance(arr.zero, RatFuncKappa):
        return None
    ratios = [(arr.zero + x) / w for x in arr.weights]
    if not all(r.is_constant() for r in ratios):
        return None
    return w, [r.as_fraction() for r in ratios]


def test_rational_split_matches_division():
    kappa = RatFuncKappa.kappa()
    cases = [arr for arr, _ in _weight_variants().values()]
    for arr in corpus():
        def make(weights, arr=arr):
            return WeightedArrangement(arr.dimension, arr.forms, weights,
                                       coloring=arr.coloring)
        ws = arr.weights
        cases += [
            arr,
            make([w / kappa for w in ws]),
            make([w * (kappa + 1) / (kappa - 2) for w in ws]),
            # Fraction and constant RatFuncKappa weights mixed
            make([RatFuncKappa.constant(w) if k % 2 else w for k, w in enumerate(ws)]),
            make([w / kappa if k % 2 else w for k, w in enumerate(ws)]),
            # the last ratio is not constant
            make([w / kappa for w in ws[:-1]] + [ws[-1] / (kappa + 1)]),
        ]
    split_count = 0
    for arr in cases:
        got, want = rational_split(arr), _divided_split(arr)
        if want is None:
            assert got is None, arr.weights
            continue
        split_count += 1
        assert got[0] is next(x for x in arr.weights if x)
        assert got[0] == want[0]
        assert got[1].weights == tuple(want[1])
        assert all(type(r) is Fraction for r in got[1].weights)
        assert (got[1].forms, got[1].coloring) == (arr.forms, arr.coloring)
    assert split_count >= 3 * len(corpus())
    ratio = corpus()[0]
    assert rational_split(WeightedArrangement(
        1, ratio.forms, [1 / kappa, 1 / (kappa + 1)])) is None


def test_verify_forms_builds_kernel_forms_once_per_point(monkeypatch):
    # every k of one request draws its points from the same seed; the
    # kernel forms at a point are built once and read by every k
    built = []
    original = logforms._scaled_kernel_forms

    def counting(forms, weights, xy, top):
        built.append(xy)
        return original(forms, weights, xy, top)

    monkeypatch.setattr(logforms, "_scaled_kernel_forms", counting)
    for name in ("verify_forms_sl2.json", "verify_forms_three_variable.json"):
        built.clear()
        report = run("verify-forms", _load(name))
        assert report["all_hold"] and report["control_detects_perturbation"]
        checked = built[:-2]  # the control builds two at its own point
        assert len(checked) == len(set(checked)), name
        assert len(checked) < report["num_points"] * len(report["identity_holds"])


@pytest.mark.parametrize("name", sorted(_weight_variants()))
def test_explicit_weights_report_as_the_general_path(name):
    arr, proportional = _weight_variants()[name]
    assert (rational_split(arr) is not None) == proportional
    _assert_run_matches_general(
        {"schema": "1", "arrangement": arrangement_to_json(arr)}, arr,
        all_symbolic=proportional)
