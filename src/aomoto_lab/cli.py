"""Command-line front end.

One JSON config in, one JSON report out.  Rationals travel as "p/q"
strings in both directions so no float ever touches the exact pipeline;
floating results from the connection module are serialized as decimal
strings, the hyp2f1 self-test at a fixed display precision and the other
kz numbers to the digits their error bounds support.  Reports embed the
resolved config, including every defaulted field, and are byte-stable
for a given config: identical inputs give identical bytes.

Exit codes: 0 success, 1 domain error (a computation refused its
input), 2 config error (the job never started).

kz and mpmath are imported inside the kz handler and its helpers, so
the exact commands never load them: in a process that writes no
bytecode cache, importing kz raises the peak memory by about 2.3 MB
and mpmath by about 2.7 MB (CPython 3.11, x86-64).
"""

import argparse
import functools
import json
import random
import sys
from fractions import Fraction
from math import prod

from . import linalg
from .aomoto import (
    AomotoComplex, check_top_size, chi_fixed_dim, rational_split,
    shapovalov_image,
)
from .arrangement import (
    arrangement_from_json, arrangement_to_json, color_group,
    intersection_lattice, os_dimension,
)
from .errors import (
    AomotoLabError, ConfigError, ExhaustedRetries, UnsupportedAlgebra,
)
from .exactfield import (
    DEFAULT_PRECISION_BITS, RatFuncKappa, format_rational, parse_rational,
)
from .liealg import conformal_block_dim, invariants_dim
from .logforms import (
    BoundaryKernel, coordinate_functions, grundlegend_control,
    verify_grundlegend,
)
from .svmap import (
    build_arrangement, egregium_check, num_variables, sv_classes,
)

COMMANDS = (
    "lattice", "aomoto", "image", "invariants", "sv", "egregium",
    "verify-forms", "kz",
)

DISPLAY_DIGITS = 30
# A kz report prints each pochhammer and flat_sections number rounded to
# the decade KZ_GUARD_DIGITS above its error bound (see _cmd_kz), so that
# two runs whose errors stay below the bounds print the same digits
# unless a value lies within an error of a rounding boundary: for a
# random value, at most 2 * 10^-KZ_GUARD_DIGITS of the time.
KZ_GUARD_DIGITS = 4
# Most verify-forms sample points: at this bound a four-doublet request
# takes about 0.3 s of CPU on one core of a 2-vCPU x86-64 (Xeon) VM, and
# a [2,1,1,2] request, in three variables, about 1.2 s.
MAX_NUM_POINTS = 1000
# Highest kz precision: the cost of a request grows about threefold per
# doubling of the bits, and at this bound a cold kappa-3 request takes
# 7-8 s of CPU on a shared 2-vCPU VM, three quarters of it in the hyp2f1
# self-test.
MAX_PRECISION_BITS = 1024
# Largest absolute value of a kz point or base.  The Taylor steps of a
# loop's way out grow with the log of the distance between the base and
# the points: with the base at -10^6 a 64-bit request takes 76 steps,
# against 18 at the default base, and about 0.5 s of CPU on the same VM;
# its 1024-bit commutator takes 9-14 s.  The bound also keeps every
# coordinate a finite float, which the flat samples and the loop base
# pass through.
MAX_KZ_COORDINATE = 10**6


# ---------------------------------------------------------------------------
# config plumbing


def _fail(field, message):
    raise ConfigError(f"config field '{field}': {message}")


def _parse_rat(value, field):
    if isinstance(value, bool):
        _fail(field, "expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except (ValueError, ZeroDivisionError):
            _fail(field, f"cannot parse rational {value!r}")
    _fail(field, f"expected an integer or 'p/q' string, got {type(value).__name__}")


def _parse_points(config, count):
    """The marked points, which must number one per marked weight."""
    raw = config.get("points")
    if not isinstance(raw, list) or not raw:
        _fail("points", "expected a nonempty list of rationals")
    if len(raw) != count:
        _fail("points", f"expected {count} marked points, got {len(raw)}")
    return [_parse_rat(v, f"points[{i}]") for i, v in enumerate(raw)]


def _parse_weights(config):
    raw = config.get("weights")
    if not isinstance(raw, list) or not raw:
        _fail("weights", "expected a nonempty list")
    out = []
    for i, w in enumerate(raw):
        if isinstance(w, list):
            if len(w) != 1:
                _fail(f"weights[{i}]", "sl2 weights have one fundamental coordinate")
            w = w[0]
        if not isinstance(w, int) or isinstance(w, bool) or w < 0:
            _fail(f"weights[{i}]", "expected a nonnegative integer")
        out.append(w)
    return out


def _parse_algebra(config):
    """The algebra's echo.  sl2, type A and rank 1, is the only one computed.

    A malformed object is a config error; a well-formed type and rank
    other than A1 is refused with UnsupportedAlgebra.
    """
    data = config.get("algebra", {"type": "A", "rank": 1})
    if not isinstance(data, dict):
        _fail("algebra", "expected an object with 'type' and 'rank'")
    letter = data.get("type", "A")
    rank = data.get("rank", 1)
    if (not isinstance(letter, str) or letter.upper() not in tuple("ABCDEFG")
            or not isinstance(rank, int) or isinstance(rank, bool) or rank < 1):
        _fail("algebra", "'type' must be a letter from A to G and 'rank' a "
                         "positive integer")
    if (letter.upper(), rank) != ("A", 1):
        raise UnsupportedAlgebra(f"only sl2 (type A1) is supported, got type "
                                 f"{letter}{rank}")
    return {"type": letter, "rank": rank}


def _parse_kappa(config, required=True, default=None):
    if "kappa" not in config:
        if required and default is None:
            _fail("kappa", "required for this command")
        return default
    kappa = _parse_rat(config["kappa"], "kappa")
    if kappa == 0:
        _fail("kappa", "must be nonzero")
    return kappa


def _seed(config):
    seed = config.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        _fail("seed", "expected an integer")
    return seed


def _resolve_arrangement(config):
    """Arrangement from explicit JSON or from the algebra recipe."""
    if "arrangement" in config:
        try:
            arr = arrangement_from_json(config["arrangement"])
            if arr.coloring is not None:  # a coloring must permute the forms
                color_group(arr)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            _fail("arrangement", str(exc))
        return arr, {"arrangement": arrangement_to_json(arr)}
    algebra_echo = _parse_algebra(config)
    weights = _parse_weights(config)
    points = _parse_points(config, len(weights))
    kappa = _parse_kappa(config, required=False)
    arr = build_arrangement(weights, points, kappa=kappa)
    echo = {
        "algebra": algebra_echo,
        "weights": list(config["weights"]),
        "points": [format_rational(p) for p in points],
        "kappa": format_rational(kappa) if kappa is not None else None,
        "beta": _parse_beta(config, arr.dimension),
    }
    return arr, echo


def _parse_beta(config, dimension):
    """beta colors each variable by a simple root; sl2 has only root 0."""
    beta = config.get("beta", [0] * dimension)
    if (not isinstance(beta, list) or len(beta) != dimension
            or any(not isinstance(b, int) or isinstance(b, bool) or b != 0
                   for b in beta)):
        _fail("beta", "expected the simple-root index 0 for every variable")
    return list(beta)


def _fmt_scalar(x):
    if isinstance(x, RatFuncKappa):
        return x.to_json()
    return format_rational(x)


def _fmt_vector(vec):
    return [_fmt_scalar(x) for x in vec]


def _fmt_mpf(x):
    import mpmath
    return mpmath.nstr(mpmath.mpf(x), DISPLAY_DIGITS)


def _fmt_complex(x):
    import mpmath
    z = mpmath.mpc(x)
    return [_fmt_mpf(mpmath.re(z)), _fmt_mpf(mpmath.im(z))]


def _fmt_known(x, error):
    """x rounded to the decade KZ_GUARD_DIGITS above error; 0 below it."""
    import mpmath
    step = mpmath.mpf(10) ** (int(mpmath.ceil(mpmath.log10(error)))
                              + KZ_GUARD_DIGITS)
    return _fmt_mpf(mpmath.nint(mpmath.mpf(x) / step) * step)


def _fmt_known_complex(x, error):
    import mpmath
    z = mpmath.mpc(x)
    return [_fmt_known(mpmath.re(z), error), _fmt_known(mpmath.im(z), error)]


# ---------------------------------------------------------------------------
# command handlers


def _cmd_lattice(config):
    arr, echo = _resolve_arrangement(config)
    check_top_size(arr)
    lattice = intersection_lattice(arr)
    counts = {}
    for codim in range(1, max(arr.dimension, 2) + 1):
        counts[f"codim{codim}"] = len(lattice.by_codim(codim))
    report = {
        "edge_counts": counts,
        "monomial_space_dims": {
            str(p): os_dimension(lattice, p) for p in range(arr.dimension + 1)
        },
        "hyperplanes": arr.size,
        "dimension": arr.dimension,
    }
    return report, echo


def _complex(arr):
    """The Aomoto complex to compute on, and the factor w^M for its classes.

    Symbolic weights w * r_i with rational r_i (rational_split) run on the
    r_i; other weights run as given, with factor None.
    """
    check_top_size(arr)
    lattice = intersection_lattice(arr)
    split = rational_split(arr)
    if split is None:
        return AomotoComplex(arr, lattice), None
    w, rational = split
    factor = prod([w] * arr.dimension, start=RatFuncKappa.constant(1))
    return AomotoComplex(rational, lattice), factor


def _cmd_aomoto(config):
    arr, echo = _resolve_arrangement(config)
    cx, _ = _complex(arr)
    a_dims = {str(p): cx.space(p).dim for p in range(arr.dimension + 1)}
    h_dims = {str(p): cx.cohomology_dim(p) for p in range(arr.dimension + 1)}
    report = {"a_dims": a_dims, "h_dims": h_dims}
    if arr.coloring is not None:
        report["chi_fixed_top_dim"] = chi_fixed_dim(cx.top_quotient())
    return report, echo


def _cmd_image(config):
    arr, echo = _resolve_arrangement(config)
    use_chi = config.get("chi", False)
    if not isinstance(use_chi, bool):
        _fail("chi", "expected true or false")
    cx, factor = _complex(arr)
    rank, basis = shapovalov_image(cx.top_quotient(), use_chi=use_chi)
    reps = [cls.rep if factor is None else [factor * c for c in cls.rep]
            for cls in basis]
    report = {
        "rank": rank,
        "basis": [_fmt_vector(rep) for rep in reps],
        "chi": use_chi,
    }
    echo = dict(echo)
    echo["chi"] = use_chi
    return report, echo


def _cmd_invariants(config):
    algebra_echo = _parse_algebra(config)
    weights = _parse_weights(config)
    report = {"invariants_dim": invariants_dim(weights)}
    echo = {"algebra": algebra_echo, "weights": list(config["weights"])}
    levels = None
    if "levels" in config:
        levels = config["levels"]
        if (not isinstance(levels, list)
                or any(not isinstance(l, int) or isinstance(l, bool) for l in levels)):
            _fail("levels", "expected a list of integers")
    elif "level" in config:
        level = config["level"]
        if not isinstance(level, int) or isinstance(level, bool):
            _fail("level", "expected an integer")
        levels = [level]
    if levels is not None:
        points = _parse_points(config, len(weights))
        dims = {
            str(level): conformal_block_dim(weights, level, points)
            for level in dict.fromkeys(levels)
        }
        echo["points"] = [format_rational(p) for p in points]
        echo["levels"] = list(levels)
        if "level" in config and "levels" not in config:
            report["conformal_block_dim"] = dims[str(config["level"])]
        report["conformal_block_dims"] = dims
    return report, echo


def _recipe(config):
    """The sl2 data of sv and egregium requests, and its echo.

    Fields are validated in the order algebra, weights, points, kappa,
    seed and beta.
    """
    algebra_echo = _parse_algebra(config)
    weights = _parse_weights(config)
    points = _parse_points(config, len(weights))
    kappa = _parse_kappa(config)
    echo = {
        "algebra": algebra_echo,
        "weights": list(config["weights"]),
        "points": [format_rational(p) for p in points],
        "kappa": format_rational(kappa),
        "seed": _seed(config),
    }
    if "beta" in config:
        echo["beta"] = _parse_beta(config, num_variables(weights))
    return weights, points, kappa, echo


def _cmd_sv(config):
    weights, points, kappa, echo = _recipe(config)
    quotient, psis, classes, rows = sv_classes(weights, points, kappa)
    report = {
        "functional_count": len(psis),
        "functionals": [_fmt_vector(psi) for psi in psis],
        "classes": [_fmt_vector(cls.rep) for cls in classes],
        "rank": linalg.rank(rows) if rows else 0,
        "top_cohomology_dim": quotient.dim,
    }
    return report, echo


def _cmd_egregium(config):
    weights, points, kappa, echo = _recipe(config)
    return egregium_check(weights, points, kappa), echo


def _cmd_verify_forms(config):
    arr, echo = _resolve_arrangement(config)
    seed = _seed(config)
    num_points = config.get("num_points", 5)
    if not isinstance(num_points, int) or isinstance(num_points, bool) \
            or not 1 <= num_points <= MAX_NUM_POINTS:
        _fail("num_points", f"expected an integer from 1 to {MAX_NUM_POINTS}")
    check_top_size(arr)
    F_list = coordinate_functions(arr.dimension)
    results = {}
    kernel = BoundaryKernel(arr, F_list)  # every k mostly draws the same points
    for k in range(1, arr.dimension + 1):
        results[f"k={k}"] = verify_grundlegend(
            arr, F_list, k, num_points=num_points, seed=seed, kernel=kernel
        )
    control = grundlegend_control(arr, F_list, seed=seed, kernel=kernel)
    report = {
        "identity_holds": results,
        "all_hold": all(results.values()),
        "control_detects_perturbation": control,
        "num_points": num_points,
    }
    echo = dict(echo)
    echo["seed"] = seed
    echo["num_points"] = num_points
    return report, echo


def _kz_flat_samples(points, seed, count=5):
    from .kz import _check_branch
    rng = random.Random(seed)
    samples = []
    tries = 0
    while len(samples) < count:
        tries += 1
        if tries > 200:
            raise ExhaustedRetries("could not sample branch-safe points")
        z = [
            complex(
                float(p) + rng.randint(-30, 30) / 100.0,
                rng.randint(-45, 45) / 100.0,
            )
            for p in points
        ]
        try:
            _check_branch(z)
        except AomotoLabError:
            continue
        samples.append(z)
    return samples


# The hyp2f1 self-test of a kz report: fixed arguments, with the closed
# form (1 - u)^(-b) = exp(i pi / 3).
_HYP2F1_ARGS = (Fraction(1, 3), Fraction(-1, 3), Fraction(1, 3), Fraction(2))


@functools.lru_cache(maxsize=4)
def _hyp2f1_self_test(precision_bits):
    """The self-test's value, computed once per precision per process."""
    from .kz import hyp2f1
    return hyp2f1(*_HYP2F1_ARGS, precision_bits=precision_bits)


def _cmd_kz(config):
    import mpmath

    from .kz import (
        KzSystem, _mat_identity, _mat_norm, eigenvalues_2x2,
        flat_section_residual, pochhammer_monodromy,
    )
    # the connection acts on four doublets
    points = (
        _parse_points(config, 4) if "points" in config
        else [Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)]
    )
    kappa = _parse_kappa(config, default=Fraction(3))
    precision_bits = config.get("precision_bits", DEFAULT_PRECISION_BITS)
    if not isinstance(precision_bits, int) or isinstance(precision_bits, bool) \
            or not 64 <= precision_bits <= MAX_PRECISION_BITS:
        _fail("precision_bits",
              f"expected an integer from 64 to {MAX_PRECISION_BITS}")
    seed = _seed(config)
    tol_raw = config.get("tol")
    tol = None
    if tol_raw is not None:
        with mpmath.workprec(precision_bits + 64):
            try:
                tol = mpmath.mpf(tol_raw)
            except (TypeError, ValueError):
                _fail("tol", f"expected a positive number, got {tol_raw!r}")
        if isinstance(tol_raw, bool) or not (mpmath.isfinite(tol) and tol > 0):
            _fail("tol", f"expected a positive number, got {tol_raw!r}")
    loop = config.get("loop", [2, 4])
    if (not isinstance(loop, list) or len(loop) != 2
            or any(not isinstance(i, int) or isinstance(i, bool) for i in loop)
            or not all(2 <= i <= len(points) for i in loop) or loop[0] == loop[1]):
        # point 1 is the one that moves, so it is no puncture to circle
        _fail("loop", "expected two distinct point indices from 2 to 4")
    base = _parse_rat(config["base"], "base") if "base" in config else points[0]
    for field, value in [*(("points", p) for p in points), ("base", base)]:
        if abs(value) > MAX_KZ_COORDINATE:
            _fail(field, f"expected absolute values up to {MAX_KZ_COORDINATE}")
    sys_obj = KzSystem(points, kappa, precision_bits=precision_bits)
    # the closed-form flat sections have kappa = 3 exponents
    samples = _kz_flat_samples(points, seed) if kappa == 3 else None
    with mpmath.workprec(precision_bits + 64):
        matrix = pochhammer_monodromy(
            sys_obj, loop[0] - 1, loop[1] - 1, base=complex(base), tol=tol
        )
        eigs = eigenvalues_2x2(matrix)
        ident = _mat_identity(sys_obj.d)
        distance = _mat_norm(
            [[matrix[r][c] - ident[r][c] for c in range(sys_obj.d)]
             for r in range(sys_obj.d)]
        )
        det = matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
        # Error bounds of the printed numbers.  The transport resolves
        # each entry to about tol times the matrix norm N, and a tol
        # below the default 2^-(precision_bits / 2) makes the digits
        # surer, not more numerous, so the bytes of a report do not move
        # when the transport tightens.  An eigenvalue moves by about
        # err * N / sep (sep the gap between the two), at most by the
        # split sqrt(err * N) of a defective pair, and at least by err.
        # The determinant, ad - bc, sums four products of an entry's
        # error with an entry.  The flat-section residuals are
        # normalized, so their scale is 1.
        accuracy = mpmath.mpf(2) ** -(precision_bits // 2)
        if tol is not None and tol > accuracy:
            accuracy = tol
        norm = max(mpmath.mpf(1), _mat_norm(matrix))
        err = accuracy * norm
        split = mpmath.sqrt(err * norm)
        sep = abs(eigs[0] - eigs[1])
        eig_err = max(err, split if sep * split <= err * norm
                      else err * norm / sep)
        pochhammer = {
            "matrix": [[_fmt_known_complex(x, err) for x in row]
                       for row in matrix],
            # largest real part first, then largest imaginary part: the
            # order the two square roots come in is noise when the pair
            # is close to conjugate
            "eigenvalues": sorted(
                (_fmt_known_complex(e, eig_err) for e in eigs),
                key=lambda pair: [Fraction(x) for x in pair], reverse=True,
            ),
            "unipotence_residual":
                _fmt_known(max(abs(e - 1) for e in eigs), eig_err),
            "identity_distance": _fmt_known(distance, err),
            "a21_abs": _fmt_known(abs(matrix[1][0]), err),
            "det_defect": _fmt_known(abs(det - 1), 4 * norm * err),
        }
        flat = {"applies": False,
                "reason": "closed-form exponents hold at kappa 3/1 only"}
        if samples is not None:
            worst_phi = mpmath.mpf(0)
            worst_fv = mpmath.mpf(0)
            for z in samples:
                worst_phi = max(worst_phi, flat_section_residual(sys_obj, z))
                worst_fv = max(
                    worst_fv, flat_section_residual(sys_obj, z, section="fv")
                )
            flat = {
                "phi_max_residual": _fmt_known(worst_phi, accuracy),
                "fv_max_residual": _fmt_known(worst_fv, accuracy),
                "samples": len(samples),
            }
        value = _hyp2f1_self_test(precision_bits)
        hyp = {
            "a": format_rational(_HYP2F1_ARGS[0]),
            "b": format_rational(_HYP2F1_ARGS[1]),
            "c": format_rational(_HYP2F1_ARGS[2]),
            "u": format_rational(_HYP2F1_ARGS[3]),
            "value": _fmt_complex(value),
            "abs": _fmt_mpf(abs(value)),
        }
    report = {"pochhammer": pochhammer, "hyp2f1": hyp, "flat_sections": flat}
    echo = {
        "points": [format_rational(p) for p in points],
        "kappa": format_rational(kappa),
        "precision_bits": precision_bits,
        "seed": seed,
        "tol": tol_raw,
        "loop": list(loop),
        "base": format_rational(base),
    }
    return report, echo


_HANDLERS = {
    "lattice": _cmd_lattice,
    "aomoto": _cmd_aomoto,
    "image": _cmd_image,
    "invariants": _cmd_invariants,
    "sv": _cmd_sv,
    "egregium": _cmd_egregium,
    "verify-forms": _cmd_verify_forms,
    "kz": _cmd_kz,
}


def run(command, config):
    """Execute one command on a config dict and return the report dict."""
    if command not in _HANDLERS:
        raise ConfigError(f"unknown command {command!r}")
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    if "schema" in config and config["schema"] != "1":
        _fail("schema", f"unsupported schema {config['schema']!r}")
    payload, echo = _HANDLERS[command](config)
    echo = dict(echo)
    echo["schema"] = "1"
    report = {"schema": "1", "command": command, "config": echo}
    report.update(payload)
    return report


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


def _emit(report, out_path):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="aomoto-lab",
        description="exact cohomology of weighted arrangements and the "
                    "four-point connection",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", help="write the report here instead of stdout")
        if name == "kz":
            p.add_argument("--kappa", help="override config kappa (p/q)")
            p.add_argument("--base", help="override loop base point (p/q)")
            p.add_argument("--loop", help="override the two circled points "
                                          "(2 to 4), e.g. 2,4")
            p.add_argument("--tol", help="override transport tolerance")
            p.add_argument("--precision-bits", type=int,
                           help="override working precision")
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.command == "kz":
            if args.kappa is not None:
                config["kappa"] = args.kappa
            if args.base is not None:
                config["base"] = args.base
            if args.loop is not None:
                parts = args.loop.split(",")
                if len(parts) != 2:
                    raise ConfigError("--loop expects two indices like 2,4")
                try:
                    config["loop"] = [int(x) for x in parts]
                except ValueError:
                    raise ConfigError("--loop indices must be integers")
            if args.tol is not None:
                config["tol"] = args.tol
            if args.precision_bits is not None:
                config["precision_bits"] = args.precision_bits
        report = run(args.command, config)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except AomotoLabError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1
    _emit(report, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
