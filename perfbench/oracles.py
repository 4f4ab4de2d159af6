"""Checks of each report against values the benchmark derives on its own.

Nothing here calls into ``aomoto_lab``.  Counts of invariants and
conformal blocks come from the Clebsch-Gordan and level-k fusion rules,
cohomology dimensions from the combinatorics of the two-variable
discriminantal arrangement, and the hypergeometric value from
``mpmath.hyp2f1``.  ``check`` returns a list of failure messages; an
empty list means the report passed.
"""

from fractions import Fraction

import mpmath

HYP2F1_ARGS = (Fraction(1, 3), Fraction(-1, 3), Fraction(1, 3), Fraction(2))
# The report prints 30 significant digits, and the contour integral
# agrees with mpmath to that many at both precisions used.
HYP2F1_TOL = mpmath.mpf("1e-25")
UNIPOTENCE_TOL = mpmath.mpf("1e-6")
NONTRIVIAL_MIN = mpmath.mpf("1e-3")
FLAT_TOL = mpmath.mpf("1e-10")


def _decompose(weights, step):
    """Multiplicities of highest weights in an iterated sl2 product."""
    counts = {0: 1}
    for m in weights:
        nxt = {}
        for j, mult in counts.items():
            for k in step(j, m):
                nxt[k] = nxt.get(k, 0) + mult
        counts = nxt
    return counts


def cg_invariants(weights):
    """Multiplicity of the trivial sl2 module, by Clebsch-Gordan."""
    return _decompose(weights, lambda j, m: range(abs(j - m), j + m + 1, 2)).get(0, 0)


def fusion_blocks(weights, level):
    """sl2 conformal blocks at a level, by the level-k fusion rule."""
    def step(j, m):
        return range(abs(j - m), min(j + m, 2 * level - j - m) + 1, 2)
    return _decompose(weights, step).get(0, 0)


def two_variable_dims(n):
    """Degree-wise monomial-space dimensions and generic cohomology.

    The arrangement of n distinct marked points in two variables has the
    2n lines t_a = z_i and the diagonal.  Its flats of rank two are the
    n(n-1) double points (z_i, z_j) and the n triple points (z_i, z_i),
    so the degree dimensions are 1, 2n + 1 and n(n-1) + 2n.  Generic
    weights leave only top cohomology, of dimension the Euler
    characteristic n(n-1); the swap of the two variables acts freely on
    the complement, so its sign part has half of that.
    """
    a_dims = (1, 2 * n + 1, n * (n - 1) + 2 * n)
    top = abs(sum((-1) ** p * d for p, d in enumerate(a_dims)))
    return a_dims, top


def hyp2f1_reference(precision_bits):
    with mpmath.workprec(precision_bits + 64):
        return mpmath.hyp2f1(*(mpmath.mpf(x.numerator) / x.denominator
                               for x in HYP2F1_ARGS))


def _weights(config):
    return [int(w) for w in config["weights"]]


def _expect(failures, label, got, want):
    if got != want:
        failures.append(f"{label}: got {got!r}, expected {want!r}")


def _check_invariants(config, report, failures):
    weights = _weights(config)
    _expect(failures, "invariants_dim", report.get("invariants_dim"),
            cg_invariants(weights))
    want = {str(level): fusion_blocks(weights, level) for level in config["levels"]}
    _expect(failures, "conformal_block_dims", report.get("conformal_block_dims"), want)


def _check_verify_forms(config, report, failures):
    _expect(failures, "all_hold", report.get("all_hold"), True)
    _expect(failures, "control_detects_perturbation",
            report.get("control_detects_perturbation"), True)


def _check_egregium(config, report, failures):
    _expect(failures, "match", report.get("match"), True)
    _expect(failures, "invariants_dim", report.get("invariants_dim"),
            cg_invariants(_weights(config)))


def _check_aomoto(config, report, failures):
    a_dims, top = two_variable_dims(len(config["weights"]))
    _expect(failures, "a_dims", report.get("a_dims"),
            {str(p): d for p, d in enumerate(a_dims)})
    _expect(failures, "h_dims", report.get("h_dims"), {"0": 0, "1": 0, "2": top})
    _expect(failures, "chi_fixed_top_dim", report.get("chi_fixed_top_dim"), top // 2)


def _check_image(config, report, failures):
    weights = _weights(config)
    _, top = two_variable_dims(len(weights))
    rank = report.get("rank")
    if config["chi"]:
        _expect(failures, "rank", rank, cg_invariants(weights))
    else:
        # the sign half contributes the invariants, the symmetric half
        # is hit in full
        _expect(failures, "rank", rank, cg_invariants(weights) + top // 2)
    _expect(failures, "basis size", len(report.get("basis", ())), rank)


def _mpf(text):
    return mpmath.mpf(text)


def _check_kz(config, report, failures, references):
    bits = config["precision_bits"]
    with mpmath.workprec(bits + 64):
        poch = report["pochhammer"]
        det_tol = mpmath.mpf(2) ** (-(bits // 2))
        if not _mpf(poch["det_defect"]) < det_tol:
            failures.append(f"det_defect {poch['det_defect']} not below 2^-{bits // 2}")
        if Fraction(config["kappa"]) == 3:
            if not _mpf(poch["unipotence_residual"]) < UNIPOTENCE_TOL:
                failures.append(f"unipotence_residual {poch['unipotence_residual']}")
            for key in ("identity_distance", "a21_abs"):
                if not _mpf(poch[key]) > NONTRIVIAL_MIN:
                    failures.append(f"{key} {poch[key]} shows a trivial monodromy")
            flat = report.get("flat_sections", {})
            for key in ("phi_max_residual", "fv_max_residual"):
                if key not in flat or not _mpf(flat[key]) < FLAT_TOL:
                    failures.append(f"{key} {flat.get(key)} not below {FLAT_TOL}")
        value = mpmath.mpc(*(_mpf(x) for x in report["hyp2f1"]["value"]))
        gap = abs(value - references[bits])
        if not gap < HYP2F1_TOL:
            failures.append(f"hyp2f1 differs from mpmath by {mpmath.nstr(gap, 5)}")


_CHECKS = {
    "invariants": _check_invariants,
    "verify-forms": _check_verify_forms,
    "egregium": _check_egregium,
    "aomoto": _check_aomoto,
    "image": _check_image,
}


class Oracle:
    """Checks reports; holds the mpmath references the kz checks need."""

    def __init__(self, precisions=()):
        self.references = {bits: hyp2f1_reference(bits) for bits in precisions}

    def check(self, request, report):
        failures = []
        if report.get("command") != request.command:
            return [f"report is for command {report.get('command')!r}"]
        try:
            if request.command == "kz":
                _check_kz(request.config, report, failures, self.references)
            else:
                _CHECKS[request.command](request.config, report, failures)
        except (KeyError, TypeError, ValueError) as exc:
            failures.append(f"malformed report: {type(exc).__name__}: {exc}")
        return failures
