"""Correctness gate for the CLI outputs of one benchmark run.

Runs in the benchmark process, outside the timed region, against the
package in the checkout.  Each check returns a list of problems (empty
when the output is correct) and, for converge runs, the relative error of
the energy at the smallest width against the predicted limit.
"""

from __future__ import annotations

import csv
import io

# Agreement of an output limit with its closed form, relative to the size
# of the terms it sums: the two routes differ only in summation order.
ROUNDOFF_TOL = 1e-12


def _rows(csv_bytes):
    return list(csv.DictReader(io.StringIO(csv_bytes.decode())))


def _closed_form(cfg, dim_n, micelle):
    """Return a function (eta1, eta2) -> ((bilayer, scale), (micelle, scale)).

    The bilayer limit G1 is affine in eta1 + eta2 for constant a*, b*:
    a* * bending_integral - (eta1 + eta2) * b* * |Gamma|.  The generated
    configurations use the default well.  The micelle pair is None unless
    `micelle` is set, which costs one shooting solve.
    """
    import fchlab as fl

    geom = fl.geometry_from_config(cfg["geometry"])
    params = fl.default_params()
    prof = fl.solve_profile(params)
    bend = prof.a_star * fl.bending_integral(geom)
    area = prof.b_star * geom.surface_measure
    alpha = cfg.get("alpha")
    sigma = fl.shoot_micelle(dim_n, params).sigma_n if micelle else None

    def limits(eta1, eta2):
        bl = (bend - (eta1 + eta2) * area, abs(bend) + abs(eta1 + eta2) * area)
        if sigma is None:
            return bl, None
        mi = fl.micelle_limit(dim_n, alpha, eta1, eta2, sigma)
        mi_scale = alpha * sigma * (0.5 * abs(eta1) + abs(2.0 - dim_n) / (2.0 * dim_n) * abs(eta2))
        return bl, (mi, mi_scale)

    return limits


def _off(value, ref_and_scale):
    ref, scale = ref_and_scale
    return abs(value - ref) > ROUNDOFF_TOL * scale


def check_converge(cfg, spec, csv_bytes):
    import fchlab as fl

    problems = []
    rows = _rows(csv_bytes)
    if len(rows) != spec["rows"]:
        return [f"expected {spec['rows']} widths, got {len(rows)}"], None
    eps = [float(r["eps"]) for r in rows]
    if any(b >= a for a, b in zip(eps, eps[1:])):
        problems.append("widths are not strictly decreasing")
    energy = float(rows[-1]["energy"])
    predicted = float(rows[-1]["predicted_limit"])
    rel_err = abs(energy - predicted) / abs(predicted)
    if not rel_err <= spec["limit_tol"]:
        problems.append(f"limit_rel_err {rel_err:.3g} > {spec['limit_tol']:.1g}")

    dim_n = fl.geometry_from_config(cfg["geometry"]).ambient_n
    micelle = cfg["kind"] == "micelle"
    bl, mi = _closed_form(cfg, dim_n, micelle)(cfg["eta1"], cfg["eta2"])
    if _off(predicted, mi if micelle else bl):
        problems.append(f"predicted_limit {predicted!r} disagrees with the closed form")
    return problems, rel_err


def check_phase(cfg, spec, csv_bytes):
    import fchlab as fl

    rows = _rows(csv_bytes)
    if len(rows) != spec["rows"]:
        return [f"expected {spec['rows']} cells, got {len(rows)}"], None
    (lo1, hi1, n1), (lo2, hi2, n2) = cfg["eta1_range"], cfg["eta2_range"]
    cells = [
        (lo1 + (hi1 - lo1) * i / (n1 - 1), lo2 + (hi2 - lo2) * j / (n2 - 1)) for i in range(n1) for j in range(n2)
    ]
    dim_n = fl.geometry_from_config(cfg["geometry"]).ambient_n
    limits = _closed_form(cfg, dim_n, micelle=True)
    problems = []
    for row, (eta1, eta2) in zip(rows, cells):
        if (float(row["eta1"]), float(row["eta2"])) != (eta1, eta2) or row["valid"] != "1":
            problems.append(f"unexpected cell {row['eta1']},{row['eta2']} valid={row['valid']}")
            continue
        bl, mi = float(row["bilayer_limit"]), float(row["micelle_limit"])
        bl_ref, mi_ref = limits(eta1, eta2)
        if _off(bl, bl_ref) or _off(mi, mi_ref):
            problems.append(f"cell ({eta1}, {eta2}): limits {bl!r}, {mi!r} disagree with the closed form")
        if row["winner"] != ("micelle" if mi < bl else "bilayer"):
            problems.append(f"cell ({eta1}, {eta2}): wrong winner {row['winner']}")
    return problems, None
