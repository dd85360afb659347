"""Output checks for one workload round, made after the round's timed span.

Every expected value is derived here, apart from the code that produced the
output: constants from the preset's declarations, closed forms, an
enumeration of sign vectors written for this file, transport costs
re-added from the atom files. A check that fails raises CheckError.
"""
from __future__ import annotations

import csv
import json
import math
import os

import numpy as np


class CheckError(Exception):
    """An output of the program is not what the method guarantees."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(a: float, b: float, tol: float, what: str) -> None:
    require(abs(a - b) <= tol * max(1.0, abs(b)), f"{what}: {a!r} != {b!r} (tol {tol})")


def _read_csv(path: str) -> tuple[list, list]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    require(bool(rows), f"{path} is empty")
    return rows[0], rows[1:]


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def declared_constants(preset: str) -> dict:
    """ell_F, ell_H and the value bound L_H from what the preset declares:
    per-draw feature factors, the label map's Lipschitz constant, the metric
    normalizer kappa, the hypotheses' declared Lipschitz constants and the
    loss clip."""
    from chaincert.presets import load_preset

    b = load_preset(preset)
    gen, cls, env = b.gen, b.cls, b.env
    factors = np.asarray(gen.lip_x_per_theta) * (1.0 + gen.label_map.lip) / gen.metric.kappa
    ell_F = float(np.dot(np.asarray(gen.theta.weights), factors))
    sup_lip = max(h.declared_lip for h in cls.members)
    ell_H = max(env.clip, env.loss_lip * max(sup_lip, 1.0) * gen.metric.kappa)
    return {"ell_F": ell_F, "ell_H": ell_H, "L_H": env.clip, "class_size": len(cls),
            "bundle": b}


def massart(L_H: float, class_size: int, n: int) -> float:
    """Finite-class ceiling on the Rademacher average: L_H sqrt(2 ln r / n)."""
    return L_H * math.sqrt(2.0 * math.log(class_size) / n)


def _verdict(stdout: str, name: str) -> None:
    require(f"{name}: PASS" in stdout, f"no '{name}: PASS' line on standard output")


def check_coverage(out: str, stdout: str, cfg: dict, const: dict) -> None:
    """Coverage on halving_map: every predictor but 'zero' is lossless at the
    fixed point, so the optimal risk is 0, nothing deviates, and both
    certificates cover every trial."""
    _verdict(stdout, "coverage")
    summary = _read_json(os.path.join(out, "coverage_summary.json"))
    require(summary["passed"] is True, "summary says FAIL")
    ing = summary["ingredients"]
    header, rows = _read_csv(os.path.join(out, "coverage_trials.csv"))
    require(header == ["trial", "deviation", "radius_pop", "radius_emp",
                        "covered_pop", "covered_emp"], f"trial header {header}")
    require(len(rows) == cfg["trials"], f"{len(rows)} trial rows for {cfg['trials']} trials")
    require(ing["opt_risk"] == 0.0, f"opt_risk {ing['opt_risk']!r} is not 0")
    require(ing["coverage_population"] == 1.0 and ing["coverage_empirical"] == 1.0,
             "coverage below 1.0")

    n, eps, tol, w_bar = cfg["n"], cfg["epsilon"], cfg["tol"], cfg["w_bar"]
    ell_F, ell_H = const["ell_F"], const["ell_H"]
    _close(ing["ell_F"], ell_F, 1e-12, "ell_F")
    _close(ing["ell_H"], ell_H, 1e-12, "ell_H")
    confidence = max(0.0, 1.0 - 2.0 * math.exp(-2.0 * eps**2 * n * (1.0 - ell_F) ** 2
                                                / ell_H**2))
    _close(ing["confidence"], confidence, 1e-12, "confidence")
    burn_in = max(1, math.ceil(math.log(tol) / math.log(ell_F)))
    rad, se = ing["rademacher"], ing["rademacher_se"]
    rad_input = rad + 3.0 * se + ell_H * ell_F**burn_in
    radius = 4.0 * rad_input + 2.0 * ell_H * ell_F**n * w_bar + 4.0 * eps
    _close(ing["radius_population"], radius, 1e-12, "radius_population")
    ceiling = massart(const["L_H"], const["class_size"], n)
    require(-3.0 * se <= rad <= ceiling + 3.0 * se,
             f"rademacher {rad!r} outside [0, {ceiling!r}] by more than 3 se ({se!r})")
    for row in rows:
        require(row[1] == "0.0", f"trial {row[0]} deviates by {row[1]}")
        require(float(row[2]) == ing["radius_population"], f"trial {row[0]} radius_pop")
        require(row[4] == "1" and row[5] == "1", f"trial {row[0]} not covered")


def _abs_loss_rows(cls, env, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Clipped Euclidean prediction error, one row per hypothesis."""
    require(env.kind == "abs_clipped", f"loss {env.kind!r} has no reference here")
    rows = []
    for h in cls.members:
        if h.kind == "constant":
            pred = np.broadcast_to(h.value, ys.shape)
        elif h.kind == "linear":
            pred = np.einsum("ij,tj->ti", h.weight, xs) + h.bias
        else:
            raise CheckError(f"hypothesis kind {h.kind!r} has no reference here")
        rows.append(np.minimum(np.sqrt(((pred - ys) ** 2).sum(axis=1)), env.clip))
    return np.array(rows)


def rademacher_by_doubling(values: np.ndarray) -> float:
    """Average over all 2^n sign vectors of max_h (1/n) sum_t sigma_t L_h(t).

    The score table for the first k signs is doubled into the table for k+1
    (one copy adds L[:, k], the other subtracts it), so every sign vector's
    score is built by n additions, independently of any chunking."""
    h, n = values.shape
    scores = np.zeros((1, h))
    for t in range(n):
        scores = np.concatenate([scores + values[:, t], scores - values[:, t]])
    return float(scores.max(axis=1).mean() / n)


def check_lemma3(out: str, stdout: str, cfg: dict, const: dict, recheck: tuple) -> None:
    """Lemma 3 on affine_triangle with exact enumeration at n <= 20."""
    from chaincert.generators import sample_stationary_chain
    from chaincert.metric import SeedSpec, derive_stream

    _verdict(stdout, "lemma3")
    summary = _read_json(os.path.join(out, "validate_lemma3_summary.json"))
    require(summary["passed"] is True, "summary says FAIL")
    header, rows = _read_csv(os.path.join(out, "validate_lemma3_trials.csv"))
    require(header == ["trial", "phi", "rhat", "success"], f"trial header {header}")
    require(len(rows) == cfg["trials"], f"{len(rows)} trial rows for {cfg['trials']} trials")

    n, eps = cfg["n"], cfg["epsilon"]
    c = const["ell_H"] / (1.0 - const["ell_F"])
    _close(summary["bound"], 1.0 - math.exp(-2.0 * eps**2 * n / c**2), 1e-12, "bound")
    ceiling = massart(const["L_H"], const["class_size"], n)
    rhats = [float(r[2]) for r in rows]
    for t, rhat in enumerate(rhats):
        require(0.0 <= rhat <= ceiling + 1e-12,
                 f"trial {t} rhat {rhat!r} outside [0, {ceiling!r}]")

    bundle = const["bundle"]
    batch = derive_stream(SeedSpec(cfg["seed"]), 0)
    for t in recheck:
        traj = sample_stationary_chain(bundle.gen, 2 * n, cfg["tol"], derive_stream(batch, t))
        values = _abs_loss_rows(bundle.cls, bundle.env, traj.xs[:n], traj.ys[:n])
        _close(rhats[t], rademacher_by_doubling(values), 1e-12, f"trial {t} rhat")


def _log_slope(curve: list) -> float:
    pts = [(n, v) for n, v in curve if n >= 1]
    require(all(v > 0.0 for _, v in pts), "contraction curve touches zero")
    ns = np.array([float(n) for n, _ in pts])
    return float(np.polyfit(ns, np.log([v for _, v in pts]), 1)[0])


def _read_curve(path: str) -> list:
    header, rows = _read_csv(path)
    require(header == ["n", "w1"], f"curve header {header}")
    return [(int(r[0]), float(r[1])) for r in rows]


def _read_atoms(path: str, dim_x: int) -> tuple[np.ndarray, np.ndarray]:
    _, rows = _read_csv(path)
    data = np.array([[float(v) for v in r] for r in rows])
    return data[:, :dim_x], data[:, dim_x:]


def _plan_cost(summary: dict, mu_path: str, nu_path: str, dim_x: int, kappa: float) -> None:
    """Re-add the plan's cost from the atom files and check its marginals."""
    xs1, ys1 = _read_atoms(mu_path, dim_x)
    xs2, ys2 = _read_atoms(nu_path, dim_x)
    plan = np.array(summary["plan"])
    i, j, m = plan[:, 0].astype(int), plan[:, 1].astype(int), plan[:, 2]
    dist = (np.linalg.norm(xs1[i] - xs2[j], axis=1)
            + np.linalg.norm(ys1[i] - ys2[j], axis=1)) / kappa
    _close(float(np.dot(m, dist)), summary["cost"], 1e-9, "plan cost")
    require(np.abs(np.bincount(i, m, len(xs1)) - 1.0 / len(xs1)).max() <= 1e-9,
             "plan misses the source marginal")
    require(np.abs(np.bincount(j, m, len(xs2)) - 1.0 / len(xs2)).max() <= 1e-9,
             "plan misses the target marginal")


def check_transport(spec: dict, codes: list, const_by_preset: dict) -> None:
    """Decay curves against the closed form and the rate; transport costs of
    one measure written two ways (assignment and LP) against each other."""
    require(all(code == 0 for code in codes), f"exit codes {codes}")
    for curve in spec["curves"]:
        points = _read_curve(os.path.join(curve["out"], "contraction_curve.csv"))
        require([n for n, _ in points] == list(range(curve["n_max"] + 1)),
                 f"{curve['preset']} curve steps")
        if curve["check"] == "closed_form":
            worst = max(abs(v - 0.5 ** (n + 1)) for n, v in points)
            require(worst <= 1e-12, f"halving curve off 0.5^(n+1) by {worst!r}")
        else:
            ell_F = const_by_preset[curve["preset"]]["ell_F"]
            slope = _log_slope(points)
            require(slope <= math.log(ell_F) + 0.1,
                     f"{curve['preset']} log slope {slope!r} above ln {ell_F} + 0.1")

    cloud = const_by_preset[spec["cloud_preset"]]["bundle"].gen.metric
    costs = {}
    for call in spec["calls"]:
        summary = _read_json(os.path.join(call["out"], "wasserstein_summary.json"))
        mu, nu = call["files"]
        require((summary["source_atoms"], summary["target_atoms"])
                 == (call["atoms"][0], call["atoms"][1]), f"atom counts in {call['out']}")
        _plan_cost(summary, mu, nu, cloud.dim_x, cloud.kappa)
        costs[(mu, nu)] = summary["cost"]
    for pair in spec["pairs"]:
        assignment = costs[(pair["mu"], pair["nu"])]
        lp = costs[(pair["mu"], pair["nu2"])]
        require(abs(lp - assignment) <= 1e-9,
                 f"LP cost {lp!r} vs assignment cost {assignment!r} for one measure")
    for (mu, nu), cost in costs.items():
        if (nu, mu) in costs:
            require(costs[(nu, mu)] == cost, f"swapped files give {costs[(nu, mu)]!r} != {cost!r}")
