"""Release gate: one check per shipped claim, each printing a PASS/FAIL line.

Every check re-derives its target through an independent route (closed
forms, enumeration oracles, or frozen constants) and runs at desk scale
against a wall-clock budget. The determinism check at the end replays the
randomized pieces with identical seeds and compares the serialized per-trial
rows byte for byte.
"""
import math
import os
import tempfile
import time

import numpy as np

from chaincert.certificates import (
    coverage_experiment,
    deviation_constant,
    confidence_level,
    invert_epsilon,
    sample_complexity,
    validate_lemma1,
    validate_lemma2,
)
from chaincert.complexity import (
    LossMatrix,
    loss_matrix,
    rademacher_exact,
    rademacher_expected,
    rademacher_mc,
)
from chaincert.erm import erm, true_risk_table
from chaincert.generators import (
    Trajectory,
    analytic_lip_factor,
    sample_chain,
    sample_stationary_chain,
)
from chaincert.hypotheses import (
    HypothesisClass,
    finalize_env,
    make_abs_loss,
    tabulated_hypothesis,
    window_loss_values,
)
from chaincert.metric import MetricSpec, SeedSpec, ZPoint, derive_stream
from chaincert.presets import load_preset, preset_names
from chaincert.reporting import write_rows_csv
from chaincert.transport import (
    EmpiricalMeasure,
    contraction_curve,
    w1_exact,
)

from oracles import distance_probes, kr_dual_lower_bound, w1_bruteforce

_TMP = tempfile.mkdtemp(prefix="acceptance_rows_")
_STORE = {}
_COUNTER = [0]
# CSV cells are ints and floats, so a row names its preset by its place in
# preset_names()
_preset_index = preset_names().index


def _csv_bytes(header, rows):
    _COUNTER[0] += 1
    path = os.path.join(_TMP, f"rows_{_COUNTER[0]}.csv")
    write_rows_csv(header, rows, path)
    with open(path, "rb") as fh:
        return fh.read()


def _finish(num, name, limit, started, ok, extra=""):
    elapsed = time.perf_counter() - started
    in_time = elapsed < limit
    verdict = "PASS" if (ok and in_time) else "FAIL"
    print(f"[acceptance {num:2d}/10] {name}: {verdict} "
          f"({elapsed:.1f}s, budget {limit:.0f}s){extra}")
    assert ok, f"{name}: check failed{extra}"
    assert in_time, f"{name}: runtime {elapsed:.1f}s blew the {limit:.0f}s budget"


# 1 -- sign-sampling complexity estimate against full enumeration ----------------


def _rows_rademacher_agreement():
    rng = np.random.default_rng(11)
    rows = []
    hits = 0
    for case in range(50):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(1, 13))
        matrix = LossMatrix(rng.uniform(0.0, 1.0, size=(k, n)), 1.0)
        exact = rademacher_exact(matrix)
        mc = rademacher_mc(matrix, draws=100_000, seed=SeedSpec(1_000 + case))
        hit = abs(mc.value - exact.value) <= 3.0 * mc.se
        hits += int(hit)
        rows.append((case, exact.value, mc.value, mc.se, int(hit)))
    return rows, hits


def test_rademacher_estimator_agrees_with_enumeration():
    t0 = time.perf_counter()
    rows, hits = _rows_rademacher_agreement()
    _STORE["rademacher"] = _csv_bytes(("case", "exact", "mc", "se", "hit"), rows)
    hand = rademacher_exact(LossMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0))
    _finish(1, "complexity estimator vs enumeration", 30.0, t0,
            hits >= 48 and hand.value == 0.25, extra=f" [{hits}/50 within 3 se]")


# 2 -- transport solver against permutation enumeration and duality --------------


def _rows_transport_agreement():
    rng = np.random.default_rng(22)
    spec = MetricSpec(1, 1, 4.0)
    rows = []
    worst_gap = 0.0
    dual_ok = True
    for case in range(100):
        m = int(rng.integers(1, 8))
        pts1 = tuple(ZPoint((float(a),), (float(b),)) for a, b in rng.random((m, 2)))
        pts2 = tuple(ZPoint((float(a),), (float(b),)) for a, b in rng.random((m, 2)))
        mu1 = EmpiricalMeasure.uniform(pts1, spec)
        mu2 = EmpiricalMeasure.uniform(pts2, spec)
        exact, _ = w1_exact(mu1, mu2)
        brute = w1_bruteforce(mu1, mu2)
        probes = distance_probes(list(mu1.atoms) + list(mu2.atoms), spec)
        dual = kr_dual_lower_bound(mu1, mu2, probes)
        worst_gap = max(worst_gap, abs(exact - brute))
        dual_ok = dual_ok and dual <= exact + 1e-12
        rows.append((case, exact, brute, dual))
    return rows, worst_gap, dual_ok


def test_transport_solver_agrees_with_bruteforce():
    t0 = time.perf_counter()
    rows, worst_gap, dual_ok = _rows_transport_agreement()
    _STORE["transport"] = _csv_bytes(("case", "exact", "bruteforce", "dual_lower"), rows)
    _finish(2, "transport solver vs enumeration", 10.0, t0,
            worst_gap <= 1e-9 and dual_ok, extra=f" [worst gap {worst_gap:.2e}]")


# 3 -- geometric decay of the distance to the invariant measure ------------------


def _rows_contraction_decay():
    halving = load_preset("halving_map")
    curve_h = contraction_curve(halving.gen, [halving.gen.z0], 10,
                                atoms_per_step=4, pi_tol=1e-13, seed=SeedSpec(3))
    affine = load_preset("affine_triangle")
    curve_a = contraction_curve(affine.gen, [affine.gen.z0], 8,
                                atoms_per_step=128, pi_tol=1e-8, seed=SeedSpec(4))
    rows = [(_preset_index("halving_map"), n, v) for n, v in curve_h]
    rows += [(_preset_index("affine_triangle"), n, v) for n, v in curve_a]
    return rows, curve_h, curve_a


def test_contraction_curve_matches_closed_form_and_rate():
    t0 = time.perf_counter()
    rows, curve_h, curve_a = _rows_contraction_decay()
    _STORE["contraction"] = _csv_bytes(("preset", "n", "w1"), rows)
    worst = max(abs(v - 0.5 ** (n + 1)) for n, v in curve_h)
    ns = np.array([float(n) for n, v in curve_a if n >= 1])
    logs = np.array([math.log(v) for n, v in curve_a if n >= 1])
    slope = float(np.polyfit(ns, logs, 1)[0])
    target = math.log(analytic_lip_factor(load_preset("affine_triangle").gen)) + 0.1
    _finish(3, "invariant-distance decay", 60.0, t0,
            worst <= 1e-12 and slope <= target,
            extra=f" [closed-form err {worst:.1e}, slope {slope:.3f} vs {target:.3f}]")


# 4 -- the slack contract of the learner -----------------------------------------


def _rows_erm_contract():
    rows = []
    ok = True
    for name in preset_names():
        bundle = load_preset(name)
        traj = sample_chain(bundle.gen, 40, SeedSpec(40))
        matrix = loss_matrix(bundle.cls, traj, bundle.env)
        for eps in (0.0, 0.05, 0.3):
            report = erm(bundle.cls, matrix, epsilon=eps)
            good = report.achieved_gap <= eps
            if eps == 0.0:
                good = good and report.empirical_risk == report.min_risk
            ok = ok and good
            rows.append((len(rows), eps, report.achieved_gap, int(good)))
    # arbitrary loss patterns, realized through exact-match tabulated members
    rng = np.random.default_rng(44)
    spec = MetricSpec(1, 1, 2.0)
    for case in range(100):
        k = int(rng.integers(2, 9))
        n = int(rng.integers(2, 13))
        values = rng.random((k, n))
        xs = np.arange(n, dtype=float).reshape(n, 1)
        members = tuple(
            tabulated_hypothesis(f"t{i}", xs, values[i].reshape(n, 1), 1.0)
            for i in range(k)
        )
        cls = HypothesisClass(members)
        env = finalize_env(make_abs_loss(1.0), cls, spec)
        traj = Trajectory(xs=xs, ys=np.zeros((n, 1)), seed=SeedSpec(0), metric=spec)
        eps = float(rng.random() * 0.4)
        matrix = loss_matrix(cls, traj, env)
        slack = erm(cls, matrix, epsilon=eps)
        tight = erm(cls, matrix, epsilon=0.0)
        good = (slack.achieved_gap <= eps
                and tight.achieved_gap == 0.0
                and tight.empirical_risk == tight.min_risk
                and tight.min_risk == float(values.mean(axis=1).min()))
        ok = ok and good
        rows.append((len(rows), eps, slack.achieved_gap, int(good)))
    return rows, ok


def test_erm_slack_contract_holds_exactly():
    t0 = time.perf_counter()
    rows, ok = _rows_erm_contract()
    _STORE["erm"] = _csv_bytes(("case", "epsilon", "achieved_gap", "ok"), rows)
    _finish(4, "learner slack contract", 5.0, t0, ok,
            extra=f" [{len(rows)} cases]")


# 5 -- one-sided deviation tail ---------------------------------------------------


def _tail_report():
    bundle = load_preset("iid_singleton")
    return validate_lemma1(bundle.gen, bundle.cls, bundle.env, n=500, epsilon=0.1,
                           trials=400, seed=SeedSpec(5))


def test_deviation_tail_within_stated_rate():
    t0 = time.perf_counter()
    report = _tail_report()
    _STORE["tail"] = _csv_bytes(report.row_header, report.rows)
    _finish(5, "deviation tail rate", 60.0, t0, report.passed,
            extra=f" [freq {report.statistic:.4f} vs {report.bound + report.margin:.4f}]")


# 6 -- expected worst-class deviation against complexity plus decay ---------------


def _mean_reports():
    out = []
    for name in ("iid_four", "halving_map"):
        bundle = load_preset(name)
        out.append((name, validate_lemma2(bundle.gen, bundle.cls, bundle.env,
                                          n=200, trials=200, seed=SeedSpec(6))))
    return out


def test_mean_deviation_bounded_by_complexity():
    t0 = time.perf_counter()
    reports = _mean_reports()
    rows = [(_preset_index(name), t, phi) for name, rep in reports for t, phi in rep.rows]
    _STORE["mean"] = _csv_bytes(("preset", "trial", "phi"), rows)
    ok = all(rep.passed for _, rep in reports)
    gaps = ", ".join(f"{name} {rep.statistic:.4f}<={rep.bound + rep.margin:.4f}"
                     for name, rep in reports)
    _finish(6, "mean deviation vs complexity", 120.0, t0, ok, extra=f" [{gaps}]")


# 7 -- certificate coverage at stated confidence ----------------------------------


def _coverage_reports():
    iid = load_preset("iid_four")
    rep_iid = coverage_experiment(iid.gen, iid.cls, iid.env, n=500, epsilon=0.1,
                                  trials=200, seed=SeedSpec(7))
    halving = load_preset("halving_map")
    rep_h = coverage_experiment(halving.gen, halving.cls, halving.env, n=200,
                                epsilon=0.1, trials=200, seed=SeedSpec(8))
    return rep_iid, rep_h


def test_certificate_coverage_meets_confidence():
    t0 = time.perf_counter()
    rep_iid, rep_h = _coverage_reports()
    rows = [(_preset_index("iid_four"),) + row for row in rep_iid.rows]
    rows += [(_preset_index("halving_map"),) + row for row in rep_h.rows]
    _STORE["coverage"] = _csv_bytes(("preset",) + rep_iid.row_header, rows)

    d = dict(rep_iid.details)
    c = deviation_constant(d["ell_H"], d["ell_F"])
    delta = 2.0 * math.exp(-2.0 * 0.1**2 * 500 / c**2)
    se = math.sqrt(max(d["confidence"] * (1.0 - d["confidence"]), 0.0) / 200)
    iid_ok = (abs(d["confidence"] - (1.0 - delta)) <= 1e-12
              and d["coverage_population"] >= d["confidence"] - 3.0 * se
              and d["coverage_empirical"] >= d["confidence"] - 3.0 * se
              and rep_iid.passed)
    dh = dict(rep_h.details)
    halving_ok = (dh["coverage_population"] == 1.0
                  and dh["coverage_empirical"] == 1.0 and rep_h.passed)
    # halving_map at n = 200, eps = 0.1 certifies at confidence 0, so its
    # coverage cannot fail, and says so
    assert (d["vacuous"], dh["confidence"], dh["vacuous"]) == (False, 0.0, True)
    _finish(7, "certificate coverage", 180.0, t0, iid_ok and halving_ok,
            extra=(f" [pop {d['coverage_population']:.3f}, emp "
                   f"{d['coverage_empirical']:.3f}, conf {d['confidence']:.3f}]"))


# 8 -- slack/confidence/sample-size inversions ------------------------------------


def _rows_inversion_grid():
    rows = []
    ok = True
    for delta in (0.2, 0.1, 0.05, 0.01, 0.001):
        for n in (50, 200, 1000, 5000, 20000):
            for ell_H in (0.5, 1.0):
                for ell_F in (0.0, 0.5):
                    eps = invert_epsilon(delta, n, ell_H, ell_F)
                    n_back = sample_complexity(delta, eps, ell_H, ell_F)
                    conf = confidence_level(eps, n, ell_H, ell_F)
                    good = abs(n_back - n) <= 1 and abs(conf - (1.0 - delta)) <= 1e-9
                    ok = ok and good
                    rows.append((delta, n, ell_H, ell_F, eps, n_back, int(good)))
    return rows, ok


def test_inversions_round_trip_and_reproduce_worked_values():
    t0 = time.perf_counter()
    rows, ok = _rows_inversion_grid()
    _STORE["inversion"] = _csv_bytes(
        ("delta", "n", "ell_H", "ell_F", "epsilon", "n_back", "ok"), rows)
    assert len(rows) == 100
    eps_str = f"{invert_epsilon(0.05, 1000, 1.0, 0.0):.4g}"
    conf_str = f"{confidence_level(0.1, 2000, 1.0, 0.5):.6f}"
    _finish(8, "inversion consistency", 1.0, t0,
            ok and eps_str == "0.04295" and conf_str == "0.999909",
            extra=f" [eps {eps_str}, conf {conf_str}]")


# 9 -- complexity also bounds the deviation from below ----------------------------


def _rows_lower_bound():
    bundle = load_preset("iid_four")
    n, trials = 200, 200
    truths = np.array([est.value for est in
                       true_risk_table(bundle.cls, bundle.gen, bundle.env,
                                       seed=SeedSpec(90))])
    base = SeedSpec(9)
    phis = np.empty(trials)
    for t in range(trials):
        traj = sample_stationary_chain(bundle.gen, n, 1e-3, derive_stream(base, t))
        risks = window_loss_values(bundle.cls, traj.xs, traj.ys, bundle.env).mean(axis=1)
        phis[t] = float(np.abs(risks - truths).max())
    rad = rademacher_expected(bundle.cls, bundle.gen, bundle.env, n,
                              outer=32, seed=SeedSpec(91))
    rows = [(t, float(phis[t])) for t in range(trials)]
    return rows, phis, rad, bundle.env.clip


def test_mean_deviation_exceeds_complexity_lower_bound():
    t0 = time.perf_counter()
    rows, phis, rad, sup_loss = _rows_lower_bound()
    _STORE["lower"] = _csv_bytes(("trial", "phi"), rows)
    mean_phi = float(phis.mean())
    se_phi = float(phis.std(ddof=1)) / math.sqrt(len(phis))
    floor = (0.5 * rad.value - sup_loss * math.sqrt(math.log(2.0) / (2 * 200))
             - 3.0 * math.hypot(se_phi, 0.5 * rad.se))
    _finish(9, "complexity lower bound", 60.0, t0, mean_phi >= floor,
            extra=f" [mean phi {mean_phi:.4f} >= floor {floor:.4f}]")


# 10 -- byte-identical reruns ----------------------------------------------------


def test_reruns_are_byte_identical():
    t0 = time.perf_counter()
    recipes = {
        "rademacher": lambda: _csv_bytes(("case", "exact", "mc", "se", "hit"),
                                         _rows_rademacher_agreement()[0]),
        "transport": lambda: _csv_bytes(("case", "exact", "bruteforce", "dual_lower"),
                                        _rows_transport_agreement()[0]),
        "contraction": lambda: _csv_bytes(("preset", "n", "w1"), _rows_contraction_decay()[0]),
        "erm": lambda: _csv_bytes(("case", "epsilon", "achieved_gap", "ok"),
                                  _rows_erm_contract()[0]),
        "tail": lambda: (lambda rep: _csv_bytes(rep.row_header, rep.rows))(_tail_report()),
        "mean": lambda: _csv_bytes(("preset", "trial", "phi"),
                                   [(_preset_index(name), t, phi)
                                    for name, rep in _mean_reports() for t, phi in rep.rows]),
        "coverage": lambda: (lambda pair: _csv_bytes(
            ("preset",) + pair[0].row_header,
            [(_preset_index("iid_four"),) + r for r in pair[0].rows]
            + [(_preset_index("halving_map"),) + r for r in pair[1].rows]))(_coverage_reports()),
        "inversion": lambda: _csv_bytes(
            ("delta", "n", "ell_H", "ell_F", "epsilon", "n_back", "ok"),
            _rows_inversion_grid()[0]),
        "lower": lambda: _csv_bytes(("trial", "phi"), _rows_lower_bound()[0]),
    }
    mismatches = []
    for name, recipe in recipes.items():
        baseline = _STORE.get(name)
        if baseline is None:  # allows running this test alone
            baseline = recipe()
        if recipe() != baseline:
            mismatches.append(f"{name} (rerun)")
    _finish(10, "byte-identical reruns", 600.0, t0, not mismatches,
            extra=f" [{' ,'.join(mismatches) or 'all identical'}]")
