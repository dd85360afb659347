import math

import numpy as np
import pytest

from chaincert.certificates import validate_lemma2
from chaincert.erm import true_risk_table
from chaincert.errors import InvalidInputError
from chaincert.generators import analytic_lip_factor, sample_chain
from chaincert.hypotheses import A2Report, verify_a2
from chaincert.metric import SeedSpec
from chaincert.presets import load_preset, preset_names
from oracles import empirical_contraction_probe

EXPECTED_NAMES = (
    "iid_singleton", "iid_two", "iid_four",
    "halving_map", "affine_triangle", "labeled_affine",
)


def test_registry_contents():
    assert preset_names() == EXPECTED_NAMES
    with pytest.raises(InvalidInputError):
        load_preset("no_such_preset")


@pytest.mark.parametrize("name", EXPECTED_NAMES)
def test_bundles_are_well_formed(name):
    bundle = load_preset(name)
    assert bundle.name == name
    assert bundle.gen.name == name
    assert math.isfinite(bundle.env.ell_H) and bundle.env.ell_H > 0
    assert bundle.env.clip <= bundle.env.ell_H
    assert 0.0 <= analytic_lip_factor(bundle.gen) < 1.0
    # declared loss scale really dominates the sampled loss geometry
    verify_a2(bundle.env, bundle.cls, bundle.gen, num_pairs=32, chain_len=8, seed=SeedSpec(3))
    # chains stay inside the declared bounds (step checks raise otherwise)
    sample_chain(bundle.gen, 64, SeedSpec(4))
    # builders hand out fresh objects
    assert load_preset(name) is not bundle


def test_analytic_factors():
    assert analytic_lip_factor(load_preset("iid_singleton").gen) == 0.0
    assert analytic_lip_factor(load_preset("iid_four").gen) == 0.0
    assert analytic_lip_factor(load_preset("halving_map").gen) == pytest.approx(0.5, abs=0)
    assert analytic_lip_factor(load_preset("affine_triangle").gen) == pytest.approx(0.2, abs=1e-15)
    assert analytic_lip_factor(load_preset("labeled_affine").gen) == pytest.approx(0.4, abs=1e-15)


def test_loss_scales_and_kappa():
    assert load_preset("iid_four").env.ell_H == 2.0
    assert load_preset("halving_map").env.ell_H == 2.0
    assert load_preset("affine_triangle").env.ell_H == 2.0
    assert load_preset("labeled_affine").env.ell_H == 1.5
    assert load_preset("affine_triangle").gen.metric.kappa == 2.0
    assert load_preset("labeled_affine").gen.metric.kappa == 1.5


def test_probe_agrees_with_declared_factor():
    for name in ("halving_map", "affine_triangle", "labeled_affine"):
        bundle = load_preset(name)
        probe = empirical_contraction_probe(bundle.gen, num_pairs=48, chain_len=10, seed=SeedSpec(8))
        assert probe <= analytic_lip_factor(bundle.gen) + 1e-9


# A2 reports (num_pairs=64, chain_len=12, seed 9) and probe ratios
# (num_pairs=48, chain_len=10, seed 8) as the point-at-a-time checks gave them
FROZEN_CHECKS = {
    "halving_map": (A2Report(1.0, 0.75, 58, 2.0), "0x1.0000000001c8cp-1"),
    "affine_triangle": (A2Report(0.9997887887001977, 0.4037194127739788, 64, 2.0),
                        "0x1.99999999999b4p-3"),
    "labeled_affine": (A2Report(1.5, 0.19920898437499998, 64, 1.5), "0x1.9999999999c5cp-2"),
    "iid_four": (A2Report(1.6842105263157894, 0.9, 57, 2.0), "0x0.0p+0"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_CHECKS))
def test_row_wise_checks_keep_the_frozen_values(name):
    bundle = load_preset(name)
    report, probe = FROZEN_CHECKS[name]
    assert verify_a2(bundle.env, bundle.cls, bundle.gen, num_pairs=64, chain_len=12,
                     seed=SeedSpec(9)) == report
    ratio = empirical_contraction_probe(bundle.gen, num_pairs=48, chain_len=10, seed=SeedSpec(8))
    assert ratio.hex() == probe


def test_iid_four_exact_risks():
    bundle = load_preset("iid_four")
    table = true_risk_table(bundle.cls, bundle.gen, bundle.env)
    assert {est.method for est in table} == {"atom_expectation"}
    values = [est.value for est in table]
    assert values == pytest.approx([0.475, 0.2875, 0.30416666666666664, 0.525], abs=1e-12)
    # unique minimizer sits strictly inside the grid
    assert int(np.argmin(values)) == 1


def test_halving_stationary_risks():
    bundle = load_preset("halving_map")
    table = true_risk_table(bundle.cls, bundle.gen, bundle.env)
    assert {est.method for est in table} == {"fixed_point"}
    values = [est.value for est in table]
    assert values == pytest.approx([0.0, 0.0, 0.5, 0.0], abs=0)


def test_labeled_affine_chain_geometry():
    bundle = load_preset("labeled_affine")
    traj = sample_chain(bundle.gen, 200, SeedSpec(5))
    xs = np.asarray(traj.xs).reshape(-1)
    ys = np.asarray(traj.ys).reshape(-1)
    assert xs.min() >= 0.0 and xs.max() <= 0.4
    # labels follow the declared decreasing linear map after the start
    assert np.allclose(ys[1:], 0.5 - 0.5 * xs[1:], atol=1e-12)


def test_iid_four_mean_deviation_bound_holds():
    # the spread constants give the signed-max complexity real mass, so the
    # mean deviation check passes without the symmetrized crutch
    bundle = load_preset("iid_four")
    report = validate_lemma2(
        bundle.gen, bundle.cls, bundle.env, n=48, trials=48,
        seed=SeedSpec(21), rad_outer=16, mc_draws=2048,
    )
    assert report.passed
