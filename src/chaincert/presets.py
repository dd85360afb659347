"""Ready-made chain, hypothesis-class, and loss bundles.

Every experiment entry point (CLI, scripts, acceptance suite) works in terms
of a named preset so that runs are reproducible from a name plus a seed
instead of a pile of constructor arguments. Each builder returns a fresh
bundle; nothing here caches state. The governing maps live at module level so
bundles stay picklable and their reprs stay readable.

Analytic constants shipped here (contraction factors, kappa, loss scales) are
verified by the test suite against the probe and the finalized loss bounds.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError
from .generators import (
    BoxBound,
    Generator,
    ZPoint,
    affine_ifs_generator,
    deterministic_map_generator,
    identity_label,
    iid_generator,
    labeled_lipschitz_generator,
    linear_label,
)
from .hypotheses import (
    HypothesisClass,
    LossEnv,
    constant_grid,
    constant_hypothesis,
    finalize_env,
    linear_hypothesis,
    make_abs_loss,
)
from .metric import MetricSpec


@dataclass(frozen=True)
class PresetBundle:
    name: str
    gen: Generator
    cls: HypothesisClass
    env: LossEnv


def _halve(x, theta):
    return 0.5 * x + 0.25


def _scalar_affine(x, theta):
    a, b = theta
    return a * x + b


_UNIT = BoxBound([0.0], [1.0])

# iid label mean over these atoms is 0.475; the grid constant 1/3 is the
# unique minimizer of the absolute loss among the four shipped predictors
_SPREAD_ATOMS = (
    (0.0, 0.1), (0.15, 0.9), (0.3, 0.2), (0.45, 0.8),
    (0.6, 0.3), (0.75, 0.75), (0.9, 0.15), (1.0, 0.6),
)


def _iid_gen(atom_pairs, name: str) -> Generator:
    atoms = tuple(ZPoint(x, y) for x, y in atom_pairs)
    weights = np.full(len(atoms), 1.0 / len(atoms))
    return iid_generator(atoms, weights, MetricSpec(1, 1, 2.0), _UNIT, _UNIT, name=name)


def _finish(name: str, gen: Generator, cls: HypothesisClass) -> PresetBundle:
    env = finalize_env(make_abs_loss(clip=1.0), cls, gen.metric)
    return PresetBundle(name=name, gen=gen, cls=cls, env=env)


def _build_iid_singleton() -> PresetBundle:
    """Independent draws from two atoms, one constant predictor; the
    scalar-mean tail case."""
    gen = _iid_gen(((0.2, 0.2), (0.7, 0.7)), "iid_singleton")
    return _finish("iid_singleton", gen, constant_grid([0.0]))


def _build_iid_two() -> PresetBundle:
    """Independent draws from two atoms, two constant predictors at the
    label range ends."""
    gen = _iid_gen(((0.2, 0.2), (0.7, 0.7)), "iid_two")
    return _finish("iid_two", gen, constant_grid([0.0, 1.0]))


def _build_iid_four() -> PresetBundle:
    """Independent draws from eight spread atoms, four constant predictors;
    the default coverage benchmark."""
    gen = _iid_gen(_SPREAD_ATOMS, "iid_four")
    return _finish("iid_four", gen, constant_grid([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]))


def _build_halving_map() -> PresetBundle:
    """Deterministic contraction toward 0.5 with geometric state decay;
    distances to the invariant point are exact, three of the four predictors
    are optimal in the limit."""
    gen = deterministic_map_generator(
        governing_map=_halve,
        lip_x=0.5,
        label_map=identity_label(),
        metric=MetricSpec(1, 1, 2.0),
        x_bound=_UNIT,
        y_bound=_UNIT,
        z0=ZPoint(1.0, 1.0),
        fixed_point=ZPoint(0.5, 0.5),
        name="halving_map",
    )
    cls = HypothesisClass(
        (
            linear_hypothesis("ident", [[1.0]], [0.0]),
            constant_hypothesis("half", [0.5]),
            constant_hypothesis("zero", [0.0]),
            linear_hypothesis("step", [[0.5]], [0.25]),
        )
    )
    return _finish("halving_map", gen, cls)


def _build_affine_triangle() -> PresetBundle:
    """Planar random affine maps pulled toward three shifted centers; mean
    contraction factor 0.2, plug-in distance curves decay at that rate."""
    eye = np.eye(2)
    gen = affine_ifs_generator(
        mats=[0.2 * eye, 0.2 * eye, 0.2 * eye],
        vecs=[[0.3, 0.0], [-0.3, 0.0], [0.0, 0.3]],
        weights=[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        label_map=identity_label(),
        attractor_radius=0.2,
        z0_x=[0.3, 0.3],
        name="affine_triangle",
    )
    cls = HypothesisClass(
        (
            linear_hypothesis("ident", eye, [0.0, 0.0]),
            constant_hypothesis("zero", [0.0, 0.0]),
            linear_hypothesis("half", 0.5 * eye, [0.0, 0.0]),
            constant_hypothesis("north", [0.0, 0.15]),
        )
    )
    return _finish("affine_triangle", gen, cls)


def _build_labeled_affine() -> PresetBundle:
    """Scalar random affine features with a decreasing linear label map;
    mean contraction factor 0.4 on the joint state."""
    gen = labeled_lipschitz_generator(
        governing_map=_scalar_affine,
        theta_atoms=((0.3, 0.2), (0.5, 0.1)),
        weights=[0.5, 0.5],
        lip_x_per_theta=[0.3, 0.5],
        label_map=linear_label([[-0.5]], [0.5]),
        metric=MetricSpec(1, 1, 1.5),
        x_bound=BoxBound([0.0], [0.4]),
        y_bound=BoxBound([0.3], [0.5]),
        z0=ZPoint(0.4, 0.3),
        name="labeled_affine",
    )
    cls = HypothesisClass(
        (
            constant_hypothesis("mid", [0.4]),
            linear_hypothesis("echo", [[1.0]], [0.0]),
            constant_hypothesis("low", [0.3]),
        )
    )
    return _finish("labeled_affine", gen, cls)


_REGISTRY: dict[str, Callable[[], PresetBundle]] = {
    "iid_singleton": _build_iid_singleton,
    "iid_two": _build_iid_two,
    "iid_four": _build_iid_four,
    "halving_map": _build_halving_map,
    "affine_triangle": _build_affine_triangle,
    "labeled_affine": _build_labeled_affine,
}


def preset_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def load_preset(name: str) -> PresetBundle:
    try:
        builder = _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise InvalidInputError(f"unknown preset {name!r}; known presets: {known}") from None
    return builder()
