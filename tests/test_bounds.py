"""Every numeric argument goes through ``exceptions.check_bound``, which hands
back the value in its bound's type: a count as an exact int, or the error of
the code that owns it, and any other number as a float, or that error.

One table lists each owner's arguments, so every owner answers a fraction,
an integral float, a numpy int and an int past the float range alike.
"""
import numpy as np
import pytest

from coldgp.aleatoric import relabel_disagreement_mc, relabel_ratio_curve
from coldgp.classification import EssConfig, classification_temperature_sweep
from coldgp.data import gen_cluster_classification, gen_rbf_regression, load_cifar10
from coldgp.exceptions import (
    ColdGPError,
    EmptyInputError,
    IndexOutOfRangeError,
    LabelOutOfRangeError,
    NonPositiveScaleError,
    NonPositiveTemperatureError,
)
from coldgp.kernels import KernelSpec
from coldgp.regression import _check_noise_stds
from coldgp.rng import derive_seed, random_stream
from helpers import write_cifar_fixture

RBF = KernelSpec("rbf")
SEED_MAX = 2**64 - 1


@pytest.fixture(scope="module")
def cifar_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cifar")
    write_cifar_fixture(path)
    return path


# Each count: a call that hands the owner v and returns the int it holds, and
# the error the owner raises for a value that is not an integer
COUNTS = {
    "KernelSpec.depth": (lambda v, _: KernelSpec("nngp", depth=v).depth, ValueError),
    **{f"EssConfig.{key}": (lambda v, _, key=key: getattr(EssConfig(**{key: v}), key),
                            ValueError)
       for key in EssConfig.BOUNDS},
    "gen_cluster_classification.n_per_class": (
        lambda v, _: gen_cluster_classification(v, 2, 2, 1.0, 0)[0].n // 2, EmptyInputError),
    "gen_cluster_classification.class_count": (
        lambda v, _: gen_cluster_classification(3, v, 2, 1.0, 0)[0].class_count, ValueError),
    "gen_cluster_classification.dim": (
        lambda v, _: gen_cluster_classification(3, 2, v, 1.0, 0)[0].d, ValueError),
    "gen_rbf_regression.n_train": (lambda v, _: gen_rbf_regression(v, 3, 0.1, RBF, 0)[0].n,
                                   EmptyInputError),
    "gen_rbf_regression.n_test": (lambda v, _: gen_rbf_regression(3, v, 0.1, RBF, 0)[1].n,
                                  EmptyInputError),
    "load_cifar10.n_train": (lambda v, d: load_cifar10(d, [0, 1], n_train=v, n_test=1)[0].n,
                             EmptyInputError),
    "load_cifar10.n_test": (lambda v, d: load_cifar10(d, [0, 1], n_train=1, n_test=v)[1].n,
                            EmptyInputError),
    "load_cifar10.keep_classes": (
        lambda v, d: load_cifar10(d, [v, 0], n_train=1, n_test=1)[0].provenance["keep_classes"][0],
        LabelOutOfRangeError),
    "random_stream.master_seed": (
        lambda v, _: random_stream(v, 0).bit_generator.seed_seq.entropy, ValueError),
    "random_stream.stream_index": (
        lambda v, _: random_stream(0, v).bit_generator.seed_seq.spawn_key[0], ValueError),
}


@pytest.mark.parametrize("owner", sorted(COUNTS))
def test_count_is_an_exact_int_or_the_owners_error(owner, cifar_dir):
    call, error = COUNTS[owner]
    with pytest.raises(error, match="must be an integer, got 1.5"):
        call(1.5, cifar_dir)
    for value in (2, 2.0, np.int64(2), np.uint64(2), np.float32(2.0)):
        got = call(value, cifar_dir)
        assert type(got) is int and got == 2, (value, got)


def test_seed_and_label_convert_exactly():
    # the largest 64-bit seed, as numpy's unsigned int, is the same seed
    key = random_stream(np.uint64(SEED_MAX), np.int64(3)).bit_generator.seed_seq
    assert (key.entropy, key.spawn_key) == (SEED_MAX, (3,))
    assert derive_seed(np.uint64(SEED_MAX), np.int64(3)) == derive_seed(SEED_MAX, 3)
    assert derive_seed(0, 2.0) == derive_seed(0, 2)
    for seed, label in [(1.5, 0), (0, 1.7), (True, 0), (0, "1")]:
        with pytest.raises(ValueError, match="must be an integer"):
            derive_seed(seed, label)


# Each float argument: a call that hands the owner v, and the error it raises
# for a value outside its bound
FLOATS = {
    **{f"KernelSpec.{key}": (lambda v, key=key: KernelSpec("rbf", **{key: v}),
                             NonPositiveScaleError if key == "scale" else ValueError)
       for key in ("lengthscale", "variance", "scale")},
    **{f"KernelSpec.{key}": (lambda v, key=key: KernelSpec("nngp", **{key: v}), ValueError)
       for key in ("sigma_w2", "sigma_b2")},
    "gen_cluster_classification.separation": (
        lambda v: gen_cluster_classification(3, 2, 2, v, 0), ValueError),
    "gen_rbf_regression.noise_std": (lambda v: gen_rbf_regression(3, 3, v, RBF, 0), ValueError),
    "relabel_ratio_curve.latent_scale": (lambda v: relabel_ratio_curve(v, [1.0]),
                                         NonPositiveScaleError),
    "relabel_ratio_curve.temperatures": (lambda v: relabel_ratio_curve(1.0, [v]),
                                         NonPositiveTemperatureError),
    "relabel_ratio_curve.quadrature_tolerance": (
        lambda v: relabel_ratio_curve(1.0, [1.0], quadrature_tolerance=v), ValueError),
    "relabel_ratio_curve.integration_half_width_sigmas": (
        lambda v: relabel_ratio_curve(1.0, [1.0], integration_half_width_sigmas=v), ValueError),
    "_check_noise_stds": (lambda v: _check_noise_stds([v]), ValueError),
}


@pytest.mark.parametrize("owner", sorted(FLOATS))
def test_int_past_the_float_range_is_the_owners_error(owner):
    # float(10**400) overflows; check_bound reads it as inf, which is not finite
    call, error = FLOATS[owner]
    for value in (10**400, -(10**400)):
        with pytest.raises(error, match="must be finite"):
            call(value)
    with pytest.raises(error, match="must be a number"):
        call(True)


# Each call hands its owner an int past Python's 4,300-digit limit for printing
# an int: the owner's error, naming the argument, shows the int by its bit length
HUGE = 10**5000
TOO_LONG_TO_PRINT = {
    "KernelSpec.depth": (lambda: KernelSpec("nngp", depth=HUGE), ValueError, "depth"),
    "KernelSpec.lengthscale": (lambda: KernelSpec("rbf", lengthscale=HUGE), ValueError,
                               "lengthscale"),
    "relabel_ratio_curve.temperatures": (lambda: relabel_ratio_curve(1.0, [HUGE]),
                                         NonPositiveTemperatureError, "temperature"),
    "gen_cluster_classification.seed": (
        lambda: gen_cluster_classification(10, 2, 2, 1.0, seed=HUGE), ValueError, "master_seed"),
    "classification_temperature_sweep.n_chains": (
        lambda: classification_temperature_sweep(
            RBF, *gen_cluster_classification(2, 2, 2, 1.0, 0), [1.0],
            config=EssConfig(n_chains=HUGE)),
        ColdGPError, "n_chains"),
}


@pytest.mark.parametrize("owner", sorted(TOO_LONG_TO_PRINT))
def test_int_too_long_to_print_is_the_owners_error(owner):
    call, error, name = TOO_LONG_TO_PRINT[owner]
    with pytest.raises(error, match=f"{name}.*<int of {HUGE.bit_length()} bits>") as info:
        call()
    assert type(info.value) is error


def test_kernel_spec_stores_its_bounds_types():
    spec = KernelSpec("nngp", depth=np.int64(3), sigma_w2=2, sigma_b2=np.float32(0.5), scale=1)
    assert [type(getattr(spec, key)) for key in ("depth", "sigma_w2", "sigma_b2", "scale")] == \
        [int, float, float, float]


def test_integral_float_counts_run_a_sweep():
    train, test = gen_cluster_classification(4, 2, 2, 2.0, 0)
    config = EssConfig(n_chains=2.0, burn_in=3.0, n_samples_per_chain=4.0, thinning=1.0,
                       draws_per_sample=2.0)
    out = classification_temperature_sweep(RBF, train, test, [1.0, 0.5], config, seed=0)
    as_ints = EssConfig(2, 3, 4, 1, 2)
    assert config == as_ints
    again = classification_temperature_sweep(RBF, train, test, [1.0, 0.5], as_ints, seed=0)
    assert all(np.array_equal(out[key], again[key]) for key in out)


def test_disagreement_index_is_a_count():
    samples, labels = np.zeros((1, 2, 3)), [0, 1, 0]
    assert relabel_disagreement_mc(samples, labels, 2.0) == relabel_disagreement_mc(samples, labels, 2)
    for index in (1.5, True, 3, -1):
        with pytest.raises(IndexOutOfRangeError):
            relabel_disagreement_mc(samples, labels, index)
