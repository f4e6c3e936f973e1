"""Seeded workload configs for the coldgp benchmark.

Each workload is one coldgp experiment config, built from the workload seed
alone: the same (workload, seed) pair always gives byte-identical JSON.  The
program under test receives only that config, so nothing here imports coldgp
or numpy.  Why each workload exists is recorded in perfbench/README.md.
"""
from __future__ import annotations

import json
import random

CLASSIFY_TEMPERATURES = [0.01, 0.03, 0.1, 0.3, 1.0]

# Chain layout shared by both classification workloads.  The full-scale
# acceptance sweep uses burn_in 300 and 200 x 2 retained transitions; the
# chains here are shortened so one 2000-point sweep fits the run length,
# while the Gram/Cholesky work per sweep keeps its full-scale shape.
CLASSIFY_ESS = {"n_chains": 4, "burn_in": 10, "n_samples_per_chain": 10, "thinning": 2,
                "draws_per_sample": 8}

# The bundled configs/fig3b.json grid: 40 log-spaced temperatures 1e-2 .. 1e2.
FIG3B_TEMPERATURES = [10.0 ** (-2.0 + 4.0 * i / 39) for i in range(40)]

PROBE_SCALES = [1.0, 10.0, 100.0, 1000.0]
PROBE_RANDOM_TEMPERATURES = 24


def _config_seed(rng: random.Random) -> int:
    return rng.getrandbits(63)


def _classify_binary_nngp(rng: random.Random) -> dict:
    return {
        "experiment": "classify-sweep",
        "seed": _config_seed(rng),
        "output_dir": "results",
        "kernel": {"family": "nngp", "depth": 2, "sigma_w2": 2.0, "sigma_b2": 0.0},
        "temperatures": list(CLASSIFY_TEMPERATURES),
        "data": {"generator": "clusters", "n_per_class": 1000, "class_count": 2, "dim": 8,
                 "separation": 1.5},
        "ess": dict(CLASSIFY_ESS),
    }


def _classify_multiclass_rbf(rng: random.Random) -> dict:
    # lengthscale 3 ~ the within-cluster distance in 8 dimensions; at 1 the
    # test-train correlations are ~exp(-8) and predictions stay at chance.
    return {
        "experiment": "classify-sweep",
        "seed": _config_seed(rng),
        "output_dir": "results",
        "kernel": {"family": "rbf", "lengthscale": 3.0, "variance": 1.0},
        "temperatures": list(CLASSIFY_TEMPERATURES),
        "data": {"generator": "clusters", "n_per_class": 50, "class_count": 8, "dim": 8,
                 "separation": 1.5},
        "ess": dict(CLASSIFY_ESS),
    }


def _regress_fig3b(rng: random.Random) -> dict:
    return {
        "experiment": "regress-sweep",
        "seed": _config_seed(rng),
        "output_dir": "results",
        "kernel": {"family": "rbf", "lengthscale": 1.0, "variance": 1.0},
        "temperatures": list(FIG3B_TEMPERATURES),
        "data": {"generator": "rbf-regression", "n_train": 100, "n_test": 100,
                 "noise_std": 0.1},
        "regression": {"assumed_noise_std": [1.0, 0.1, 0.01], "n_seeds": 5},
    }


def _probe_fig2(rng: random.Random) -> dict:
    # One log-uniform draw per stratum of [1e-3, 1]: the grid covers the
    # bundled fig2 range evenly, so the quadrature work varies little by seed.
    k = PROBE_RANDOM_TEMPERATURES
    drawn = [10.0 ** (-3.0 + 3.0 * (i + rng.random()) / k) for i in range(k)]
    return {
        "experiment": "probe",
        "seed": _config_seed(rng),
        "output_dir": "results",
        "probe": {
            "latent_scales": list(PROBE_SCALES),
            "temperatures": [1.0] + sorted(drawn, reverse=True),
            "quadrature_tolerance": 1e-8,
            "integration_half_width_sigmas": 40.0,
        },
    }


# How closely each workload's sweep time follows the (python, blas) parts of
# the calibration (calibration.py), fitted by fit_weights.py on 15 to 21 runs
# per workload made over 35 minutes on the defining box.
SPEED_WEIGHTS = {
    "classify-binary-nngp": (0.15, 0.85),
    "classify-multiclass-rbf": (0.05, 0.95),
    "regress-fig3b": (0.9, 0.1),
    "probe-fig2": (0.65, 0.35),
}
# Set-up is importing modules and parsing JSON: interpreter work.
SETUP_WEIGHTS = (1.0, 0.0)

WORKLOADS = {
    "classify-binary-nngp": _classify_binary_nngp,
    "classify-multiclass-rbf": _classify_multiclass_rbf,
    "regress-fig3b": _regress_fig3b,
    "probe-fig2": _probe_fig2,
}


def make_config(workload: str, seed: int) -> dict:
    """The config for one workload and seed (raises KeyError on an unknown name)."""
    build = WORKLOADS[workload]
    # A string seed is hashed with SHA-512 by random.Random, independent of
    # PYTHONHASHSEED, so the draws repeat across processes and machines.
    return build(random.Random(f"{workload}:{int(seed)}"))


def config_bytes(workload: str, seed: int) -> bytes:
    """Canonical JSON text of the config: what gets written and what must repeat."""
    return (json.dumps(make_config(workload, seed), indent=2, sort_keys=True) + "\n").encode()
