"""Shared numerical utilities, file fixtures and a fresh-interpreter runner
for the test suite."""
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from coldgp.data import CIFAR_TEST_FILE, CIFAR_TRAIN_FILES
from coldgp.kernels import gram, gram_diag
from coldgp.regression import condition, conditional


def batch_means_se(series, n_batches=25):
    """Standard error of the mean of a (possibly autocorrelated) scalar series.

    Splits the series into equal batches and uses the spread of batch means;
    valid once batches are long compared to the autocorrelation time.
    """
    x = np.asarray(series, dtype=np.float64).ravel()
    per = x.size // n_batches
    if per < 2:
        raise ValueError("series too short for the requested batch count")
    means = x[: per * n_batches].reshape(n_batches, per).mean(axis=1)
    return float(np.std(means, ddof=1) / np.sqrt(n_batches))


def max_rel_err(a, b):
    """Largest entrywise deviation, relative to the largest magnitude present."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b)) / scale)


def kernel_eval(spec, x, xp) -> float:
    """The kernel value k(x, xp) of two input vectors: a 1 x 1 Gram."""
    x, xp = np.asarray(x, dtype=np.float64), np.asarray(xp, dtype=np.float64)
    return float(gram(spec, x[None, :], xp[None, :])[0, 0])


def predict(kernel, noise_std, train, test_inputs):
    """Regression predictive (mean, variance) arrays at ``test_inputs``: the
    sweep's :func:`coldgp.regression.condition` on Grams built for the call."""
    x, xs = train.inputs, np.asarray(test_inputs, dtype=np.float64)
    mean, variance, _ = condition(gram(kernel, x, x), gram(kernel, xs, x),
                                  gram_diag(kernel, xs), train.targets, noise_std)
    return mean, variance


def conditional_at(kernel, train_inputs, test_inputs, factor):
    """:func:`coldgp.regression.conditional` at ``test_inputs`` given the
    factor of the training covariance, on a cross-Gram built for the call."""
    return conditional(factor, gram(kernel, test_inputs, train_inputs),
                       gram_diag(kernel, test_inputs))


def scale_kernel(spec, t):
    """A copy of ``spec`` whose Gram matrices are multiplied by t; KernelSpec
    rejects a product that is not positive and finite."""
    return dataclasses.replace(spec, scale=spec.scale * float(t))


def count_calls(monkeypatch, module, names):
    """Wrap each named function of ``module`` to count its calls.

    Returns the dict of counts, keyed by name, which fills as the wrapped
    functions run; ``monkeypatch`` restores the originals.
    """
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def record_factors(monkeypatch, module):
    """Wrap ``module.cholesky`` to record each call's (input, factor) pair.

    Returns the list of pairs, which fills as the wrapped function runs;
    ``monkeypatch`` restores the original.
    """
    pairs, real = [], module.cholesky

    def recording(a, *args, **kwargs):
        pairs.append((a, real(a, *args, **kwargs)))
        return pairs[-1][1]

    monkeypatch.setattr(module, "cholesky", recording)
    return pairs


def write_cifar_fixture(dir_path, per_file=30, seed=0):
    """Synthetic CIFAR-10 batch files: labels cycle 0..9, pixel 0 encodes the
    label as label * 20 so the original class is recoverable after remapping."""
    rng = np.random.default_rng(seed)
    for name in CIFAR_TRAIN_FILES + (CIFAR_TEST_FILE,):
        rec = rng.integers(0, 256, size=(per_file, 3073), dtype=np.uint8)
        rec[:, 0] = np.arange(per_file) % 10
        rec[:, 1] = rec[:, 0] * 20
        with open(dir_path / name, "wb") as fh:
            fh.write(rec.tobytes())


SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_python(args, cwd, **environ):
    """Run ``python *args`` in a fresh interpreter with src/ on PYTHONPATH and
    the environment variables ``environ`` set.

    Returns (exit code, stdout, stderr).  A fresh process is the only way to
    see what a run prints to stderr outside pytest's capture, which modules
    it loads, and what it does under an environment set before numpy loads.
    """
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr
