"""Outside-in tracing of coldgp's layers.

The tracer replaces each layer's public functions, at the module attribute
through which the caller looks them up, with a wrapper that records a span:
(span id, parent span id, sweep id, name, start ns, end ns).  Nothing under
src/ knows about it.  ``install`` and ``uninstall`` bracket each traced
sweep, so untraced sweeps in the same process run the original functions.

Spans stay in memory while a sweep runs; ``end_sweep`` folds them into
per-name totals (calls, inclusive and self time, where self time is the
span minus its direct children) and keeps the raw spans of the first traced
sweep only, which ``write_spans`` writes out when the run ends.
"""
from __future__ import annotations

import csv
import functools
import gzip
import importlib
import time
from collections import defaultdict

# (module, attribute path, span name).  One entry per place a caller binds
# the function: ``from .kernels import gram`` gives classification and
# regression their own binding, and data imports gram/cholesky at call time
# from the defining modules.
WRAP_POINTS = (
    ("coldgp.cli", "run_experiment", "cli.run_experiment"),
    ("coldgp.cli", "write_csv", "records.write"),
    ("coldgp.cli", "gen_cluster_classification", "data.gen"),
    ("coldgp.cli", "gen_rbf_regression", "data.gen"),
    ("coldgp.cli", "classification_temperature_sweep", "classification.sweep"),
    ("coldgp.cli", "regression_temperature_sweep", "regression.sweep"),
    ("coldgp.classification", "sample_latent_posterior", "classification.sample"),
    ("coldgp.classification", "tempered_log_likelihood", "classification.loglik"),
    ("coldgp.classification", "gram", "kernels.gram"),
    ("coldgp.classification", "cholesky", "linalg.cholesky"),
    ("coldgp.regression", "gram", "kernels.gram"),
    ("coldgp.regression", "cholesky", "linalg.cholesky"),
    ("coldgp.regression", "condition", "regression.condition"),
    ("coldgp.regression", "ConditionedRegression.predict", "regression.predict"),
    ("coldgp.regression", "temper_predictive", "regression.temper"),
    ("coldgp.regression", "gaussian_test_nll", "regression.nll"),
    ("coldgp.kernels", "gram", "kernels.gram"),
    ("coldgp.linalg", "cholesky", "linalg.cholesky"),
    ("coldgp.aleatoric", "relabel_prob_quadrature", "aleatoric.quadrature"),
    ("coldgp.aleatoric", "log_sum_exp", "linalg.log_sum_exp"),
    ("coldgp.rng", "RngStream.standard_normal", "rng.normal"),
    ("coldgp.rng", "RngStream.uniform", "rng.uniform"),
)


def _jitter(result):
    return {"jitter": float(result.jitter_used)}


def _ess_stats(result):
    return {"transitions": int(result.stats["transitions"]),
            "proposals": int(result.stats["proposals"])}


# Values read from a layer's return value, next to its span.
_RESULT_VALUES = {"linalg.cholesky": _jitter, "classification.sample": _ess_stats}


class Tracer:
    def __init__(self):
        self._patches = []  # (owner, attribute, original)
        self.missing = []   # wrap points absent from the code under test
        self._stack = []
        self._next_id = 0
        self._spans = []
        self._values = []   # (span name, {key: value})
        self.sweep = -1
        self.sweeps = []     # per traced sweep: aggregate dict
        self.kept_spans = []

    # -- patching -----------------------------------------------------------

    def install(self):
        self.missing = []
        for module_name, path, span_name in WRAP_POINTS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(span_name, original))
            self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        stack, spans, values = self._stack, self._spans, self._values
        on_result = _RESULT_VALUES.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, self.sweep, name, start, end))
            if on_result is not None:
                values.append((name, on_result(result)))
            return result

        return wrapper

    # -- sweeps -------------------------------------------------------------

    def begin_sweep(self):
        self.sweep = len(self.sweeps)
        self._spans.clear()
        self._values.clear()

    def end_sweep(self):
        self.sweeps.append(aggregate(self._spans, self._values))
        if not self.kept_spans:
            self.kept_spans = list(self._spans)
        self._spans.clear()
        self._values.clear()

    def write_spans(self, path):
        """Raw spans of the first traced sweep as gzipped CSV (times in ns)."""
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "parent", "sweep", "name", "start_ns", "end_ns"])
            writer.writerows(self.kept_spans)


def aggregate(spans, values) -> dict:
    """Per-name calls and seconds (inclusive and self) for one sweep.

    ``under`` holds inclusive seconds per (parent name, child name), so a
    metric can take a span's time net of one kind of child.
    """
    names = {s[0]: s[3] for s in spans}
    child_ns = defaultdict(int)
    for _, parent, _, _, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    under = defaultdict(float)
    for span_id, parent, _, name, start, end in spans:
        calls[name] += 1
        incl[name] += (end - start) * 1e-9
        self_s[name] += (end - start - child_ns[span_id]) * 1e-9
        if parent >= 0:
            under[f"{names[parent]}>{name}"] += (end - start) * 1e-9
            calls[f"{names[parent]}>{name}"] += 1
    totals = defaultdict(float)
    jitter_max = 0.0
    for _, vals in values:
        for key, val in vals.items():
            if key == "jitter":
                jitter_max = max(jitter_max, val)
            else:
                totals[key] += val
    return {"calls": dict(calls), "incl_s": dict(incl), "self_s": dict(self_s),
            "under_s": dict(under), "totals": dict(totals), "jitter_max": jitter_max}


def _div(a, b):
    return a / b if b else 0.0


def layer_metrics(agg: dict) -> dict:
    """The per-layer metrics of one traced sweep, keyed by metric name."""
    calls = lambda n: agg["calls"].get(n, 0)
    own = lambda n: agg["self_s"].get(n, 0.0)
    incl = lambda n: agg["incl_s"].get(n, 0.0)
    under = lambda parent, child: agg["under_s"].get(f"{parent}>{child}", 0.0)
    transitions = int(agg["totals"].get("transitions", 0))
    proposals = int(agg["totals"].get("proposals", 0))
    sampling = "classification.sample"
    # one transition, everything included but the Gram and Cholesky of the prior
    sampling_s = incl(sampling) - under(sampling, "kernels.gram") - under(sampling, "linalg.cholesky")
    return {
        "kernels.gram_calls": calls("kernels.gram"),
        "kernels.gram_s": own("kernels.gram"),
        "linalg.cholesky_calls": calls("linalg.cholesky"),
        "linalg.cholesky_s": own("linalg.cholesky"),
        "linalg.jitter_max": agg["jitter_max"],
        "linalg.log_sum_exp_calls": calls("linalg.log_sum_exp"),
        "linalg.log_sum_exp_s": own("linalg.log_sum_exp"),
        "rng.normal_calls": calls("rng.normal"),
        "rng.normal_s": own("rng.normal"),
        "rng.uniform_calls": calls("rng.uniform"),
        "rng.uniform_s": own("rng.uniform"),
        "classification.sample_s": own(sampling),
        "classification.transitions": transitions,
        "classification.proposals": proposals,
        "classification.accept_ratio": _div(transitions, proposals),
        "classification.transition_us": _div(sampling_s, transitions) * 1e6,
        "classification.loglik_calls": calls("classification.loglik"),
        "classification.loglik_s": own("classification.loglik"),
        "classification.loglik_us": _div(own("classification.loglik"), calls("classification.loglik")) * 1e6,
        "classification.predict_s": own("classification.sweep"),
        "regression.sweep_self_s": own("regression.sweep"),
        "regression.condition_calls": calls("regression.condition"),
        "regression.condition_s": own("regression.condition"),
        "regression.predict_s": own("regression.predict"),
        "regression.temper_calls": calls("regression.temper"),
        "regression.temper_s": own("regression.temper"),
        "regression.nll_s": own("regression.nll"),
        "data.gen_calls": calls("data.gen"),
        "data.gen_s": own("data.gen"),
        "aleatoric.quadrature_calls": calls("aleatoric.quadrature"),
        "aleatoric.quadrature_s": own("aleatoric.quadrature"),
        "aleatoric.quadrature_us": _div(incl("aleatoric.quadrature"), calls("aleatoric.quadrature")) * 1e6,
        "records.write_s": own("records.write"),
        "cli.self_s": own("cli.run_experiment"),
    }


def is_count(metric: str) -> bool:
    """Counts must repeat exactly between traced sweeps and traced runs."""
    return metric.endswith(("_calls", ".transitions", ".proposals"))


def sanity_checks(config: dict, agg: dict) -> list:
    """Counts the code at the benchmark's defining commit implies for one sweep.

    Returns (check, expected, observed) triples.  They pin the tracer to the
    code, so an optimisation that removes work will show here as a change,
    not as a benchmark failure.
    """
    calls = agg["calls"]
    checks = []
    exp = config["experiment"]
    if exp == "classify-sweep":
        temps = len(config["temperatures"])
        ess = config["ess"]
        chains = ess["n_chains"]
        transitions = temps * chains * (ess["burn_in"] + ess["n_samples_per_chain"] * ess["thinning"])
        proposals = int(agg["totals"].get("proposals", 0))
        checks += [
            ("gram builds = temperatures + 2", temps + 2, calls.get("kernels.gram", 0)),
            ("choleskys = temperatures + 1", temps + 1, calls.get("linalg.cholesky", 0)),
            ("transitions reported = T x chains x (burn_in + samples x thinning)", transitions,
             int(agg["totals"].get("transitions", 0))),
            ("prior draws in sampling = transitions", transitions,
             calls.get("classification.sample>rng.normal", 0)),
            ("likelihood calls in sampling = proposals + T x chains", proposals + temps * chains,
             calls.get("classification.sample>classification.loglik", 0)),
        ]
    elif exp == "regress-sweep":
        fits = len(config["regression"]["assumed_noise_std"]) * config["regression"]["n_seeds"]
        checks += [
            ("temper_predictive calls = noise x seeds x T x n_test",
             fits * len(config["temperatures"]) * config["data"]["n_test"],
             calls.get("regression.temper", 0)),
            ("dataset generations = noise x seeds", fits, calls.get("data.gen", 0)),
            ("conditionings = noise x seeds", fits, calls.get("regression.condition", 0)),
            ("gram builds = 3 x noise x seeds", 3 * fits, calls.get("kernels.gram", 0)),
            ("choleskys = 2 x noise x seeds", 2 * fits, calls.get("linalg.cholesky", 0)),
        ]
    elif exp == "probe":
        p = config["probe"]
        per_scale = 1 + sum(1 for t in p["temperatures"] if t != 1.0)
        lse = calls.get("linalg.log_sum_exp", 0)
        checks += [
            ("quadratures = scales x (1 + temperatures other than 1)",
             len(p["latent_scales"]) * per_scale, calls.get("aleatoric.quadrature", 0)),
            ("log_sum_exp calls are 2 per Simpson pass (even)", 0, lse % 2),
        ]
    return checks
