"""Dataset tests: generators, the CIFAR-10 binary loader against synthetic
batch files, input standardization, and the save/load round trip through
the package's one table layout."""
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldgp import (
    CIFAR_TEST_FILE,
    CIFAR_TRAIN_FILES,
    ConfigError,
    EmptyInputError,
    KernelSpec,
    LabelOutOfRangeError,
    LabeledDataset,
    MalformedRecordError,
    NonFiniteInputError,
    ZeroVarianceError,
    cholesky,
    gen_cluster_classification,
    gen_rbf_regression,
    gram,
    load_cifar10,
    load_dataset,
    parse_config,
    save_dataset,
    standardize,
    write_csv,
)

from helpers import write_cifar_fixture

RBF = KernelSpec(family="rbf", rbf_lengthscale=1.0, rbf_variance=1.0)


# ---------------------------------------------------------------- container

class TestLabeledDataset:
    def test_regression_properties(self):
        ds = LabeledDataset(np.zeros((3, 2)), [1, 2, 3], None, "train")
        assert (ds.n, ds.d) == (3, 2)
        assert not ds.is_classification
        assert ds.targets.dtype == np.float64

    def test_classification_casts_labels(self):
        ds = LabeledDataset(np.zeros((2, 1)), [0.0, 1.0], 2, "test")
        assert ds.is_classification
        assert ds.targets.dtype == np.int64

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(Exception):
            LabeledDataset(np.zeros(3), [0, 0, 0], None, "train")
        with pytest.raises(EmptyInputError):
            LabeledDataset(np.zeros((0, 2)), [], None, "train")
        with pytest.raises(NonFiniteInputError):
            LabeledDataset(np.array([[np.nan]]), [0.0], None, "train")
        with pytest.raises(NonFiniteInputError):
            LabeledDataset(np.zeros((1, 1)), [np.inf], None, "train")
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((1, 1)), [0.0], None, "validation")
        with pytest.raises(Exception):
            LabeledDataset(np.zeros((2, 1)), [0.0], None, "train")

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 1)), [0, 1], 1, "train")
        with pytest.raises(LabelOutOfRangeError):
            LabeledDataset(np.zeros((2, 1)), [0.5, 1.0], 2, "train")
        with pytest.raises(LabelOutOfRangeError):
            LabeledDataset(np.zeros((2, 1)), [0, 2], 2, "train")
        with pytest.raises(LabelOutOfRangeError):
            LabeledDataset(np.zeros((2, 1)), [-1, 0], 2, "train")


# ---------------------------------------------------------------- generators

class TestRbfRegressionGenerator:
    def test_shapes_and_provenance(self):
        train, test = gen_rbf_regression(7, 4, 0.1, RBF, seed=3)
        assert train.inputs.shape == (7, 1) and test.inputs.shape == (4, 1)
        assert train.class_count is None and test.class_count is None
        assert (train.split_tag, test.split_tag) == ("train", "test")
        assert train.provenance["name"] == "rbf-regression"
        assert train.provenance["seed"] == 3
        assert test.provenance["noise_std"] == 0.1
        # the jitter of the factor of the joint train + test Gram
        x = np.concatenate([train.inputs, test.inputs])
        jitter = cholesky(gram(RBF, x, x)).jitter_used
        assert train.provenance["jitter_used"] == test.provenance["jitter_used"] == jitter

    def test_deterministic(self):
        a_tr, a_te = gen_rbf_regression(10, 5, 0.2, RBF, seed=11)
        b_tr, b_te = gen_rbf_regression(10, 5, 0.2, RBF, seed=11)
        assert np.array_equal(a_tr.inputs, b_tr.inputs)
        assert np.array_equal(a_tr.targets, b_tr.targets)
        assert np.array_equal(a_te.targets, b_te.targets)
        c_tr, _ = gen_rbf_regression(10, 5, 0.2, RBF, seed=12)
        assert not np.array_equal(a_tr.targets, c_tr.targets)

    def test_noise_enters_linearly(self):
        # same seed fixes inputs, latent, and the noise vector, so the target
        # difference against the noiseless draw is noise_std * eps up to the
        # rounding of latent + noise_std * eps
        base, _ = gen_rbf_regression(12, 3, 0.0, RBF, seed=5)
        lo, _ = gen_rbf_regression(12, 3, 0.25, RBF, seed=5)
        hi, _ = gen_rbf_regression(12, 3, 0.5, RBF, seed=5)
        assert np.array_equal(base.inputs, lo.inputs)
        d_lo = lo.targets - base.targets
        d_hi = hi.targets - base.targets
        assert np.any(d_lo != 0.0)
        assert np.allclose(d_hi, 2.0 * d_lo, rtol=0.0, atol=1e-12)

    def test_validation(self):
        nngp = KernelSpec(family="nngp", depth=1, sigma_w2=2.0, sigma_b2=0.0)
        with pytest.raises(ValueError):
            gen_rbf_regression(5, 5, 0.1, nngp, seed=0)
        with pytest.raises(EmptyInputError):
            gen_rbf_regression(0, 5, 0.1, RBF, seed=0)
        with pytest.raises(ValueError):
            gen_rbf_regression(5, 5, -0.1, RBF, seed=0)

    def test_lengthscale_with_an_overflowing_square_is_rejected(self):
        # the Gram squares the lengthscale in Python floats, so lengthscale
        # 1e200 raised a bare OverflowError here; the kernel spec rejects it
        with pytest.raises(ValueError, match="rbf_lengthscale is squared"):
            gen_rbf_regression(5, 5, 0.1, KernelSpec.rbf(lengthscale=1e200), 0)


class TestClusterGenerator:
    def test_shapes_labels_splits(self):
        train, test = gen_cluster_classification(9, 3, 4, 2.0, seed=0)
        assert train.inputs.shape == (27, 4)
        assert test.inputs.shape == (3 * 4, 4)  # 9 // 2 per class
        assert train.class_count == 3
        assert np.array_equal(np.unique(train.targets), [0, 1, 2])
        counts = np.bincount(train.targets, minlength=3)
        assert np.array_equal(counts, [9, 9, 9])

    def test_test_split_never_empty(self):
        _, test = gen_cluster_classification(1, 2, 2, 1.0, seed=0)
        assert test.n == 2

    def test_deterministic_and_seed_sensitive(self):
        a, _ = gen_cluster_classification(5, 2, 3, 1.5, seed=7)
        b, _ = gen_cluster_classification(5, 2, 3, 1.5, seed=7)
        c, _ = gen_cluster_classification(5, 2, 3, 1.5, seed=8)
        assert np.array_equal(a.inputs, b.inputs)
        assert not np.array_equal(a.inputs, c.inputs)

    def test_centers_on_basis_vectors(self):
        # unit cluster noise: class means land within ~3/sqrt(400) of centers
        train, _ = gen_cluster_classification(400, 2, 3, 4.0, seed=1)
        m0 = train.inputs[train.targets == 0].mean(axis=0)
        m1 = train.inputs[train.targets == 1].mean(axis=0)
        assert np.allclose(m0, [4.0, 0.0, 0.0], atol=0.25)
        assert np.allclose(m1, [0.0, 4.0, 0.0], atol=0.25)

    def test_negated_centers_when_basis_exhausted(self):
        train, _ = gen_cluster_classification(400, 2, 1, 4.0, seed=2)
        m0 = float(train.inputs[train.targets == 0].mean())
        m1 = float(train.inputs[train.targets == 1].mean())
        assert abs(m0 - 4.0) < 0.25 and abs(m1 + 4.0) < 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_cluster_classification(5, 5, 2, 1.0, seed=0)  # 5 > 2 * dim
        with pytest.raises(EmptyInputError):
            gen_cluster_classification(0, 2, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            gen_cluster_classification(5, 1, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            gen_cluster_classification(5, 2, 2, -1.0, seed=0)


# ---------------------------------------------------------------- cifar-10

def _original_labels(ds):
    return np.rint(ds.inputs[:, 0] * 255.0 / 20.0).astype(int)


class TestCifarLoader:
    def test_load_all_classes(self, tmp_path):
        write_cifar_fixture(tmp_path)
        train, test = load_cifar10(tmp_path, None, n_train=100, n_test=20, seed=0)
        assert train.inputs.shape == (100, 3072)
        assert test.inputs.shape == (20, 3072)
        assert train.class_count == 10
        assert train.inputs.min() >= 0.0 and train.inputs.max() <= 1.0
        # pixels are bytes / 255, exactly recoverable
        back = np.rint(train.inputs * 255.0)
        assert np.array_equal(back, train.inputs * 255.0)
        assert len(train.provenance["records"]) == 100
        name, row = train.provenance["records"][0]
        assert name in CIFAR_TRAIN_FILES and 0 <= row < 30

    def test_deterministic(self, tmp_path):
        write_cifar_fixture(tmp_path)
        a, _ = load_cifar10(tmp_path, None, n_train=50, n_test=10, seed=3)
        b, _ = load_cifar10(tmp_path, None, n_train=50, n_test=10, seed=3)
        c, _ = load_cifar10(tmp_path, None, n_train=50, n_test=10, seed=4)
        assert np.array_equal(a.inputs, b.inputs) and np.array_equal(a.targets, b.targets)
        assert not np.array_equal(a.targets, c.targets)

    def test_class_subset_remaps_in_order(self, tmp_path):
        write_cifar_fixture(tmp_path)
        train, test = load_cifar10(tmp_path, [3, 8], n_train=20, n_test=4, seed=0)
        assert train.class_count == 2
        for ds in (train, test):
            orig = _original_labels(ds)
            assert set(orig) <= {3, 8}
            assert np.array_equal(ds.targets, np.where(orig == 3, 0, 1))

    def test_sequence_order_kept(self, tmp_path):
        write_cifar_fixture(tmp_path)
        reversed_order, _ = load_cifar10(tmp_path, [8, 3], n_train=20, n_test=4, seed=0)
        orig = _original_labels(reversed_order)
        assert np.array_equal(reversed_order.targets, np.where(orig == 8, 0, 1))

    def test_reordered_subset_labels_follow_keep_order(self, tmp_path):
        write_cifar_fixture(tmp_path)
        keep = [7, 2, 9, 0]
        for ds in load_cifar10(tmp_path, keep, n_train=40, n_test=8, seed=5):
            assert ds.targets.dtype == np.int64
            assert ds.targets.tolist() == [keep.index(c) for c in _original_labels(ds)]

    def test_request_exceeding_pool(self, tmp_path):
        write_cifar_fixture(tmp_path)  # 15 per class over the train files
        with pytest.raises(ConfigError, match="only"):
            load_cifar10(tmp_path, [0], n_train=16, n_test=1, seed=0)

    def test_keep_classes_validation(self, tmp_path):
        write_cifar_fixture(tmp_path)
        with pytest.raises(ValueError):
            load_cifar10(tmp_path, [1, 1], n_train=5, n_test=2, seed=0)
        with pytest.raises(LabelOutOfRangeError):
            load_cifar10(tmp_path, [10], n_train=5, n_test=2, seed=0)
        with pytest.raises(EmptyInputError):
            load_cifar10(tmp_path, [], n_train=5, n_test=2, seed=0)
        with pytest.raises(EmptyInputError):
            load_cifar10(tmp_path, None, n_train=0, n_test=2, seed=0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_cifar10(tmp_path, None, n_train=5, n_test=2, seed=0)

    def test_truncated_file(self, tmp_path):
        write_cifar_fixture(tmp_path)
        with open(tmp_path / CIFAR_TRAIN_FILES[2], "wb") as fh:
            fh.write(b"\x00" * 100)
        with pytest.raises(MalformedRecordError, match="multiple"):
            load_cifar10(tmp_path, None, n_train=5, n_test=2, seed=0)

    def test_label_byte_out_of_range(self, tmp_path):
        write_cifar_fixture(tmp_path)
        rec = np.zeros(3073, dtype=np.uint8)
        rec[0] = 10
        with open(tmp_path / CIFAR_TEST_FILE, "wb") as fh:
            fh.write(rec.tobytes())
        with pytest.raises(MalformedRecordError, match="label byte 10"):
            load_cifar10(tmp_path, None, n_train=5, n_test=1, seed=0)


# ---------------------------------------------------------------- normalize

class TestNormalization:
    def test_standardize_hand_value(self):
        ds = LabeledDataset(np.array([[1.0, 2.0], [3.0, 4.0]]), [0.0, 0.0], None, "train")
        out, _ = standardize(ds, ds)
        # mean 2.5, std sqrt(1.25)
        np.testing.assert_array_equal(out.inputs, (ds.inputs - 2.5) / np.sqrt(1.25))

    def test_standardize_train(self):
        rng = np.random.default_rng(0)
        ds = LabeledDataset(rng.normal(3.0, 2.0, (50, 4)), np.zeros(50), None, "train")
        out, _ = standardize(ds, ds)
        assert abs(float(out.inputs.mean())) < 1e-12
        assert abs(float(out.inputs.std()) - 1.0) < 1e-12
        assert out.provenance["normalize"] == "global-standardize"
        assert np.array_equal(out.targets, ds.targets)

    def test_test_split_uses_train_stats(self):
        train = LabeledDataset(np.array([[0.0], [2.0]]), [0.0, 0.0], None, "train")
        test = LabeledDataset(np.array([[4.0]]), [0.0], None, "test", {"name": "t"})
        out_train, out_test = standardize(train, test)
        np.testing.assert_array_equal(out_train.inputs, [[-1.0], [1.0]])
        assert out_test.inputs[0, 0] == 3.0  # (4 - 1) / 1, not the test split's own 0
        assert out_test.split_tag == "test"
        assert out_test.provenance == {"name": "t", "normalize": "global-standardize"}

    def test_zero_variance_and_unknown_scheme(self):
        # a constant train split has no scale, whatever the test split holds
        flat = LabeledDataset(np.ones((3, 2)), np.zeros(3), None, "train")
        test = LabeledDataset(np.array([[4.0, 5.0]]), [0.0], None, "test")
        with pytest.raises(ZeroVarianceError):
            standardize(flat, test)
        # standardize takes no scheme; an unknown one is refused where it is named
        raw = {"experiment": "classify-sweep", "kernel": {"family": "nngp", "depth": 2},
               "temperatures": [1.0],
               "data": {"source": "file", "train_path": "a", "test_path": "b",
                        "normalize": "per-channel"}}
        with pytest.raises(ConfigError, match="'normalize'"):
            parse_config(raw)


# ---------------------------------------------------------------- text format

class TestSaveLoadRoundTrip:
    def test_regression_bitwise(self, tmp_path):
        train, _ = gen_rbf_regression(15, 3, 0.1, RBF, seed=9)
        path = tmp_path / "train.csv"
        save_dataset(train, path)
        back = load_dataset(path, "train")
        assert back.class_count is None
        assert np.array_equal(back.inputs, train.inputs)
        assert np.array_equal(back.targets, train.targets)
        assert back.split_tag == "train"

    def test_classification_bitwise_and_inference(self, tmp_path):
        train, _ = gen_cluster_classification(6, 3, 2, 1.0, seed=4)
        path = tmp_path / "c.csv"
        save_dataset(train, path)
        back = load_dataset(path, "test")
        assert back.class_count == 3  # max label + 1
        assert back.split_tag == "test"
        assert np.array_equal(back.inputs, train.inputs)
        assert np.array_equal(back.targets, train.targets)
        wide = load_dataset(path, "train", class_count=5)
        assert wide.class_count == 5

    # -0.0, the smallest and largest subnormals, and +-1.7e308 as well as
    # whatever finite floats hypothesis draws
    _EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                                    1.7e308, -1.7e308])
    _FLOATS = st.one_of(_EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))

    @settings(deadline=None, max_examples=150)
    @given(st.data(), st.integers(1, 6), st.integers(0, 3), st.booleans())
    def test_round_trip_is_bit_exact_and_in_the_table_layout(self, data, n, d, classify):
        inputs = data.draw(st.lists(st.lists(self._FLOATS, min_size=d, max_size=d),
                                    min_size=n, max_size=n))
        # labels up to the row bound, the largest that load_dataset infers a
        # class count from
        bound = max(n, 2)
        targets = data.draw(st.lists(st.integers(0, bound - 1) if classify else self._FLOATS,
                                     min_size=n, max_size=n))
        dataset = LabeledDataset(np.array(inputs, dtype=np.float64).reshape(n, d), targets,
                                 bound if classify else None, "train")
        with tempfile.TemporaryDirectory() as tmp:
            saved, table = Path(tmp) / "saved.csv", Path(tmp) / "table.csv"
            save_dataset(dataset, saved)
            back = load_dataset(saved)
            header = [f"x{j}" for j in range(d)] + ["label" if classify else "target"]
            write_csv(table, header, [row + [y] for row, y in zip(inputs, targets)])
            assert saved.read_bytes() == table.read_bytes()
        assert back.inputs.shape == (n, d)
        assert back.inputs.tobytes() == dataset.inputs.tobytes()  # -0.0 differs from 0.0
        assert back.targets.dtype == dataset.targets.dtype
        assert back.targets.tobytes() == dataset.targets.tobytes()
        assert back.class_count == (max(max(targets) + 1, 2) if classify else None)

    def test_all_zero_labels_infer_two_classes(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("x0,label\n1.0,0\n2.0,0\n")
        assert load_dataset(path).class_count == 2

    def test_malformed_files(self, tmp_path):
        bad_header = tmp_path / "h.csv"
        bad_header.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(MalformedRecordError, match="header"):
            load_dataset(bad_header)
        empty = tmp_path / "e.csv"
        empty.write_text("")
        with pytest.raises(MalformedRecordError, match="header"):
            load_dataset(empty)
        ragged = tmp_path / "r.csv"
        ragged.write_text("x0,x1,target\n1.0,2.0,3.0\n1.0,2.0\n")
        with pytest.raises(MalformedRecordError, match="expected 3 fields"):
            load_dataset(ragged)
        bad_cell = tmp_path / "c.csv"
        bad_cell.write_text("x0,x1,target\n1.0,2.0,3.0\n1.0,abc,3.0\n")
        with pytest.raises(MalformedRecordError, match="c.csv:3"):
            load_dataset(bad_cell)
        bad_label = tmp_path / "l.csv"
        bad_label.write_text("x0,label\n1.0,0\n2.0,1.5\n")
        with pytest.raises(MalformedRecordError, match="l.csv:3"):
            load_dataset(bad_label)
        wide_label = tmp_path / "w.csv"
        wide_label.write_text("x0,label\n1.0,0\n2.0,99999999999999999999\n")
        with pytest.raises(MalformedRecordError, match="w.csv:3"):
            load_dataset(wide_label)
        huge_label = tmp_path / "u.csv"  # inferring 10**15 classes would allocate petabytes
        huge_label.write_text("x0,label\n1.0,1000000000000000\n2.0,0\n")
        with pytest.raises(MalformedRecordError, match="u.csv:2"):
            load_dataset(huge_label)
        at_bound = tmp_path / "b.csv"  # the largest label the row count allows
        at_bound.write_text("x0,label\n1.0,2\n2.0,0\n3.0,1\n")
        assert load_dataset(at_bound).class_count == 3
        one_row = tmp_path / "o.csv"  # two classes are always allowed
        one_row.write_text("x0,label\n1.0,1\n")
        assert load_dataset(one_row).class_count == 2
        no_rows = tmp_path / "n.csv"
        no_rows.write_text("x0,target\n")
        with pytest.raises(EmptyInputError):
            load_dataset(no_rows)
