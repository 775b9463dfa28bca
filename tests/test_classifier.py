"""Classifier tests: training, prediction, evaluation, persistence."""

from __future__ import annotations

import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

import oracles
import pipeline_fixtures as fx
from geolex.classifier import (
    EvalReport,
    LogisticModel,
    classify,
    classify_batch,
    evaluate,
    load_annotations,
    load_model,
    loss_gradients,
    mean_loss,
    save_model,
    sigmoid,
    train,
)
from geolex.corpus import RawPage, segment_pages
from geolex.embedding import HashedTrigramEmbedder
from geolex.errors import DatasetError


def fixture_examples():
    """The fixture's definitions as one embedded matrix, their labels,
    and the entries by id."""
    pages = [RawPage(v, p, t) for v, p, t in fx.PAGES]
    entries = {e.id: e for e in segment_pages(pages)}
    features = HashedTrigramEmbedder().embed_batch(
        [entries[entry_id].definition for entry_id in fx.ENTRY_IDS]
    )
    return features, [fx.IS_LOCATION[entry_id] for entry_id in fx.ENTRY_IDS], entries


class TestSigmoidAndProba:
    def test_zero_model_gives_half(self):
        model = LogisticModel(weights=np.zeros(4), bias=0.0)
        assert sigmoid(model.weights @ np.array([1.0, -2.0, 3.0, 0.5]) + model.bias) == 0.5

    def test_ln3_gives_three_quarters(self):
        assert sigmoid(math.log(3.0)) == pytest.approx(0.75, abs=1e-12)

    def test_bias_monotonicity(self):
        x = np.array([0.3, -0.7])
        w = np.array([1.0, 2.0])
        last = -1.0
        for bias in (-5.0, -1.0, 0.0, 1.0, 5.0):
            p = sigmoid(w @ x + bias)
            assert p > last
            last = p

    def test_extreme_inputs_stay_finite(self):
        assert sigmoid(np.array([800.0]))[0] == pytest.approx(1.0)
        assert sigmoid(np.array([-800.0]))[0] == pytest.approx(0.0)
        assert np.isfinite(sigmoid(np.array([-1e308, 1e308]))).all()

    def test_dimension_mismatch(self):
        model = LogisticModel(weights=np.zeros(3), bias=0.0)
        with pytest.raises(ValueError):
            classify(model, np.zeros(4))


class TestClassify:
    def test_boundary_is_inclusive(self):
        model = LogisticModel(weights=np.zeros(2), bias=0.0)  # proba exactly 0.5
        assert classify(model, np.array([1.0, 1.0])) is True

    def test_below_threshold(self):
        model = LogisticModel(weights=np.array([1.0, 0.0]), bias=0.0)
        x = np.array([-0.1, 0.0])  # proba sigma(-0.1) ~ 0.475
        assert classify(model, x) is False

    def test_decision_matches_logit_comparison(self):
        # comparing sigma(z) >= sigma(t) must equal comparing z >= t
        rng = np.random.default_rng(5)
        for _ in range(50):
            w = rng.normal(size=3)
            b = float(rng.normal())
            x = rng.normal(size=3)
            t = float(rng.uniform(0.05, 0.95))
            model = LogisticModel(weights=w, bias=b, threshold=t)
            z = float(w @ x) + b
            logit_t = math.log(t / (1.0 - t))
            assert classify(model, x) == (z >= logit_t)

    def test_fixture_stockholm_is_location(self):
        features, labels, entries = fixture_examples()
        model = train(features, labels)
        embedder = HashedTrigramEmbedder()
        stockholm = entries["9:211:2"]
        assert stockholm.definition.startswith("Stockholm, Sveriges hufvudstad")
        assert classify(model, embedder.embed(stockholm.definition)) is True


class TestClassifyBatch:
    def test_flags_equal_per_row_classify_on_random_models(self):
        rng = np.random.default_rng(23)
        embedder = HashedTrigramEmbedder(dim=16)
        texts = [f"ort {i} vid sjön {i * 7919} i län {i % 7}" for i in range(300)] + ["", "ab"]
        vectors = embedder.embed_batch(texts)
        for _ in range(40):
            model = LogisticModel(
                weights=rng.normal(size=16) * rng.choice([0.1, 1.0, 10.0]),
                bias=float(rng.normal()),
                threshold=float(rng.uniform(0.05, 0.95)),
            )
            flags = classify_batch(model, vectors)
            assert flags == [classify(model, v) for v in vectors]
            assert flags == [oracles.predict_proba(model, v) >= model.threshold for v in vectors]
            assert all(type(flag) is bool for flag in flags)

    def test_probability_exactly_at_threshold_marks_every_row(self):
        model = LogisticModel(weights=np.zeros(8), bias=0.0)  # proba exactly 0.5
        rows = list(np.random.default_rng(3).normal(size=(50, 8))) + [np.zeros(8)]
        assert classify_batch(model, rows) == [True] * len(rows)

    def test_empty_batch(self):
        assert classify_batch(LogisticModel(weights=np.zeros(3), bias=0.0), []) == []

    def test_dimension_mismatch_in_any_row(self):
        model = LogisticModel(weights=np.zeros(3), bias=0.0)
        with pytest.raises(ValueError):
            classify_batch(model, [np.zeros(3), np.zeros(4)])


class TestTrain:
    def test_orthogonal_pair_separates(self):
        a = np.zeros(4)
        b = np.zeros(4)
        a[0] = 1.0
        b[1] = 1.0
        model = train(np.array([a, b]), [True, False])
        assert classify(model, a) is True
        assert classify(model, b) is False

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="one class"):
            train(np.array([np.ones(3), np.zeros(3)]), [True, True])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no training examples"):
            train(np.empty((0, 3)), [])

    def test_nan_features_rejected(self):
        bad = np.array([1.0, float("nan")])
        with pytest.raises(ValueError, match="non-finite"):
            train(np.array([bad, np.zeros(2)]), [True, False])

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError):
            train([np.ones(3), np.ones(4)], [True, False])

    def test_fits_the_matrix_without_copying_it(self):
        # NumPy reports its buffers to tracemalloc.  Beyond the matrix,
        # train may hold its finiteness mask (an eighth of the matrix)
        # and per-epoch vectors of n or dim floats, never a copy.
        rng = np.random.default_rng(500)
        features = rng.normal(size=(500, 384)) / np.sqrt(384)
        labels = (rng.random(500) < 0.22).tolist()
        tracemalloc.start()
        try:
            train(features, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < features.nbytes / 2

    def test_label_count_must_match_rows(self):
        with pytest.raises(ValueError, match="1 labels for 2"):
            train(np.eye(2), [True])

    def test_bad_hyperparams_rejected(self):
        features, labels = np.array([[1.0], [-1.0]]), [True, False]
        with pytest.raises(ValueError):
            train(features, labels, learning_rate=0.0)
        with pytest.raises(ValueError):
            train(features, labels, epochs=0)

    def test_divergence_raises(self):
        features = np.array([[100.0, 0.0], [-100.0, 1.0]])
        with pytest.raises(ValueError, match="diverged"):
            train(features, [True, False], learning_rate=1e6)

    def test_final_loss_not_above_initial(self):
        features, flags, _ = fixture_examples()
        model = train(features, flags)
        labels = np.asarray([1.0 if flag else 0.0 for flag in flags])
        initial = mean_loss(np.zeros(features.shape[1]), 0.0, features, labels)
        final = mean_loss(model.weights, model.bias, features, labels)
        assert final <= initial

    def test_records_hyperparams_and_count(self):
        features, labels, _ = fixture_examples()
        model = train(features, labels)
        assert model.trained_on == 12
        assert model.hyperparams == {
            "learning_rate": 0.1,
            "l2_lambda": 1e-4,
            "epochs": 500,
        }

    def test_deterministic(self):
        features, labels, _ = fixture_examples()
        first = train(features, labels)
        second = train(features, labels)
        np.testing.assert_array_equal(first.weights, second.weights)
        assert first.bias == second.bias

    def test_loss_non_increasing_per_epoch_small_lr(self):
        # step manually at learning rate 1e-2 over the fixture set and
        # watch the full-batch loss after every single update
        features, flags, _ = fixture_examples()
        labels = np.asarray([1.0 if flag else 0.0 for flag in flags])
        w = np.zeros(features.shape[1])
        b = 0.0
        last = mean_loss(w, b, features, labels)
        for _ in range(200):
            grad_w, grad_b = loss_gradients(w, b, features, labels)
            w = w - 1e-2 * grad_w
            b = b - 1e-2 * grad_b
            current = mean_loss(w, b, features, labels)
            assert current <= last + 1e-12
            last = current


class TestGradients:
    def test_matches_central_differences(self):
        h = 1e-5
        for seed in range(10):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(3, 12))
            n = int(rng.integers(4, 20))
            features = rng.normal(size=(n, d))
            labels = rng.integers(0, 2, size=n).astype(np.float64)
            w = rng.normal(scale=0.5, size=d)
            b = float(rng.normal())
            grad_w, grad_b = loss_gradients(w, b, features, labels)
            for j in range(d):
                step = np.zeros(d)
                step[j] = h
                fd = (
                    mean_loss(w + step, b, features, labels)
                    - mean_loss(w - step, b, features, labels)
                ) / (2 * h)
                rel = abs(grad_w[j] - fd) / max(abs(grad_w[j]), abs(fd), 1e-12)
                assert rel < 1e-6
            fd_b = (
                mean_loss(w, b + h, features, labels)
                - mean_loss(w, b - h, features, labels)
            ) / (2 * h)
            rel_b = abs(grad_b - fd_b) / max(abs(grad_b), abs(fd_b), 1e-12)
            assert rel_b < 1e-6

    def test_l2_term_differentiates_too(self):
        rng = np.random.default_rng(99)
        w = rng.normal(size=5)
        features = rng.normal(size=(8, 5))
        labels = rng.integers(0, 2, size=8).astype(np.float64)
        lam = 0.3
        grad_w, _ = loss_gradients(w, 0.0, features, labels, l2_lambda=lam)
        grad_w0, _ = loss_gradients(w, 0.0, features, labels, l2_lambda=0.0)
        np.testing.assert_allclose(grad_w - grad_w0, 2.0 * lam * w, atol=1e-12)


class TestEvaluate:
    def test_benchmark_counts_reproduce_reported_metrics(self):
        report = EvalReport.from_counts(tp=93, fp=6, fn=7, tn=94)
        assert report.accuracy == pytest.approx(0.935, abs=1e-9)
        assert report.precision == pytest.approx(0.9394, abs=5e-5)
        assert report.recall == pytest.approx(0.930, abs=1e-9)
        assert report.f1 == pytest.approx(0.9347, abs=5e-5)
        (loc_row, other_row) = report.normalized_confusion
        assert loc_row == (pytest.approx(0.93), pytest.approx(0.07))
        assert other_row == (pytest.approx(0.06), pytest.approx(0.94))

    def test_rows_sum_to_one(self):
        report = EvalReport.from_counts(tp=93, fp=6, fn=7, tn=94)
        for row in report.normalized_confusion:
            assert sum(row) == pytest.approx(1.0, abs=1e-9)

    def test_all_correct_gives_ones(self):
        model = LogisticModel(weights=np.array([10.0]), bias=0.0)
        report = evaluate(model, np.array([[1.0], [-1.0]]), [True, False])
        assert (report.accuracy, report.precision, report.recall, report.f1) == (
            1.0, 1.0, 1.0, 1.0,
        )

    def test_random_labels_match_independent_recount(self):
        rng = np.random.default_rng(2026)
        model = LogisticModel(weights=rng.normal(size=6), bias=0.1)
        features = rng.normal(size=(50, 6))
        labels = [bool(rng.integers(0, 2)) for _ in range(50)]
        report = evaluate(model, features, labels)
        # brute-force recount on a separate path
        tp = fp = fn = tn = 0
        for vector, label in zip(features, labels):
            predicted = oracles.predict_proba(model, vector) >= 0.5
            tp += label and predicted
            fn += label and not predicted
            fp += (not label) and predicted
            tn += (not label) and not predicted
        assert (report.tp, report.fp, report.fn, report.tn) == (tp, fp, fn, tn)
        expected = oracles.metrics_from_counts(tp, fp, fn, tn)
        assert report.accuracy == pytest.approx(expected["accuracy"], abs=1e-12)
        assert report.precision == pytest.approx(expected["precision"], abs=1e-12)
        assert report.recall == pytest.approx(expected["recall"], abs=1e-12)
        assert report.f1 == pytest.approx(expected["f1"], abs=1e-12)

    def test_f1_is_harmonic_mean(self):
        report = EvalReport.from_counts(tp=40, fp=10, fn=20, tn=30)
        p, r = report.precision, report.recall
        assert report.f1 == pytest.approx(2 * p * r / (p + r), abs=1e-12)

    def test_zero_denominators_define_zero(self):
        report = EvalReport.from_counts(tp=0, fp=0, fn=5, tn=5)
        assert report.precision == 0.0
        assert report.f1 == 0.0

    def test_empty_testset_rejected(self):
        model = LogisticModel(weights=np.zeros(2), bias=0.0)
        with pytest.raises(ValueError):
            evaluate(model, np.empty((0, 2)), [])
        with pytest.raises(ValueError, match="1 labels for 2"):
            evaluate(model, np.zeros((2, 2)), [True])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            EvalReport.from_counts(-1, 0, 0, 2)


class TestModelPersistence:
    def test_round_trip(self, tmp_path):
        features, labels, _ = fixture_examples()
        model = train(features, labels)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.weights, model.weights)
        assert loaded.bias == model.bias
        assert loaded.threshold == model.threshold
        assert loaded.trained_on == model.trained_on
        assert loaded.hyperparams == model.hyperparams

    def test_failed_replace_keeps_previous_model(self, tmp_path, monkeypatch):
        features, labels, _ = fixture_examples()
        path = tmp_path / "model.json"
        save_model(train(features, labels), path)
        before = path.read_bytes()

        def fail_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail_replace)
        with pytest.raises(OSError, match="disk full"):
            save_model(train(features, labels, epochs=1), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DatasetError):
            load_model(path)

    @pytest.mark.parametrize("document", [
        '{"weights": [NaN, 0.0], "bias": 0.0}',
        '{"weights": [1.0, 0.0], "bias": Infinity}',
        '{"weights": [1.0, 0.0], "bias": 0.0, "threshold": NaN}',
        # a JSON number of the wrong kind, or no number at all
        '{"weights": [1.0, 0.0], "bias": "0.25"}',
        '{"weights": ["0.5", -1], "bias": 0.0}',
        '{"weights": [true, 0.0], "bias": 0.0}',
        '{"weights": {"0": 1.0}, "bias": 0.0}',
        '{"weights": [1.0, 0.0], "bias": 0.0, "threshold": true}',
        '{"weights": [1.0, 0.0], "bias": 0.0, "trained_on": 2.9}',
        '{"weights": [1.0, 0.0], "bias": 0.0, "trained_on": true}',
        '{"weights": [1.0, 0.0], "bias": 0.0, "hyperparams": [["epochs", 5]]}',
        pytest.param('{"weights": [1.0, 0.0], "bias": 1%s}' % ("0" * 400), id="huge-int-bias"),
    ])
    def test_non_finite_number_rejected(self, tmp_path, document):
        path = tmp_path / "model.json"
        path.write_text(document, encoding="utf-8")
        with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}: invalid model file"):
            load_model(path)

    @pytest.mark.parametrize("content, message", [
        (b'{"weights": [1.0], "bias": 0.0, "note": "\xff"}', "can't decode byte 0xff"),
        (b'{"weights": [1.0], "bias": ' + b"1" * 4301 + b"}", "Exceeds the limit"),
        (b"[" * 100_000, "maximum recursion depth"),
    ], ids=["not-utf-8", "past-4300-digits", "nested-too-deep"])
    def test_unreadable_file_is_named(self, tmp_path, content, message):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        with pytest.raises(DatasetError,
                           match=f"^{re.escape(str(path))}: invalid model file: .*{message}"):
            load_model(path)

    def test_dim_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps({"dim": 5, "weights": [1.0, 2.0], "bias": 0.0}),
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match="dim"):
            load_model(path)


class TestAnnotations:
    def test_load_fixture_annotations(self, tmp_path):
        path = tmp_path / "annotations.jsonl"
        fx.write_annotations(path)
        annotations = load_annotations(path)
        assert len(annotations) == 12
        assert ("9:211:2", True) in annotations
        assert ("9:211:1", False) in annotations

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "a.jsonl"
        line = json.dumps({"entry_id": "1:1:1", "is_location": True})
        path.write_text(line + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="duplicate"):
            load_annotations(path)

    def test_non_boolean_label_rejected(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text(
            json.dumps({"entry_id": "1:1:1", "is_location": 1}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match="boolean"):
            load_annotations(path)

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text('{"entry_id": "1:1:1", "is_location": true}\n{oops\n',
                        encoding="utf-8")
        with pytest.raises(DatasetError, match=":2"):
            load_annotations(path)
