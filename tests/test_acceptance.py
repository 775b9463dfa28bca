"""Acceptance suite.

One test per acceptance criterion.  Every test prints exactly one
``[PASS]``/``[FAIL]`` line (visible even under captured output) with the
measured values and the elapsed wall time, then asserts.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time

import numpy as np
import pytest

import pipeline_fixtures as fx
from geolex.classifier import EvalReport, evaluate, loss_gradients, mean_loss, train
from geolex.corpus import (
    MAX_DEFINITION_CHARS,
    iter_dataset,
    load_dataset,
    truncate_definition,
)
from geolex.geo import (
    EARTH_RADIUS_KM,
    GeoPoint,
    distance_histogram,
    haversine_km,
)
from geolex.linker import rank_candidates
from geolex.wikidata import HttpRequest, WikidataClient

GEOJSON_SCHEMA = {
    "type": "object",
    "required": ["type", "features"],
    "properties": {
        "type": {"const": "FeatureCollection"},
        "features": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["type", "geometry", "properties"],
                "properties": {
                    "type": {"const": "Feature"},
                    "geometry": {
                        "type": "object",
                        "required": ["type", "coordinates"],
                        "properties": {
                            "type": {"const": "Point"},
                            "coordinates": {
                                "type": "array",
                                "minItems": 2,
                                "maxItems": 2,
                                "items": {"type": "number"},
                            },
                        },
                    },
                    "properties": {"type": "object"},
                },
            },
        },
    },
}


def announce(capsys, number: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {number} {name}: {detail}")


def test_1_metric_reproduction(capsys):
    started = time.perf_counter()
    report = EvalReport.from_counts(tp=93, fp=6, fn=7, tn=94)
    targets = {
        "accuracy": (report.accuracy, 0.935),
        "precision": (report.precision, 0.939),
        "recall": (report.recall, 0.930),
        "f1": (report.f1, 0.935),
    }
    metric_ok = {
        name: abs(actual - expected) <= 0.0005
        for name, (actual, expected) in targets.items()
    }
    expected_rows = ((0.93, 0.07), (0.06, 0.94))
    rows_ok = all(
        abs(actual - expected) <= 0.005
        for actual_row, expected_row in zip(report.normalized_confusion, expected_rows)
        for actual, expected in zip(actual_row, expected_row)
    )
    elapsed = time.perf_counter() - started
    ok = all(metric_ok.values()) and rows_ok and elapsed < 1.0
    announce(
        capsys,
        1,
        "metric-reproduction",
        ok,
        "counts (93,6,7,94) -> "
        + " ".join(f"{k}={v[0]:.4f}" for k, v in targets.items())
        + f" rows={report.normalized_confusion} in {elapsed:.3f}s",
    )
    for name, good in metric_ok.items():
        assert good, f"{name}: {targets[name][0]:.6f} vs {targets[name][1]} ±0.0005"
    assert rows_ok, f"confusion rows {report.normalized_confusion} off by >0.005"
    assert elapsed < 1.0


def test_2_gradient_check(capsys):
    started = time.perf_counter()
    h = 1e-5
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(3, 16))
        n = int(rng.integers(5, 30))
        features = rng.normal(size=(n, d))
        labels = rng.integers(0, 2, size=n).astype(np.float64)
        w = rng.normal(scale=0.8, size=d)
        b = float(rng.normal())
        grad_w, grad_b = loss_gradients(w, b, features, labels)
        for j in range(d):
            step = np.zeros(d)
            step[j] = h
            fd = (
                mean_loss(w + step, b, features, labels)
                - mean_loss(w - step, b, features, labels)
            ) / (2 * h)
            worst = max(
                worst, abs(grad_w[j] - fd) / max(abs(grad_w[j]), abs(fd), 1e-12)
            )
        fd_b = (
            mean_loss(w, b + h, features, labels)
            - mean_loss(w, b - h, features, labels)
        ) / (2 * h)
        worst = max(worst, abs(grad_b - fd_b) / max(abs(grad_b), abs(fd_b), 1e-12))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-6 and elapsed < 5.0
    announce(
        capsys,
        2,
        "gradient-check",
        ok,
        f"10 seeded instances, h=1e-5, worst relative error {worst:.3e} "
        f"in {elapsed:.3f}s",
    )
    assert worst < 1e-6
    assert elapsed < 5.0


def test_3_separable_training(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(20240601)
    dim, per_class = 8, 100
    positive = rng.normal(loc=1.5, scale=0.5, size=(per_class, dim))
    negative = rng.normal(loc=-1.5, scale=0.5, size=(per_class, dim))

    # brute-force linear scan: the two clusters must be separable along
    # the difference-of-means direction before the classifier sees them
    direction = positive.mean(axis=0) - negative.mean(axis=0)
    separable = float(np.min(positive @ direction)) > float(
        np.max(negative @ direction)
    )

    examples = [(vector, True) for vector in positive] + [
        (vector, False) for vector in negative
    ]
    model = train(examples)
    report = evaluate(model, examples)
    features = np.vstack([positive, negative])
    labels = np.array([1.0] * per_class + [0.0] * per_class)
    final_loss = mean_loss(model.weights, model.bias, features, labels)
    elapsed = time.perf_counter() - started
    ok = separable and report.accuracy == 1.0 and final_loss < 0.05 and elapsed < 10.0
    announce(
        capsys,
        3,
        "separable-training",
        ok,
        f"200 seeded two-Gaussian points: accuracy={report.accuracy:.3f} "
        f"final_loss={final_loss:.4f} (separable scan: {separable}) "
        f"in {elapsed:.3f}s",
    )
    assert separable, "fixture clusters are not linearly separable"
    assert report.accuracy == 1.0
    assert final_loss < 0.05
    assert elapsed < 10.0


def test_4_linker_argmax_and_order_invariance(capsys):
    started = time.perf_counter()
    checked_sets = 0
    checked_perms = 0
    for i in range(100):
        rng = np.random.default_rng(3000 + i)
        size = int(rng.integers(1, 6))
        definition = rng.normal(size=8)
        numbers = rng.choice(np.arange(1, 10_000), size=size, replace=False)
        vectors = [rng.normal(size=8) for _ in range(size)]
        if size >= 2 and i % 3 == 0:
            vectors[1] = vectors[0].copy()  # forced exact tie
        candidates = [
            (f"Q{int(number)}", vector) for number, vector in zip(numbers, vectors)
        ]

        # independent brute force: max cosine, ties to the lowest number
        best_key = None
        best_qid = None
        for qid, vector in candidates:
            norm_product = np.linalg.norm(definition) * np.linalg.norm(vector)
            similarity = (
                float(np.dot(definition, vector) / norm_product)
                if norm_product
                else 0.0
            )
            key = (-similarity, int(qid[1:]))
            if best_key is None or key < best_key:
                best_key = key
                best_qid = qid

        baseline = rank_candidates(definition, candidates)[0][0]
        assert baseline == best_qid, f"set {i}: {baseline} != argmax {best_qid}"
        for permutation in itertools.permutations(candidates):
            chosen = rank_candidates(definition, list(permutation))[0][0]
            assert chosen == baseline, f"set {i}: order changed the winner"
            checked_perms += 1
        checked_sets += 1
    elapsed = time.perf_counter() - started
    ok = checked_sets == 100 and elapsed < 5.0
    announce(
        capsys,
        4,
        "linker-argmax-order-invariance",
        ok,
        f"{checked_sets} seeded candidate sets, {checked_perms} permutations, "
        f"winner always the brute-force cosine argmax, in {elapsed:.3f}s",
    )
    assert ok


def test_5_end_to_end_replay_fixture(workspace, no_network, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    started = time.perf_counter()

    first_code = workspace.run_all_stages()
    first_svg = workspace.svg.read_bytes()
    first_geojson = workspace.geojson.read_text(encoding="utf-8")
    entries = {e.id: e for e in load_dataset(workspace.dataset)}

    second_code = workspace.run_all_stages()
    second_svg = workspace.svg.read_bytes()

    arktonnesos = entries["2:57:1"]
    iowa = entries["9:210:1"]
    aachen = entries["1:101:1"]
    stockholm = entries["9:211:2"]

    document = json.loads(first_geojson)
    try:
        jsonschema.validate(document, GEOJSON_SCHEMA)
        geojson_valid = True
    except jsonschema.ValidationError:
        geojson_valid = False

    elapsed = time.perf_counter() - started
    checks = {
        "exit codes": first_code == 0 and second_code == 0,
        "12 entries": len(entries) == 12,
        "Arktonnesos unlinked": arktonnesos.qid is None,
        "Iowa mislink": iowa.qid == "Q99670857",
        "Aachen link": aachen.qid == "Q896929",
        "Stockholm link": stockholm.qid == "Q1754",
        "GeoJSON valid": geojson_valid,
        "SVG byte-stable": first_svg == second_svg,
        "runtime": elapsed < 30.0,
    }
    ok = all(checks.values())
    announce(
        capsys,
        5,
        "end-to-end-replay",
        ok,
        "12-entry fixture, two offline replay runs (network guard active): "
        + ", ".join(f"{name}={'yes' if good else 'NO'}" for name, good in checks.items())
        + f", in {elapsed:.3f}s",
    )
    for name, good in checks.items():
        assert good, f"end-to-end check failed: {name}"


def test_6_geometry_suite(capsys):
    started = time.perf_counter()
    rng = random.Random(606)

    def random_point() -> GeoPoint:
        return GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))

    worst_asymmetry = 0.0
    for _ in range(100):
        a, b = random_point(), random_point()
        worst_asymmetry = max(
            worst_asymmetry, abs(haversine_km(a, b) - haversine_km(b, a))
        )
    symmetric = worst_asymmetry <= 1e-9

    antipodal = haversine_km(GeoPoint(90, 0), GeoPoint(-90, 0))
    antipodal_ok = abs(antipodal - math.pi * EARTH_RADIUS_KM) <= 1e-3

    triangle_ok = True
    for _ in range(100):
        a, b, c = random_point(), random_point(), random_point()
        if haversine_km(a, c) > haversine_km(a, b) + haversine_km(b, c) + 1e-6:
            triangle_ok = False
            break

    conserved = True
    reference = GeoPoint(62.0, 15.0)
    fixture_points = [
        GeoPoint(lat, lon) for lat, lon in fx.expected_coordinates().values()
    ]
    random_points = [random_point() for _ in range(137)]
    for points in (fixture_points, random_points):
        for bucket in (100.0, 500.0, 2000.0):
            histogram = distance_histogram(points, reference, bucket)
            if histogram.total != len(points):
                conserved = False

    elapsed = time.perf_counter() - started
    ok = symmetric and antipodal_ok and triangle_ok and conserved and elapsed < 5.0
    announce(
        capsys,
        6,
        "geometry-suite",
        ok,
        f"symmetry<=1e-9 ({worst_asymmetry:.2e}), antipodal={antipodal:.3f} "
        f"vs {math.pi * EARTH_RADIUS_KM:.3f}±1e-3, triangle(100 triples)="
        f"{triangle_ok}, histogram conservation={conserved}, in {elapsed:.3f}s",
    )
    assert symmetric
    assert antipodal_ok
    assert triangle_ok
    assert conserved
    assert elapsed < 5.0


def test_7_truncation_property(capsys):
    started = time.perf_counter()
    rng = random.Random(707)
    alphabet = "abcdefghijklmnopqrstuvwxyzåäö ABC .,;:()[]-0123456789"
    idempotent = bounded = period_rule = prefix_rule = True
    for _ in range(1000):
        length = rng.randint(0, 400)
        text = "".join(rng.choice(alphabet) for _ in range(length))
        out = truncate_definition(text)
        if truncate_definition(out) != out:
            idempotent = False
        if len(out) > MAX_DEFINITION_CHARS:
            bounded = False
        prefix = text[:MAX_DEFINITION_CHARS]
        if "." in prefix:
            if not out.endswith("."):
                period_rule = False
        elif out != prefix:
            prefix_rule = False
    elapsed = time.perf_counter() - started
    ok = idempotent and bounded and period_rule and prefix_rule and elapsed < 2.0
    announce(
        capsys,
        7,
        "truncation-property",
        ok,
        f"1000 seeded strings: idempotent={idempotent}, <=200 chars={bounded}, "
        f"ends-at-period={period_rule}, plain-prefix-otherwise={prefix_rule}, "
        f"in {elapsed:.3f}s",
    )
    assert ok


def test_8_full_scale_statement_and_architecture(tmp_path, capsys):
    started = time.perf_counter()

    # streaming ingest: the dataset reader must be a true generator that
    # yields entries without materializing the whole file
    import types

    from geolex.corpus import Entry, save_dataset

    big = [
        Entry(
            id=f"1:{page}:{ordinal}",
            volume=1,
            page=page,
            headword=f"Ort{page}x{ordinal}",
            definition=f"Ort{page}x{ordinal}, en ort.",
            raw_text=f"Ort{page}x{ordinal}, en ort.",
        )
        for page in range(1, 501)
        for ordinal in (1, 2)
    ]
    dataset_path = tmp_path / "big.jsonl"
    save_dataset(big, dataset_path)
    stream = iter_dataset(dataset_path)
    streaming_ok = isinstance(stream, types.GeneratorType)
    first = next(stream)
    streaming_ok = streaming_ok and first.id == "1:1:1"
    consumed = 1 + sum(1 for _ in stream)
    streaming_ok = streaming_ok and consumed == 1000

    # batched SPARQL: 450 items must go out as exactly three requests of
    # 200, 200, and 50 ids
    class CountingTransport:
        def __init__(self):
            self.batch_sizes: list[int] = []

        def send(self, request: HttpRequest) -> bytes:
            body = request.body.decode("ascii")
            self.batch_sizes.append(body.count("wd%3AQ") or body.count("wd:Q"))
            return b'{"results": {"bindings": []}}'

    transport = CountingTransport()
    client = WikidataClient(transport=transport, sleep=lambda s: None)
    client.fetch_coordinates([f"Q{i}" for i in range(1, 451)])
    batching_ok = transport.batch_sizes == [200, 200, 50]

    elapsed = time.perf_counter() - started
    ok = streaming_ok and batching_ok and elapsed < 10.0
    announce(
        capsys,
        8,
        "full-scale-statement",
        ok,
        "NOT REPRODUCIBLE HERE: the full-corpus figures (130,383 entries; "
        "28,284 locations, approximately 21.7 percent; 17,793 coordinates; "
        "and the original 200-entry test-set scores) require the complete "
        "scanned encyclopedia, a neural sentence embedder, and live "
        "Wikidata; the bounded checks 1-7 stand in for them. Architecture "
        f"accepts full scale: streaming dataset reader={streaming_ok}, "
        f"SPARQL batches for 450 ids={transport.batch_sizes} "
        f"(expect [200, 200, 50]), in {elapsed:.3f}s",
    )
    assert streaming_ok, "dataset reader is not a streaming generator"
    assert batching_ok, f"bad SPARQL batching: {transport.batch_sizes}"
