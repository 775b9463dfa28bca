"""Geometry and report-artifact tests: distances, histogram, GeoJSON, SVG."""

from __future__ import annotations

import json
import math
import random

import pytest

import oracles
import pipeline_fixtures as fx
from geolex.geo import (
    EARTH_RADIUS_KM,
    DistanceHistogram,
    GeoPoint,
    LinkedPlace,
    distance_histogram,
    geojson_dumps,
    haversine_km,
    project_equirectangular,
    render_svg_map,
    to_geojson,
)

STOCKHOLM = GeoPoint(59.329444, 18.068611)
REFERENCE = GeoPoint(62.0, 15.0)


def random_point(rng: random.Random) -> GeoPoint:
    return GeoPoint(rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0))


def fixture_places() -> list[LinkedPlace]:
    coordinates = fx.expected_coordinates()
    headword_by_id = dict(fx.HEADWORDS)
    qid_by_id = dict(fx.EXPECTED_LINKS)
    return [
        LinkedPlace(
            entry_id=entry_id,
            headword=headword_by_id[entry_id],
            qid=qid_by_id[entry_id],
            point=GeoPoint(lat, lon),
            similarity=0.5,
        )
        for entry_id, (lat, lon) in sorted(coordinates.items())
    ]


class TestGeoPoint:
    def test_bounds_inclusive(self):
        GeoPoint(90.0, 180.0)
        GeoPoint(-90.0, -180.0)

    @pytest.mark.parametrize("lat,lon", [
        (90.5, 0.0),
        (-91.0, 0.0),
        (0.0, 180.5),
        (0.0, -181.0),
        (float("nan"), 0.0),
        (0.0, float("inf")),
    ])
    def test_out_of_range_rejected(self, lat, lon):
        with pytest.raises(ValueError):
            GeoPoint(lat, lon)


class TestHaversine:
    def test_zero_for_identical_points(self):
        assert haversine_km(STOCKHOLM, STOCKHOLM) == 0.0

    def test_symmetry(self):
        rng = random.Random(11)
        for _ in range(100):
            a, b = random_point(rng), random_point(rng)
            assert haversine_km(a, b) == pytest.approx(
                haversine_km(b, a), abs=1e-9
            )

    def test_antipodal_distance_is_half_circumference(self):
        north = GeoPoint(90.0, 0.0)
        south = GeoPoint(-90.0, 0.0)
        assert haversine_km(north, south) == pytest.approx(
            math.pi * EARTH_RADIUS_KM, abs=1e-3
        )
        a = GeoPoint(10.0, 20.0)
        b = GeoPoint(-10.0, -160.0)
        assert haversine_km(a, b) == pytest.approx(
            math.pi * EARTH_RADIUS_KM, abs=1e-3
        )

    def test_agrees_with_atan2_formulation(self):
        rng = random.Random(23)
        for _ in range(200):
            a, b = random_point(rng), random_point(rng)
            expected = oracles.haversine_atan2_km(a.lat, a.lon, b.lat, b.lon)
            assert haversine_km(a, b) == pytest.approx(expected, abs=1e-6)

    def test_stockholm_to_reference(self):
        expected = oracles.haversine_atan2_km(
            STOCKHOLM.lat, STOCKHOLM.lon, REFERENCE.lat, REFERENCE.lon
        )
        distance = haversine_km(STOCKHOLM, REFERENCE)
        assert distance == pytest.approx(expected, abs=0.1)
        assert distance == pytest.approx(340.6866, abs=1e-3)

    def test_triangle_inequality(self):
        rng = random.Random(7)
        for _ in range(100):
            a, b, c = (random_point(rng) for _ in range(3))
            assert haversine_km(a, c) <= (
                haversine_km(a, b) + haversine_km(b, c) + 1e-6
            )

    def test_never_exceeds_half_circumference(self):
        rng = random.Random(31)
        limit = math.pi * EARTH_RADIUS_KM
        for _ in range(100):
            assert haversine_km(random_point(rng), random_point(rng)) <= limit

    def test_one_degree_longitude_at_equator(self):
        d = haversine_km(GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0))
        assert d == pytest.approx(EARTH_RADIUS_KM * math.pi / 180.0, abs=1e-9)


class TestDistanceHistogram:
    def test_counts_are_conserved(self):
        rng = random.Random(3)
        points = [random_point(rng) for _ in range(137)]
        histogram = distance_histogram(points, REFERENCE, bucket_km=500.0)
        assert histogram.total == 137

    def test_band_assignment(self):
        # reference to Stockholm is ~340.7 km: band 0 at 500 km buckets,
        # band 3 at 100 km buckets
        assert distance_histogram([STOCKHOLM], REFERENCE, 500.0).counts == (
            (0, 1),
        )
        assert distance_histogram([STOCKHOLM], REFERENCE, 100.0).counts == (
            (3, 1),
        )

    def test_zero_distance_lands_in_band_zero(self):
        histogram = distance_histogram([REFERENCE], REFERENCE, 500.0)
        assert histogram.counts == ((0, 1),)

    def test_empty_bands_are_omitted(self):
        near = GeoPoint(62.0, 15.1)
        far = GeoPoint(-30.0, -60.0)
        histogram = distance_histogram([near, far], REFERENCE, 500.0)
        bands = [band for band, _ in histogram.counts]
        assert bands[0] == 0
        assert len(bands) == 2
        assert histogram.total == 2

    def test_csv_format(self):
        histogram = DistanceHistogram(REFERENCE, 500.0, ((0, 3), (2, 1)))
        assert histogram.to_csv() == (
            "bucket_lower_km,count\n0,3\n1000,1\n"
        )

    def test_csv_fractional_bucket_width(self):
        histogram = DistanceHistogram(REFERENCE, 250.5, ((1, 2),))
        assert histogram.to_csv() == "bucket_lower_km,count\n250.5,2\n"

    def test_bad_bucket_rejected(self):
        for bad in (0.0, -10.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                distance_histogram([], REFERENCE, bad)

    def test_recount_against_independent_binning(self):
        rng = random.Random(41)
        points = [random_point(rng) for _ in range(100)]
        bucket = 750.0
        histogram = distance_histogram(points, REFERENCE, bucket)
        recount: dict[int, int] = {}
        for point in points:
            d = oracles.haversine_atan2_km(
                point.lat, point.lon, REFERENCE.lat, REFERENCE.lon
            )
            band = int(d // bucket)
            recount[band] = recount.get(band, 0) + 1
        assert dict(histogram.counts) == recount


class TestGeoJson:
    def test_positions_are_longitude_first(self):
        place = LinkedPlace("9:211:2", "Stockholm", "Q1754", STOCKHOLM, 0.51)
        document = to_geojson([place])
        coordinates = document["features"][0]["geometry"]["coordinates"]
        assert coordinates == [18.068611, 59.329444]

    def test_features_sorted_by_entry_id(self):
        places = fixture_places()
        document = to_geojson(list(reversed(places)))
        ids = [f["properties"]["entry_id"] for f in document["features"]]
        assert ids == sorted(ids)
        assert len(ids) == 5

    def test_fixture_document_structure(self):
        document = to_geojson(fixture_places())
        assert document["type"] == "FeatureCollection"
        for feature in document["features"]:
            assert feature["type"] == "Feature"
            assert feature["geometry"]["type"] == "Point"
            lon, lat = feature["geometry"]["coordinates"]
            assert -180.0 <= lon <= 180.0
            assert -90.0 <= lat <= 90.0
            for key in ("entry_id", "headword", "qid", "similarity"):
                assert key in feature["properties"]

    def test_canonical_dumps(self):
        document = {"b": 1, "a": [1, 2], "åäö": "behålls"}
        text = geojson_dumps(document)
        assert text == '{"a":[1,2],"b":1,"åäö":"behålls"}\n'

    def test_dumps_is_deterministic(self):
        document = to_geojson(fixture_places())
        assert geojson_dumps(document) == geojson_dumps(
            to_geojson(list(reversed(fixture_places())))
        )

    def test_validates_against_feature_collection_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = {
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
        document = json.loads(geojson_dumps(to_geojson(fixture_places())))
        jsonschema.validate(document, schema)


class TestProjection:
    def test_origin_maps_to_canvas_center(self):
        assert project_equirectangular(GeoPoint(0.0, 0.0), 1600) == (800.0, 400.0)

    def test_corners(self):
        assert project_equirectangular(GeoPoint(90.0, -180.0), 1600) == (0.0, 0.0)
        assert project_equirectangular(GeoPoint(-90.0, 180.0), 1600) == (
            1600.0,
            800.0,
        )

    def test_x_grows_east_y_grows_south(self):
        x_west, _ = project_equirectangular(GeoPoint(0.0, -10.0), 1600)
        x_east, _ = project_equirectangular(GeoPoint(0.0, 10.0), 1600)
        assert x_west < x_east
        _, y_north = project_equirectangular(GeoPoint(10.0, 0.0), 1600)
        _, y_south = project_equirectangular(GeoPoint(-10.0, 0.0), 1600)
        assert y_north < y_south


class TestSvgMap:
    def test_one_circle_per_place(self):
        svg = render_svg_map(fixture_places())
        assert svg.count("<circle") == 5
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")

    def test_byte_stable_across_runs_and_input_order(self):
        places = fixture_places()
        first = render_svg_map(places)
        second = render_svg_map(list(reversed(places)))
        assert first.encode("utf-8") == second.encode("utf-8")

    def test_circle_position_matches_projection(self):
        place = LinkedPlace("9:211:2", "Stockholm", "Q1754", STOCKHOLM, 0.5)
        svg = render_svg_map([place], width_px=1600)
        x, y = project_equirectangular(STOCKHOLM, 1600)
        assert f'cx="{x:.2f}" cy="{y:.2f}"' in svg

    def test_hover_text_names_headword_and_item(self):
        svg = render_svg_map(fixture_places())
        assert "<title>Stockholm (Q1754)</title>" in svg
        assert "<title>Wien (Q1741)</title>" in svg

    def test_hover_text_is_escaped(self):
        place = LinkedPlace("1:1:1", "A<B & C", "Q1", GeoPoint(0.0, 0.0), 0.0)
        svg = render_svg_map([place])
        assert "<title>A&lt;B &amp; C (Q1)</title>" in svg
        assert "<title>A<B" not in svg
        # Element text needs only &, < and > escaped; quotes stay as they are.
        place = LinkedPlace("1:1:1", """S:t "Eriks" & 'Olofs' <a>""", "Q2",
                            GeoPoint(0.0, 0.0), 0.0)
        svg = render_svg_map([place])
        assert """<title>S:t "Eriks" &amp; 'Olofs' &lt;a&gt; (Q2)</title>""" in svg

    def test_graticule_lines_every_thirty_degrees(self):
        svg = render_svg_map([], graticule=True)
        # 13 meridians (-180..180) + 7 parallels (-90..90)
        assert svg.count("<line") == 20
        assert render_svg_map([], graticule=False).count("<line") == 0

    def test_height_is_half_width(self):
        svg = render_svg_map([], width_px=1000)
        assert 'width="1000" height="500"' in svg
        assert 'viewBox="0 0 1000 500"' in svg

    def test_odd_or_tiny_width_rejected(self):
        with pytest.raises(ValueError):
            render_svg_map([], width_px=1601)
        with pytest.raises(ValueError):
            render_svg_map([], width_px=0)

    def test_unicode_headwords_survive(self):
        place = LinkedPlace("1:1:1", "Åmål", "Q54", GeoPoint(59.05, 12.7), 0.0)
        svg = render_svg_map([place])
        assert "<title>Åmål (Q54)</title>" in svg
