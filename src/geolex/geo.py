"""Coordinate math and report artifacts.

Distances use the haversine formula on a sphere of radius 6371 km.
Artifacts: a GeoJSON FeatureCollection of linked places, a CSV
histogram of distances from a reference point, and an SVG scatter map
on an equirectangular projection.  All three are deterministic: same
input, same bytes.  A place on the GeoJSON or the map is a
``corpus.Entry`` with a ``qid`` and coordinates; both artifacts are
written to a handle one place at a time, so neither is built whole in
memory.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import IO, TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from .corpus import Entry

EARTH_RADIUS_KM = 6371.0
DEFAULT_BUCKET_KM = 500.0
DEFAULT_MAP_WIDTH_PX = 1600
_GRID_STEP_DEG = 30


@dataclass(frozen=True)
class GeoPoint:
    """A latitude/longitude pair, validated at construction."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lat) and -90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude out of range: {self.lat}")
        if not (math.isfinite(self.lon) and -180.0 <= self.lon <= 180.0):
            raise ValueError(f"longitude out of range: {self.lon}")


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in km.

    Symmetric, zero for identical points, never above pi * R.
    """
    phi_a = math.radians(a.lat)
    phi_b = math.radians(b.lat)
    d_phi = math.radians(b.lat - a.lat)
    d_lam = math.radians(b.lon - a.lon)
    h = (
        math.sin(d_phi / 2.0) ** 2
        + math.cos(phi_a) * math.cos(phi_b) * math.sin(d_lam / 2.0) ** 2
    )
    # Rounding can push h a hair past 1; clamp before asin.
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


@dataclass(frozen=True)
class DistanceHistogram:
    """Counts of places per distance band from a reference point.

    Band ``i`` covers ``[i * bucket_km, (i + 1) * bucket_km)``.  Only
    non-empty bands are stored.
    """

    reference: GeoPoint
    bucket_km: float
    counts: tuple[tuple[int, int], ...]  # (band index, count), index ascending

    @property
    def total(self) -> int:
        return sum(count for _, count in self.counts)

    def to_csv(self) -> str:
        lines = ["bucket_lower_km,count"]
        for index, count in self.counts:
            lower = index * self.bucket_km
            lines.append(f"{lower:g},{count}")
        return "\n".join(lines) + "\n"


def distance_histogram(
    points: Iterable[GeoPoint],
    reference: GeoPoint,
    bucket_km: float = DEFAULT_BUCKET_KM,
) -> DistanceHistogram:
    """Histogram of distances from ``reference``, one band per
    ``bucket_km``.  Every input point lands in exactly one band."""
    if not (math.isfinite(bucket_km) and bucket_km > 0):
        raise ValueError(f"bucket_km must be positive, got {bucket_km}")
    counts: dict[int, int] = {}
    for point in points:
        band = int(haversine_km(point, reference) // bucket_km)
        counts[band] = counts.get(band, 0) + 1
    return DistanceHistogram(
        reference, bucket_km, tuple(sorted(counts.items()))
    )


def _json_number(value: float) -> str:
    """``value`` as ``json.dumps`` writes it: a finite float as its
    ``float.__repr__``, any other number through ``json.dumps``."""
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def to_geojson(places: Iterable[Entry]) -> Iterator[str]:
    """Each place as the text of a GeoJSON Feature, in the order given:
    what ``json.dumps`` writes for the feature's dict with sorted keys,
    no spaces and UTF-8 kept, formatted here without building the dict.
    An unset similarity is written as 0.0.  A feature is formatted only
    when it is read.

    GeoJSON positions are [longitude, latitude] — the reverse of how
    this pipeline carries coordinates everywhere else.
    """
    for place in places:
        yield (
            f'{{"geometry":{{"coordinates":[{_json_number(place.lon)},'
            f'{_json_number(place.lat)}],"type":"Point"}},"properties":{{'
            f'"entry_id":{encode_basestring(place.id)},'
            f'"headword":{encode_basestring(place.headword)},'
            f'"qid":{encode_basestring(place.qid)},'
            f'"similarity":{_json_number(place.similarity or 0.0)}}},"type":"Feature"}}'
        )


def geojson_dumps(features: Iterable[str], handle: IO[str]) -> None:
    """Write the FeatureCollection of ``features``, as ``to_geojson``
    yields them, to ``handle`` one feature at a time.  Canonical: the
    text is ``json.dumps(document, sort_keys=True, separators=(",",
    ":"), ensure_ascii=False)`` of the whole document, then "\\n"."""
    write = handle.write
    write('{"features":[')
    separator = ""
    for feature in features:
        write(separator)
        write(feature)
        separator = ","
    write('],"type":"FeatureCollection"}\n')


def project_equirectangular(
    point: GeoPoint | Entry, width_px: int
) -> tuple[float, float]:
    """Map a point's lat/lon to pixel coordinates on a width x width/2
    canvas.

    (lat 90, lon -180) is the top-left corner (0, 0); x grows eastward,
    y grows southward.
    """
    x = (point.lon + 180.0) / 360.0 * width_px
    y = (90.0 - point.lat) / 180.0 * (width_px / 2.0)
    return x, y


def check_map_width(width_px: int) -> int:
    """``width_px`` as an int, if it is even and at least 2: the map is
    ``width_px`` by ``width_px / 2`` pixels.  Otherwise ValueError."""
    width = int(width_px)
    if width < 2 or width % 2:
        raise ValueError(f"map width must be even and >= 2 pixels, got {width_px}")
    return width


def escape_text(text: str) -> str:
    """``text`` as XML character data, the same string
    ``html.escape(text, quote=False)`` returns: importing ``html``
    would load its 2,231-entry entity table for three replacements."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg_map(places: Iterable[Entry], handle: IO[str],
                   width_px: int = DEFAULT_MAP_WIDTH_PX) -> None:
    """Write a scatter map of places to ``handle`` as an SVG document,
    one element per line, one place at a time.

    Equirectangular projection, one circle per place (hover text:
    headword and item id), over meridians and parallels 30 degrees
    apart.  Places are drawn in the order given.  Output is
    byte-stable: coordinates are formatted to fixed precision.  A
    width ``check_map_width`` refuses raises ValueError before any
    write.
    """
    width = check_map_width(width_px)
    height = width // 2
    write = handle.write
    write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>\n'
    )
    for lon in range(-180, 181, _GRID_STEP_DEG):
        x = (lon + 180.0) / 360.0 * width
        write(
            f'<line x1="{x:.2f}" y1="0" x2="{x:.2f}" y2="{height}" '
            f'stroke="#dddddd" stroke-width="1"/>\n'
        )
    for lat in range(-90, 91, _GRID_STEP_DEG):
        y = (90.0 - lat) / 180.0 * height
        write(
            f'<line x1="0" y1="{y:.2f}" x2="{width}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>\n'
        )
    for place in places:
        x, y = project_equirectangular(place, width)
        title = escape_text(f"{place.headword} ({place.qid})")
        write(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#c0392b" '
            f'fill-opacity="0.7"><title>{title}</title></circle>\n'
        )
    write("</svg>\n")
