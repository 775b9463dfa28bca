"""Coordinate math and report artifacts.

Distances use the haversine formula on a sphere of radius 6371 km.
Artifacts: a GeoJSON FeatureCollection of linked places, a CSV
histogram of distances from a reference point, and an SVG scatter map
on an equirectangular projection.  All three are deterministic: same
input, same bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from html import escape
from typing import Iterable, Sequence

EARTH_RADIUS_KM = 6371.0
DEFAULT_BUCKET_KM = 500.0
DEFAULT_MAP_WIDTH_PX = 1600
_GRATICULE_STEP_DEG = 30


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


@dataclass(frozen=True)
class LinkedPlace:
    """A geocoded entry, ready for the report artifacts."""

    entry_id: str
    headword: str
    qid: str
    point: GeoPoint
    similarity: float = 0.0


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


def to_geojson(places: Sequence[LinkedPlace]) -> dict:
    """GeoJSON FeatureCollection of places, ordered by entry id.

    GeoJSON positions are [longitude, latitude] — the reverse of how
    this pipeline carries coordinates everywhere else.
    """
    features = []
    for place in sorted(places, key=lambda p: p.entry_id):
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "Point",
                    "coordinates": [place.point.lon, place.point.lat],
                },
                "properties": {
                    "entry_id": place.entry_id,
                    "headword": place.headword,
                    "qid": place.qid,
                    "similarity": place.similarity,
                },
            }
        )
    return {"type": "FeatureCollection", "features": features}


def geojson_dumps(document: dict) -> str:
    """Canonical serialization: sorted keys, no spaces, UTF-8 kept."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"


def project_equirectangular(
    point: GeoPoint, width_px: int
) -> tuple[float, float]:
    """Map lat/lon to pixel coordinates on a width x width/2 canvas.

    (lat 90, lon -180) is the top-left corner (0, 0); x grows eastward,
    y grows southward.
    """
    x = (point.lon + 180.0) / 360.0 * width_px
    y = (90.0 - point.lat) / 180.0 * (width_px / 2.0)
    return x, y


def render_svg_map(
    places: Sequence[LinkedPlace],
    width_px: int = DEFAULT_MAP_WIDTH_PX,
    graticule: bool = True,
) -> str:
    """Scatter map of places as an SVG document.

    Equirectangular projection, one circle per place (hover text:
    headword and item id), optional 30-degree graticule.  Output is
    byte-stable: places are drawn in entry-id order and coordinates are
    formatted to fixed precision.
    """
    width = int(width_px)
    if width < 2 or width % 2:
        raise ValueError(f"width_px must be even and >= 2, got {width_px}")
    height = width // 2
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    if graticule:
        for lon in range(-180, 181, _GRATICULE_STEP_DEG):
            x = (lon + 180.0) / 360.0 * width
            lines.append(
                f'<line x1="{x:.2f}" y1="0" x2="{x:.2f}" y2="{height}" '
                f'stroke="#dddddd" stroke-width="1"/>'
            )
        for lat in range(-90, 91, _GRATICULE_STEP_DEG):
            y = (90.0 - lat) / 180.0 * height
            lines.append(
                f'<line x1="0" y1="{y:.2f}" x2="{width}" y2="{y:.2f}" '
                f'stroke="#dddddd" stroke-width="1"/>'
            )
    for place in sorted(places, key=lambda p: p.entry_id):
        x, y = project_equirectangular(place.point, width)
        title = escape(f"{place.headword} ({place.qid})", quote=False)
        lines.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#c0392b" '
            f'fill-opacity="0.7"><title>{title}</title></circle>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
