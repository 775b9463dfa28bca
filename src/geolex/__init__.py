"""geolex: encyclopedia OCR text to geocoded gazetteer.

Pipeline stages: segment raw pages into entries, classify entries as
locations, link locations to Wikidata items, fetch their coordinates,
and render report artifacts.  See ``geolex.cli`` for the command-line
driver and the per-stage modules for the library surface.
"""

__version__ = "0.1.0"

from .classifier import EvalReport, LogisticModel, evaluate, train
from .corpus import Entry, RawPage, segment_pages
from .embedding import HashedTrigramEmbedder, RemoteEmbedder
from .errors import DatasetError, ProtocolError, ReplayCacheMiss, TransportError
from .geo import GeoPoint, distance_histogram, haversine_km
from .linker import LinkResult, link_batch, rank_candidates
from .wikidata import WikidataClient, make_transport

__all__ = [
    "__version__",
    "Entry", "RawPage", "segment_pages",
    "HashedTrigramEmbedder", "RemoteEmbedder",
    "EvalReport", "LogisticModel", "evaluate", "train",
    "WikidataClient", "make_transport",
    "LinkResult", "link_batch", "rank_candidates",
    "GeoPoint", "distance_histogram", "haversine_km",
    "DatasetError", "ProtocolError", "ReplayCacheMiss", "TransportError",
]
