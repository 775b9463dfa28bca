"""Every reader of JSON from outside the program, fed the same hostile
inputs.  Each input ends as the reader's declared error, with a
one-line message, or as an acceptance the README's *Input files*
table documents; through the CLI, each error ends as its stage's exit
code with one line on stderr.
"""

from __future__ import annotations

import errno
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import pytest

from conftest import make_workspace
from geolex import cli, corpus
from geolex.classifier import load_annotations, load_model
from geolex.config import ConfigError, load_config
from geolex.corpus import load_dataset
from geolex.embedding import CachedEmbedder, HashedTrigramEmbedder, RemoteEmbedder
from geolex.errors import DatasetError, ProtocolError
from geolex.wikidata import HttpRequest, ReplayTransport, WikidataClient

REQUEST = HttpRequest("GET", "https://x.test/api")


def put(path: Path, data: bytes | None) -> Path:
    """Write ``data`` to ``path``, or make ``path`` a directory when
    ``data`` is None."""
    if data is None:
        path.mkdir()
    else:
        path.write_bytes(data)
    return path


def answering(data: bytes) -> SimpleNamespace:
    """A transport that answers every request with ``data``."""
    return SimpleNamespace(send=lambda request: data)


def read_config(tmp_path, data):
    config = load_config(put(tmp_path / "config.json", data), env={})
    return config.rate_limit_s, config.cache_mode


def read_annotations(tmp_path, data):
    return load_annotations(put(tmp_path / "annotations.jsonl", data))


def read_dataset(tmp_path, data):
    return [(e.headword, e.similarity) for e in load_dataset(put(tmp_path / "d.jsonl", data))]


def read_model(tmp_path, data):
    return load_model(put(tmp_path / "model.json", data)).weights.tolist()


def read_embedding_cache(tmp_path, data):
    """The cache file as opening the cache leaves it."""
    path = put(tmp_path / "cache.jsonl", data)
    CachedEmbedder(HashedTrigramEmbedder(dim=2), path)
    return path.read_bytes()


def read_replay_file(tmp_path, data):
    transport = ReplayTransport(tmp_path)
    put(transport.path_for(REQUEST), data)
    return transport.send(REQUEST)


def read_api_body(tmp_path, data):
    return WikidataClient(answering(data)).search_candidates("Berlin")


def read_sparql_body(tmp_path, data):
    """The coordinates found, and the rows skipped."""
    client = WikidataClient(answering(data))
    points = client.fetch_coordinates(["Q64"])
    return {qid: (point.lat, point.lon) for qid, point in points.items()}, client.warnings


def read_remote_embedder_body(tmp_path, data):
    embedder = RemoteEmbedder("https://x.test/embed", dim=2, transport=answering(data))
    return [vector.tolist() for vector in embedder.embed_batch(["Aal"])]


@dataclass(frozen=True)
class Reader:
    """A reader, and a good input to it: ``template`` with ``@N`` for
    ``number``, a JSON value where the reader takes one, and ``@S`` for
    ``string``, the inside of a JSON string."""

    read: Callable
    error: type[Exception]
    template: bytes
    number: bytes
    string: bytes
    good: object  # what ``read`` returns for the good input
    lines: bool = False  # a JSON-lines file
    on_disk: bool = True

    def document(self, number: bytes | None = None, string: bytes | None = None) -> bytes:
        return (self.template.replace(b"@N", number or self.number)
                .replace(b"@S", string or self.string))


READERS = {
    "config": Reader(
        read_config, ConfigError, b'{"rate_limit_s": @N, "cache_mode": "@S"}',
        b"0.5", b"live", (0.5, "live"),
    ),
    "annotations": Reader(
        read_annotations, DatasetError, b'{"entry_id": "@S", "is_location": @N}\n',
        b"true", b"1:1:1", [("1:1:1", True)], lines=True,
    ),
    "dataset": Reader(
        read_dataset, DatasetError,
        b'{"id": "1:1:1", "volume": 1, "page": 1, "headword": "@S", '
        b'"definition": "Aal.", "raw_text": "Aal.", "similarity": @N}\n',
        b"0.5", b"Aal", [("Aal", 0.5)], lines=True,
    ),
    "model": Reader(
        read_model, DatasetError,
        b'{"kind": "@S", "dim": 2, "weights": [@N, 0.25], "bias": 0.0, "threshold": 0.5}',
        b"0.5", b"logistic-location-classifier", [0.5, 0.25],
    ),
    "embedding cache": Reader(
        read_embedding_cache, ProtocolError, b'{"key": "@S", "vector": [@N, 0.0]}\n',
        b"1.0", b"k", b'{"key": "k", "vector": [1.0, 0.0]}\n', lines=True,
    ),
    "replay file": Reader(
        read_replay_file, ProtocolError, b'{"body": "@S", "encoding": @N}',
        b'"utf-8"', b"{}", b"{}",
    ),
    "api body": Reader(
        read_api_body, ProtocolError, b'{"search": [{"id": "@S", "pageid": @N}]}',
        b"64", b"Q64", [("Q64", None)], on_disk=False,
    ),
    # ``@N`` is a member the client does not read.
    "sparql body": Reader(
        read_sparql_body, ProtocolError,
        b'{"results": {"bindings": [{"item": {"value": "http://www.wikidata.org/entity/@S"}, '
        b'"coords": {"value": "Point(13.4 52.5)"}}]}, "took": @N}',
        b"12", b"Q64", ({"Q64": (52.5, 13.4)}, 0), on_disk=False,
    ),
    "remote-embedder body": Reader(
        read_remote_embedder_body, ProtocolError, b'{"model": "@S", "vectors": [[@N, 0]]}',
        b"1", b"m", [[1.0, 0.0]], on_disk=False,
    ),
}


def torn(reader: Reader) -> bytes:
    """A document cut short: for a JSON-lines file, a whole line and
    then half of the next, with no line break."""
    good = reader.document()
    return (good if reader.lines else b"") + good[: len(good) // 2]


INPUTS: dict[str, Callable[[Reader], bytes | None]] = {
    "good": lambda r: r.document(),
    "byte-ff": lambda r: r.document(string=b"\xff"),
    "deep": lambda r: r.document(number=b"[" * 100_000),
    "digits": lambda r: r.document(number=b"1" * 5000),
    "nan": lambda r: r.document(number=b"NaN"),
    "infinity": lambda r: r.document(number=b"-Infinity"),
    "surrogate-escape": lambda r: r.document(string=b"\\ud800"),
    "empty": lambda r: b"",
    "torn": torn,
    "directory": lambda r: None,
    "utf-16": lambda r: r.document().decode("utf-8").encode("utf-16"),
    "utf-16-le": lambda r: r.document().decode("utf-8").encode("utf-16-le"),
    "utf-32": lambda r: r.document().decode("utf-8").encode("utf-32"),
    "bom": lambda r: b"\xef\xbb\xbf" + r.document(),
    # A surrogate encoded as if it were a code point (CESU-8).
    "cesu": lambda r: r.document(string=b"\xed\xa0\x80"),
}

# (reader, input) -> what the reader returns; every other case raises
# the reader's error.
ACCEPTED = {
    **{(name, "good"): reader.good for name, reader in READERS.items()},
    ("annotations", "empty"): [],
    ("dataset", "empty"): [],
    ("embedding cache", "empty"): b"",
    ("embedding cache", "torn"): READERS["embedding cache"].document(),  # the tail dropped
    # A string only matched against others: no entry id or text key is
    # a lone surrogate, so the annotation fails train and the cache
    # line is never a hit.
    ("annotations", "surrogate-escape"): [("\ud800", True)],
    ("embedding cache", "surrogate-escape"): b'{"key": "\\ud800", "vector": [1.0, 0.0]}\n',
    # A value the reader does not use.
    ("model", "surrogate-escape"): [0.5, 0.25],
    ("api body", "nan"): READERS["api body"].good,
    ("api body", "infinity"): READERS["api body"].good,
    ("sparql body", "nan"): READERS["sparql body"].good,
    ("sparql body", "infinity"): READERS["sparql body"].good,
    # A row whose item is no item id is skipped and counted.
    ("sparql body", "surrogate-escape"): ({}, 1),
    ("remote-embedder body", "surrogate-escape"): [[1.0, 0.0]],
}

# Errors that name the setting, not the file: config's value checks
# run once the environment and the flags are applied too.
NAMELESS = {("config", "nan"), ("config", "infinity"), ("config", "surrogate-escape")}

CASES = [
    pytest.param(reader, source, id=f"{reader}-{source}")
    for reader in READERS
    for source in INPUTS
    if READERS[reader].on_disk or source != "directory"
]


@pytest.mark.parametrize("name, source", CASES)
def test_hostile_input_ends_as_the_declared_error_or_an_acceptance(tmp_path, name, source):
    reader = READERS[name]
    data = INPUTS[source](reader)
    if (name, source) in ACCEPTED:
        assert reader.read(tmp_path, data) == ACCEPTED[name, source]
        return
    with pytest.raises(reader.error) as caught:
        reader.read(tmp_path, data)
    message = str(caught.value)
    assert "\n" not in message
    if reader.on_disk and (name, source) not in NAMELESS:
        assert str(tmp_path) in message  # names the file


@pytest.mark.parametrize("name", [name for name, reader in READERS.items() if reader.on_disk])
def test_a_file_that_may_not_be_read_ends_as_the_declared_error(tmp_path, monkeypatch, name):
    # ``chmod`` does not stop a process that runs as root, so the refusal
    # comes from the one ``open`` every on-disk reader goes through.
    def refused(path, *args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied", str(path))

    reader = READERS[name]
    monkeypatch.setattr(corpus, "open", refused, raising=False)
    with pytest.raises(reader.error) as caught:
        reader.read(tmp_path, reader.document())
    message = str(caught.value)
    assert "\n" not in message
    assert str(tmp_path) in message
    assert "Permission denied" in message


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A workspace after ingest and train."""
    workspace = make_workspace(tmp_path_factory.mktemp("trained"))
    assert workspace.run("ingest") == 0
    assert workspace.run("train") == 0
    return workspace


def cli_args(name: str, path: Path, trained, tmp_path: Path) -> list[str]:
    """A command that reads ``path`` as the ``name`` input."""
    config = str(trained.config_path)
    model_out = str(tmp_path / "out-model.json")
    if name == "config":
        return ["run", "--config", str(path)]
    if name == "annotations":
        return ["train", "--config", config, "--annotations", str(path), "--model-out", model_out]
    if name == "dataset":
        return ["classify", "--config", config, "--dataset", str(path)]
    if name == "model":
        dataset = shutil.copy(trained.dataset, tmp_path / "out-dataset.jsonl")
        return ["classify", "--config", config, "--dataset", str(dataset), "--model", str(path)]
    settings = json.loads(trained.config_path.read_text(encoding="utf-8"))
    settings["embed_cache"] = str(path)
    config_path = tmp_path / "embed-config.json"
    config_path.write_text(json.dumps(settings), encoding="utf-8")
    return ["train", "--config", str(config_path), "--model-out", model_out]


STAGES = {"config": "config", "annotations": "train", "dataset": "classify",
          "model": "classify", "embedding cache": "train"}


@pytest.mark.parametrize("name, source", [
    pytest.param(name, source, id=f"{name}-{source}")
    for name in STAGES
    for source in INPUTS
    if (name, source) not in ACCEPTED
])
def test_hostile_input_file_exits_with_its_stage_code(
    trained, tmp_path, capsys, no_network, name, source
):
    path = put(tmp_path / "input", INPUTS[source](READERS[name]))
    capsys.readouterr()
    assert cli.main(cli_args(name, path, trained, tmp_path)) == cli.STAGE_EXIT_CODES[STAGES[name]]
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"{STAGES[name]}: ")
    assert (name, source) in NAMELESS or str(path) in lines[0]
