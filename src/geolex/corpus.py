"""Corpus ingestion: OCR page dumps in, line-delimited entry dataset out.

Raw input is one UTF-8 text file per scanned page, laid out on disk as
``<raw_dir>/<volume>/<page>.txt``.  Segmentation walks each volume's
pages in order and starts a new entry at every line whose first
character is an uppercase letter, with a comma or period within the
first 40 characters of the line.  Lines that do not look like a
headword continue the current entry, across page breaks too.  Each
page is scanned for entry starts with one regex pass, and each entry's
text is sliced straight out of its pages, never split into lines.
Line-break hyphenation from the typesetting is undone while joining
(``Rhen-`` + ``provinsen`` becomes ``Rhenprovinsen``).

Each entry also stores a short definition: the first 200 characters of
the entry text, cut back to the last sentence boundary inside that
window.  Downstream stages (classification, linking) read only the
definition, never the full text, so ingest and every dataset load keep
each text in a spill file until the dataset is written (``SpilledText``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import weakref
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

from .errors import DatasetError, ProtocolError


def _logger():
    """The ``geolex.corpus`` logger.  ``logging`` is imported at the
    first message, not with the module: a corpus that warrants none
    never loads it."""
    import logging

    return logging.getLogger(__name__)


# Definition budget: keep this many characters, then cut back to the
# last period inside the kept prefix (if any).
MAX_DEFINITION_CHARS = 200

# A headword line must show its comma/period this close to the start.
ENTRY_START_WINDOW = 40

# Punctuation stripped from the end of a headword token.
_HEADWORD_TRAILING = ",.:;"
# The first whitespace-separated token of a text.
_FIRST_TOKEN = re.compile(r"\s*(\S+)")

# Every character but " " that ``str.isspace()`` (and so ``str.split()``
# and the regex ``\s``) treats as whitespace.  A test checks it against
# all of Unicode.
_WHITESPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u1680"
    "\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
    "\u2028\u2029\u202f\u205f\u3000"
)
_SPACE_RUN = re.compile("  +")
# Every line break ``str.splitlines`` knows but "\n".  A page holding
# one has each turned into "\n" before it is scanned ("\r\n" becomes a
# blank line, which changes nothing).
_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LATIN1_UPPER = "".join(c for c in map(chr, range(256)) if c.isalpha() and c.isupper())
_LATIN1_LOWER = "".join(c for c in map(chr, range(256)) if c.islower())
# A candidate entry start: a "\n", the line's leading whitespace, then
# an uppercase Latin-1 letter, or any other character above U+00FF
# (which ``_starts`` checks with ``isalpha`` and ``isupper``), and a
# comma or period within the line's first 40 characters.
_ENTRY_START = re.compile(
    rf"\n[^\S\n]*([{re.escape(_LATIN1_UPPER)}]|[^\x00-\xff\s])"
    rf"[^\n,.]{{0,{ENTRY_START_WINDOW - 2}}}[,.]"
)
# A line-break hyphen: "-" ending a line, the line break, and the
# whitespace and blank lines before the next character.  Before a
# Latin-1 lowercase letter it is removed outright; before a character
# above U+00FF, ``_fuse_wide_hyphen_break`` checks ``islower()``.
_HYPHEN_BREAK = r"-[^\S\n]*\n\s*"
_HYPHEN_BEFORE_LATIN1_LOWER = re.compile(rf"{_HYPHEN_BREAK}(?=[{re.escape(_LATIN1_LOWER)}])")
_HYPHEN_BEFORE_WIDE = re.compile(rf"{_HYPHEN_BREAK}(?=[^\x00-\xff\s])")


@dataclass(frozen=True)
class RawPage:
    """One scanned page: volume number, page number, OCR text."""

    volume: int
    page_no: int
    text: str

    def __post_init__(self) -> None:
        if self.volume < 1:
            raise ValueError(f"volume must be >= 1, got {self.volume}")
        if self.page_no < 1:
            raise ValueError(f"page_no must be >= 1, got {self.page_no}")
        if not self.text or self.text.isspace():
            raise ValueError(f"page {self.volume}:{self.page_no} has no text")


@dataclass(slots=True, repr=False)
class SpilledText:
    """An entry's ``raw_text``: the UTF-8 of its JSON string, ``size`` bytes
    at ``offset`` in the spill file ``source`` (see ``spill_text``).
    ``len()`` counts its characters; two are equal when their bytes are."""

    source: IO[bytes]
    offset: int
    size: int
    chars: int
    plain_prefix: str | None

    def __len__(self) -> int:
        return self.chars

    def __eq__(self, other: object) -> bool:
        return type(other) is SpilledText and self.json_bytes() == other.json_bytes()

    def json_bytes(self) -> bytes:
        """The text's JSON string, as UTF-8, read back from the spill."""
        self.source.seek(self.offset)
        return self.source.read(self.size)

    def text(self) -> str:
        """The text, decoded from the spill."""
        return parse_json(self.json_bytes(), DatasetError, "spilled text")


def spill_text(spill: IO[bytes], text: str, definition: str,
               data: bytes | memoryview | None = None) -> SpilledText:
    """Append ``text``'s JSON string (``_json_string``) to ``spill`` as
    UTF-8: ``data`` if given, which must be those bytes, escape-free.
    ``plain_prefix`` is ``definition`` if it starts an escape-free text.
    Read no text from a spill before its last append."""
    plain = data is not None
    if not plain:
        raw_json = _json_string(text)
        plain, data = len(raw_json) == len(text) + 2, raw_json.encode("utf-8")
    offset = spill.tell()
    spill.write(data)
    return SpilledText(spill, offset, len(data), len(text),
                       definition if plain and text.startswith(definition) else None)


@dataclass(slots=True)
class Entry:
    """One encyclopedia entry, with optional enrichment fields.

    Ingest sets the six required fields; ``raw_text`` is a
    ``SpilledText``, as ingest and a load both make it.  ``is_location``,
    ``qid``, ``similarity``, ``lat`` and ``lon`` start unset and are
    filled in by the classify, link and coords stages.
    """

    id: str
    volume: int
    page: int
    headword: str
    definition: str
    raw_text: SpilledText
    is_location: bool | None = None
    qid: str | None = None
    similarity: float | None = None
    lat: float | None = None
    lon: float | None = None


def truncate_definition(text: str) -> str:
    """Cut ``text`` to the definition budget.

    Keeps the first 200 characters, then drops everything after the
    last period inside that prefix.  A prefix with no period at all is
    kept whole.  Applying the cut twice changes nothing.
    """
    prefix = text[:MAX_DEFINITION_CHARS]
    last_period = prefix.rfind(".")
    if last_period == -1:
        return prefix
    return prefix[: last_period + 1]


def extract_headword(raw_text: str) -> str:
    """First token of the entry, minus trailing punctuation.

    Bracketed pronunciation hints (``Aachen [ak-]. ...``) never land in
    the headword: the bracket either starts a later token or, when the
    OCR glued it on, gets cut off the first one.
    """
    first = _FIRST_TOKEN.match(raw_text)
    if first is None:
        raise ValueError("entry text is blank; no headword to extract")
    token = first.group(1)
    bracket = token.find("[")
    if bracket != -1:
        token = token[:bracket]
    token = token.rstrip(_HEADWORD_TRAILING)
    if not token:
        raise ValueError(f"no usable headword at {raw_text[:40]!r}")
    return token


def _fuse_wide_hyphen_break(match: re.Match[str]) -> str:
    return "" if match.string[match.end()].islower() else match.group()


def _entry_text(pieces: list[str]) -> str:
    """An entry's text from its slices of consecutive pages.

    The slices are joined with ``"\\n"``.  A line-break hyphen before a
    lowercase character is removed, fusing the word; a hyphen before
    anything else stays.  Then every kind of whitespace that occurs is
    replaced by spaces, runs of spaces fold into one and the ends are
    stripped.  The text is never split into lines or words.
    """
    text = _HYPHEN_BEFORE_LATIN1_LOWER.sub("", "\n".join(pieces))
    text = _HYPHEN_BEFORE_WIDE.sub(_fuse_wide_hyphen_break, text)
    for space in _WHITESPACE:
        if space in text:
            text = text.replace(space, " ")
    if "  " in text:
        text = _SPACE_RUN.sub(" ", text)
    return text.strip()


def _starts(text: str) -> list[int]:
    """Offsets of the first character of each entry-start line of
    ``text``, whose only line break is ``"\\n"`` and which starts with
    one."""
    return [
        match.start(1) for match in _ENTRY_START.finditer(text)
        if (first := match.group(1)) <= "\xff" or (first.isalpha() and first.isupper())
    ]


def segment_pages(pages: Iterable[RawPage], *, spill: IO[bytes] | None = None) -> list[Entry]:
    """Split a stream of pages into entries.

    Pages must arrive sorted by (volume, page_no) with no duplicates.
    Volumes are independent: an entry never continues across a volume
    boundary.  Text before the first headword line of a volume (front
    matter, running heads) has no entry to belong to and is dropped.

    Entry ids are ``volume:page:ordinal`` where page is the page the
    entry starts on and ordinal counts entries starting on that page,
    from 1.

    Each page is scanned once for entry starts.  An entry's text is the
    page slice from its first character to the next start, plus the
    text before the first start of each page it continues onto; the
    slices are joined and normalised by ``_entry_text``.

    Each entry's headword and definition come from its text, then
    ``spill_text`` appends the text to ``spill`` (a binary file, or a new
    ``io.BytesIO``), which must stay open until the entries are saved.
    """
    spill = spill or io.BytesIO()
    entries: list[Entry] = []
    last_key: tuple[int, int] | None = None
    current_volume: int | None = None
    current_pieces: list[str] = []
    current_start: tuple[int, int] | None = None  # (page_no, ordinal)

    def flush() -> None:
        if current_start is None:
            return
        page_no, ordinal = current_start
        raw_text = _entry_text(current_pieces)
        definition = truncate_definition(raw_text)
        entries.append(Entry(
            f"{current_volume}:{page_no}:{ordinal}", current_volume, page_no,
            extract_headword(raw_text), definition, spill_text(spill, raw_text, definition),
        ))

    for page in pages:
        key = (page.volume, page.page_no)
        if last_key is not None and key <= last_key:
            raise ValueError(
                f"pages out of order: {key} after {last_key}; "
                "sort by (volume, page) and drop duplicates"
            )
        last_key = key
        if page.volume != current_volume:
            flush()
            current_volume = page.volume
            current_pieces = []
            current_start = None
        text = page.text
        for line_break in _LINE_BREAKS:
            if line_break in text:
                text = text.replace(line_break, "\n")
        text = "\n" + text
        starts = _starts(text)
        before = text[: starts[0]] if starts else text
        if current_start is not None:
            current_pieces.append(before)
        elif not before.isspace():
            _logger().debug(
                "dropping pre-entry text on page %s:%s: %r",
                page.volume, page.page_no, before.strip()[:60],
            )
        for ordinal, (begin, end) in enumerate(zip(starts, starts[1:] + [None]), start=1):
            flush()
            current_start = (page.page_no, ordinal)
            current_pieces = [text[begin:end]]
    flush()
    return entries


def _number(name: str) -> int | None:
    """A volume or page number: ASCII digits of value >= 1, else None."""
    if name.isascii() and name.isdigit() and int(name) >= 1:
        return int(name)
    return None


def read_raw_pages(raw_dir: str | os.PathLike[str]) -> Iterator[RawPage]:
    """Stream ``<raw_dir>/<volume>/<page>.txt`` dumps in (volume, page) order.

    The page files are listed and sorted at the call, so a missing
    directory, or two files for one page (``1.txt`` and ``01.txt``),
    raises here; each page is read only when the iterator reaches it.
    A volume directory or page file must be named by ASCII digits of
    value >= 1; any other name is skipped with a warning.  Pages that
    OCR'd to nothing are skipped silently.
    """
    root = Path(raw_dir)
    if not root.is_dir():
        raise FileNotFoundError(f"raw corpus directory not found: {root}")
    located: list[tuple[int, int, Path]] = []
    for vol_dir in sorted(root.iterdir()):
        if not vol_dir.is_dir():
            continue
        volume = _number(vol_dir.name)
        if volume is None:
            _logger().warning("skipping non-volume directory %s", vol_dir)
            continue
        for page_file in sorted(vol_dir.glob("*.txt")):
            page_no = _number(page_file.stem)
            if page_no is None:
                _logger().warning("skipping non-page file %s", page_file)
                continue
            located.append((volume, page_no, page_file))
    located.sort()
    for before, after in zip(located, located[1:]):
        if before[:2] == after[:2]:
            raise ValueError(
                f"two files for page {after[0]}:{after[1]}: {before[2]} and {after[2]}"
            )
    return _read_pages(located)


def _read_pages(located: list[tuple[int, int, Path]]) -> Iterator[RawPage]:
    for volume, page_no, path in located:
        text = path.read_text(encoding="utf-8")
        if text and not text.isspace():
            yield RawPage(volume, page_no, text)


# ── Dataset serialization (JSON lines, fixed field order) ───────────────

# What a JSON string must escape (RFC 8259 §7), and all that
# ``encode_basestring`` escapes: '"', "\\" and U+0000–U+001F.
_JSON_ESCAPED = '"\\' + "".join(map(chr, range(0x20)))


def _json_string(text: str) -> str:
    """``text`` as ``encode_basestring`` writes it.  A text holding
    nothing to escape is only quoted: its 34 substring tests take about
    a tenth of the time of the encoder's scan of a long text."""
    for char in _JSON_ESCAPED:
        if char in text:
            return encode_basestring(text)
    return f'"{text}"'


def _int_number(value: int) -> str:
    float(value)  # OverflowError past the float range
    return int.__repr__(value)


def _float_number(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is not finite")
    return float.__repr__(value)


# Each field of a dataset line, in the order a line holds them, with
# the JSON writer of each exact type its value may have: a ``bool`` is
# no number, and a number must be finite as a float.  The writers write
# what ``JSONEncoder(ensure_ascii=False)`` writes for the value.  Save
# writes each value through its writer; load checks each value's type
# against the same table, and a number through its writer.  The fields
# after ``raw_text`` are optional: unset (None, null) until the stage
# that fills them has run, and left out of the line until then.  An
# entry's ``raw_text`` is the ``SpilledText`` of the record's string.
_STRING = {str: encode_basestring}
_INTEGER = {int: int.__repr__}
_NUMBER = {int: _int_number, float: _float_number}
_BOOLEAN = {bool: {True: "true", False: "false"}.__getitem__}
_FIELDS = {
    "id": _STRING, "volume": _INTEGER, "page": _INTEGER, "headword": _STRING,
    "definition": _STRING, "raw_text": _STRING, "is_location": _BOOLEAN,
    "qid": _STRING, "similarity": _NUMBER, "lat": _NUMBER, "lon": _NUMBER,
}
_REQUIRED_FIELDS = tuple(_FIELDS)[:6]
_OPTIONAL_FIELDS = tuple(_FIELDS)[6:]
_REQUIRED_NAMES = frozenset(_REQUIRED_FIELDS)


def _field_problem(name: str, value: object, strings: bool) -> str | None:
    """What is wrong with ``value`` as field ``name``, or None.  Only
    when ``strings`` is set is a string checked for a lone surrogate,
    which decodes from a JSON escape but cannot be sent in a request
    or written back as UTF-8."""
    if value is None and name in _OPTIONAL_FIELDS:
        return None
    writers = _FIELDS[name]
    try:
        writer = writers[type(value)]
        if writers is _NUMBER:
            writer(value)
    except (KeyError, ValueError, OverflowError):
        expected = " or ".join(kind.__name__ for kind in writers)
        return f"field {name!r} must be {expected}, got {value!r:.40}"
    if strings and type(value) is str:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as err:
            return (f"field {name!r} is not UTF-8 text: "
                    f"{value[err.start]!r} at index {err.start}")
    return None


def _checked_entry(record: dict, where: str, strings: bool, spill: IO[bytes],
                   data: bytes | memoryview | None) -> Entry:
    """``entry_from_record``; ``strings`` turns on the lone-surrogate check."""
    if not isinstance(record, dict):
        raise DatasetError(f"{where}: record is not an object")
    if not record.keys() <= _FIELDS.keys():
        raise DatasetError(f"{where}: unknown fields {sorted(record.keys() - _FIELDS.keys())}")
    if not record.keys() >= _REQUIRED_NAMES:
        missing = [n for n in _REQUIRED_FIELDS if n not in record]
        raise DatasetError(f"{where}: missing fields {missing}")
    for name, value in record.items():
        writers = _FIELDS[name]
        kind = type(value)
        if (
            kind not in writers
            or (strings and kind is str)
            or (writers is _NUMBER and not (kind is float and math.isfinite(value)))
        ):
            problem = _field_problem(name, value, strings)
            if problem is not None:
                raise DatasetError(f"{where}: {problem}")
    entry = Entry(**record)
    entry.raw_text = spill_text(spill, entry.raw_text, entry.definition, data)
    return entry


def entry_from_record(record: dict, where: str = "dataset",
                      spill: IO[bytes] | None = None) -> Entry:
    """The entry a decoded dataset record holds.

    The record must be an object with every required field and no
    unknown one.  In record order, each value must have one of its
    field's exact types in ``_FIELDS`` (a number also finite as a
    float), and each string must hold no lone surrogate.  Anything
    else raises DatasetError, its message starting with ``where``.
    ``spill_text`` appends the text to ``spill``, or a new ``io.BytesIO``."""
    return _checked_entry(record, where, True, spill or io.BytesIO(), None)


@contextlib.contextmanager
def _input_file(path: str | os.PathLike[str], error_type: type[Exception],
                mode: str = "rb") -> Iterator[IO[bytes]]:
    """``path`` open for reading bytes, or in another binary ``mode``.
    A missing file raises FileNotFoundError as it is; any other OSError,
    on opening or reading, raises ``error_type`` naming the file."""
    try:
        with open(path, mode) as handle:
            yield handle
    except FileNotFoundError:
        raise
    except OSError as err:  # a directory, say
        raise error_type(f"{path}: cannot read: {err.strerror}") from err


def parse_json(data: bytes, error_type: type[Exception], where: str) -> object:
    """The JSON document in ``data``, read as strict UTF-8 as RFC 8259
    asks (no BOM, UTF-16, UTF-32 or encoded surrogate).  Bytes that are
    not UTF-8 or not JSON, an integer past 4,300 digits or nesting too
    deep raise ``error_type(f"{where}: {reason}")``.  ``NaN`` and
    ``Infinity`` decode to floats; each reader checks its numbers."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as err:
        raise error_type(f"{where}: {err}") from err


def read_json(path: str | os.PathLike[str], error_type: type[Exception], where: str) -> object:
    """``parse_json`` of the whole file at ``path``, read as
    ``_input_file`` reads it."""
    with _input_file(path, error_type) as handle:
        data = handle.read()
    return parse_json(data, error_type, where)


def iter_jsonl(
    path: str | os.PathLike[str], error_type: type[Exception]
) -> Iterator[tuple[str, bytes, object]]:
    """Yield ``("path:line", line bytes, record)`` for each line of a
    JSON-lines file that holds more than ASCII whitespace.  A line ends
    at "\\n", "\\r\\n" or "\\r" and is read by ``parse_json``, which
    raises ``error_type`` naming the file and the line.  ``_input_file``
    opens the file."""
    name = str(path)  # formatted once: a Path formats slower than a str
    with _input_file(path, error_type) as handle:
        lineno = 0
        for raw in handle:
            # A lone "\r" ends a line too, as in text mode.
            for line in raw.splitlines() if b"\r" in raw else (raw,):
                lineno += 1
                if stripped := line.strip():
                    where = f"{name}:{lineno}"
                    yield where, line, parse_json(stripped, error_type, f"{where}: invalid JSON")


def iter_dataset(path: str | os.PathLike[str], spill: IO[bytes] | None = None) -> Iterator[Entry]:
    """Stream entries from a JSON-lines dataset file.

    Malformed lines and duplicate ids raise DatasetError with the file
    and line number.  Each record is checked as ``entry_from_record``
    checks it, but only a line holding a ``\\u`` escape has its strings
    checked for a lone surrogate: strict UTF-8 lets none through
    otherwise.  Each text goes to ``spill`` as ``entry_from_record``
    spills it.  Streaming: memory use is one entry, not one file.
    """
    spill = spill or io.BytesIO()
    seen: set[str] = set()
    for where, line, record in iter_jsonl(path, DatasetError):
        data = None
        # Most lines hold no backslash (a memchr-speed search): every '"' is
        # a quote and the text holds nothing to escape.  Its bytes are sliced
        # where save writes it, if no "raw_text" follows (JSON keeps the last).
        if b"\\" not in line and (start := line.find(b'"raw_text": "') + 12) > 11:
            end = line.index(b'"', start + 1) + 1
            if line.find(b'"raw_text"', end) == -1:
                data = memoryview(line)[start:end]
        entry = _checked_entry(record, where, data is None and b"\\u" in line, spill, data)
        if entry.id in seen:
            raise DatasetError(f"{where}: duplicate entry id {entry.id!r}")
        seen.add(entry.id)
        yield entry


def load_dataset(path: str | os.PathLike[str], spill: IO[bytes] | None = None) -> list[Entry]:
    return list(iter_dataset(path, spill))


@contextlib.contextmanager
def failing_as(message: str) -> Iterator[None]:
    """Re-raise an OSError of the block as a plain OSError reading
    ``message: reason``, for a file the user never named (a temporary one)."""
    try:
        yield
    except OSError as err:
        raise OSError(f"{message}: {err.strerror or err}") from err


@contextlib.contextmanager
def atomic_writer(path: str | os.PathLike[str], binary: bool = False) -> Iterator[IO]:
    """Open a UTF-8 text handle, or with ``binary`` a bytes handle,
    whose content replaces ``path`` whole.

    Writes go to a temporary ``*.tmp`` file in the same directory,
    which replaces the target only when the ``with`` block completes.
    On any error the temporary file is removed and the target is left
    as it was; an OSError creating or replacing it names ``path``.  The
    file is created with mode 0666 less the umask.
    """
    while True:
        tmp_name = f"{path}.{os.urandom(6).hex()}.tmp"
        with failing_as(f"cannot write {path}"), contextlib.suppress(FileExistsError):
            fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
    try:
        with (os.fdopen(fd, "wb") if binary else os.fdopen(fd, "w", encoding="utf-8")) as handle:
            yield handle
        with failing_as(f"cannot write {path}"):
            os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


class AppendFile:
    """A file of records after a header line, written only at its end,
    under the rules README *On-disk caches* states; both on-disk caches
    keep their records in one.  As in Bitcask (Sheehy and Smith, Basho
    2010), the owner keeps the index: ``load(handle)`` reads the records
    after the header and returns where the whole ones end, and
    ``on_new()`` runs when the file is missing or empty.  The file stays
    open on ``fd`` until ``close()`` or collection; ``end`` is where the
    next append lands.
    """

    def __init__(self, path: str | os.PathLike[str], header: bytes, writable: bool,
                 load: Callable[[IO[bytes]], int], on_new: Callable[[], None] = lambda: None):
        self.path, self.fd = Path(path), None
        if not self.path.exists() or not self.path.stat().st_size:
            on_new()
            if not writable:
                return
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with atomic_writer(self.path, binary=True) as handle:
                handle.write(header)
        with _input_file(self.path, ProtocolError, "a+b" if writable else "rb") as handle:
            handle.seek(0)
            if handle.read(len(header)) != header:
                raise ProtocolError(f"{self.path}: does not start with {header!r}")
            self.end = load(handle)
            if writable and os.fstat(handle.fileno()).st_size > self.end:
                handle.truncate(self.end)
            self.fd = os.dup(handle.fileno())
        self._release = weakref.finalize(self, os.close, self.fd)

    def close(self) -> None:
        """Close the file; one never closed closes when collected."""
        if self.fd is not None:
            self._release()

    def append(self, data: bytes) -> int:
        """Write ``data`` at the end and return its offset.  A write that
        fails is cut off, so the next append starts on a record boundary.
        The owner holds its own lock around the call."""
        offset, view = self.end, memoryview(data)
        try:
            while view:
                view = view[os.write(self.fd, view):]
        except BaseException:
            os.ftruncate(self.fd, offset)
            raise
        self.end = offset + len(data)
        return offset


def save_dataset(entries: Iterable[Entry], path: str | os.PathLike[str]) -> int:
    """Write entries as JSON lines, atomically (see ``atomic_writer``).

    Each line holds the entry's fields in field order, leaving out
    unset optional ones, byte for byte as ``json.dumps(record,
    ensure_ascii=False)`` writes it, in UTF-8: each value goes through
    its field's writer in ``_FIELDS``, chosen by its exact type.
    ``raw_text`` is written as the bytes spilled for it, and a
    definition that is its ``plain_prefix`` is only quoted.

    A value its field does not take (a wrong type, a float that is not
    finite, a number past the float range) raises DatasetError naming
    the entry and the field, as does a duplicate id; the file is then
    left as it was.  Returns the number of entries written.
    """
    seen: set[str] = set()
    count = 0
    with atomic_writer(path, binary=True) as handle:
        write = handle.write
        for entry in entries:
            id_, definition, raw_text = entry.id, entry.definition, entry.raw_text
            if type(raw_text) is not SpilledText:
                raise DatasetError(f"entry {id_!r}: field 'raw_text' must be SpilledText, "
                                   f"got {raw_text!r:.40}")
            raw_json = raw_text.json_bytes()
            try:
                if raw_text.plain_prefix is definition:
                    definition_json = f'"{definition}"'
                else:
                    definition_json = _STRING[type(definition)](definition)
                volume, page, headword = entry.volume, entry.page, entry.headword
                head = (
                    f'{{"id": {_STRING[type(id_)](id_)}, '
                    f'"volume": {_INTEGER[type(volume)](volume)}, '
                    f'"page": {_INTEGER[type(page)](page)}, '
                    f'"headword": {_STRING[type(headword)](headword)}, '
                    f'"definition": {definition_json}, "raw_text": '
                )
                tail = ""
                if (is_location := entry.is_location) is not None:
                    tail = f', "is_location": {_BOOLEAN[type(is_location)](is_location)}'
                if (qid := entry.qid) is not None:
                    tail += f', "qid": {_STRING[type(qid)](qid)}'
                if (similarity := entry.similarity) is not None:
                    tail += f', "similarity": {_NUMBER[type(similarity)](similarity)}'
                if (lat := entry.lat) is not None:
                    tail += f', "lat": {_NUMBER[type(lat)](lat)}'
                if (lon := entry.lon) is not None:
                    tail += f', "lon": {_NUMBER[type(lon)](lon)}'
            except (KeyError, ValueError, OverflowError):
                for name in _REQUIRED_FIELDS[:5] + _OPTIONAL_FIELDS:  # raw_text is checked above
                    problem = _field_problem(name, getattr(entry, name), False)
                    if problem is not None:
                        raise DatasetError(f"entry {id_!r}: {problem}") from None
                raise
            if id_ in seen:
                raise DatasetError(f"duplicate entry id {id_!r}")
            seen.add(id_)
            write(head.encode("utf-8"))
            write(raw_json)
            write(f"{tail}}}\n".encode("utf-8"))
            count += 1
    return count
