"""Exception types shared across the pipeline modules."""


class DatasetError(Exception):
    """A dataset file is malformed or internally inconsistent."""


class TransportError(Exception):
    """Network-level failure: timeouts, refused connections, HTTP 429/5xx.

    Transport errors are the retryable class of remote failure.
    """


class ProtocolError(Exception):
    """The remote service answered, but with something unusable.

    Covers non-retryable HTTP statuses and malformed response bodies.
    """


class ReplayCacheMiss(Exception):
    """A replay-mode request had no recorded response on disk."""


def http_status_error(code: int, url: str) -> TransportError | ProtocolError:
    """The error for an HTTP error status from ``url``: 429 and 5xx are
    worth retrying (TransportError), any other status is not
    (ProtocolError)."""
    kind = TransportError if code == 429 or code >= 500 else ProtocolError
    return kind(f"HTTP {code} from {url}")
