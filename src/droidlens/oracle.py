"""Scan-report oracle client with an offline fixture mode, and the
consensus rule that turns a report's verdicts into a label.

Live mode speaks a REST shape compatible with common scan-report APIs:
GET <source>/report/<sha256> returning
``{"engines": {"<name>": {"detected": <bool>}, ...}}`` with the API key
in the ``x-apikey`` header.  Fixture mode replays the same JSON bodies
from ``<source>/<sha256>.json`` so tests and air-gapped runs never
touch the network.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .dataset import Dataset
from .errors import DatasetError, NoVerdictsError, OracleError

API_KEY_ENV = "DROIDLENS_ORACLE_KEY"
_TIMEOUT_S = 30
_HASH_RE = re.compile(r"^[0-9a-fA-F]{8,128}$")


@dataclass(frozen=True)
class ScanVerdicts:
    """Per-engine detection verdicts for one file hash."""

    file_hash: str
    engines: Mapping[str, bool]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "engines", MappingProxyType({str(k): bool(v) for k, v in self.engines.items()})
        )

    @property
    def detections(self) -> int:
        return sum(self.engines.values())


def check_threshold(threshold: int) -> None:
    if threshold < 1:
        raise DatasetError(f"threshold must be positive, got {threshold}")


def consensus_label(v: ScanVerdicts, threshold: int = 1) -> int:
    """1 (malware) iff at least ``threshold`` engines flagged the file."""
    check_threshold(threshold)
    if not v.engines:
        raise NoVerdictsError(f"no engine verdicts for {v.file_hash}; label unknown")
    return 1 if v.detections >= threshold else 0


class LabelOracle:
    """Sequential, rate-limited verdict lookups.

    A ``source`` beginning ``http://`` or ``https://`` is the base URL
    of a live report service; anything else is a fixture directory,
    which must exist; an empty source is refused.  The clock and sleep
    functions are injectable so rate limiting is testable without real
    delays.  Not thread-safe; one client per worker.
    """

    def __init__(
        self,
        source,
        requests_per_minute: float = 4.0,
        api_key: str | None = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        source = str(source)
        if not 0 < requests_per_minute < math.inf:  # also false for NaN
            raise OracleError(
                f"requests_per_minute must be finite and positive, got {requests_per_minute}"
            )
        self._base_url = self._fixture_dir = None
        if not source:  # Path("") would be the working directory
            raise OracleError("oracle source is empty: give a fixture directory or an http(s) URL")
        if source.startswith(("http://", "https://")):
            self._base_url = source.rstrip("/")
        elif Path(source).is_dir():
            self._fixture_dir = Path(source)
        else:
            raise OracleError(f"fixture directory not found: {source}")
        self._interval = 60.0 / requests_per_minute
        self._api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        if self._base_url and not self._api_key:
            raise OracleError(f"live oracle needs an API key; set {API_KEY_ENV}")
        self._clock = clock
        self._sleep = sleep
        self._last_request: float | None = None

    def _throttle(self) -> None:
        now = self._clock()
        if self._last_request is not None:
            wait = self._interval - (now - self._last_request)
            if wait > 0:
                self._sleep(wait)
                now = self._clock()
        self._last_request = now

    def fetch(self, file_hash: str) -> ScanVerdicts:
        file_hash = file_hash.strip().lower()
        if not _HASH_RE.match(file_hash):
            raise OracleError(f"malformed file hash: {file_hash!r}")
        if self._fixture_dir is not None:
            path = self._fixture_dir / f"{file_hash}.json"
            if not path.is_file():
                raise OracleError(f"no recorded report for {file_hash} in {self._fixture_dir}")
            body, undecodable = path.read_bytes(), f"unreadable fixture {path}"
        else:
            body, undecodable = self._fetch_live(file_hash), f"non-JSON response for {file_hash}"
        try:
            report = json.loads(body)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            raise OracleError(f"{undecodable}: {exc}") from None
        return _parse_report(file_hash, report)

    def _fetch_live(self, file_hash: str) -> bytes:
        # Imported here, not at the top: urllib.request loads http.client
        # and ssl, 3.2 MB that only a live lookup needs.
        import http.client
        import urllib.error
        import urllib.request

        class RefuseRedirect(urllib.request.HTTPRedirectHandler):
            def redirect_request(self, *args):
                return None  # a 3xx is an HTTPError: the key goes to base_url only

        self._throttle()
        request = urllib.request.Request(
            f"{self._base_url}/report/{file_hash}", headers={"x-apikey": self._api_key}
        )
        opener = urllib.request.build_opener(RefuseRedirect)
        try:
            with opener.open(request, timeout=_TIMEOUT_S) as resp:
                status, body = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            status = exc.code
        except (OSError, http.client.HTTPException) as exc:
            raise OracleError(f"request failed for {file_hash}: {exc}") from None
        if status == 404:
            raise OracleError(f"no report on record for {file_hash}")
        if status != 200:
            raise OracleError(f"oracle returned HTTP {status} for {file_hash}")
        return body


def _parse_report(file_hash: str, body) -> ScanVerdicts:
    if not isinstance(body, dict) or not isinstance(body.get("engines"), dict):
        raise OracleError(f"report for {file_hash} lacks an 'engines' object")
    engines: dict[str, bool] = {}
    for name, entry in body["engines"].items():
        if not isinstance(entry, dict) or not isinstance(entry.get("detected"), bool):
            raise OracleError(
                f"report for {file_hash}: engine {name!r} lacks a boolean 'detected'"
            )
        engines[str(name)] = entry["detected"]
    return ScanVerdicts(file_hash=file_hash, engines=engines)


def relabel(ds: Dataset, oracle: LabelOracle, threshold: int = 1) -> Dataset:
    """Replace labels with the consensus verdict for each row id.

    Row ids must be the file hashes the histograms were extracted from.
    Each distinct id is looked up once, in row order.  The threshold is
    checked before the first request.
    """
    check_threshold(threshold)
    by_id = {i: consensus_label(oracle.fetch(i), threshold) for i in dict.fromkeys(ds.ids)}
    labels = [by_id[row_id] for row_id in ds.ids]
    return Dataset(ids=ds.ids, features=ds.features, labels=np.array(labels, dtype=np.int64))
