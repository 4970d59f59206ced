"""Label-oracle client: fixture replay, live HTTP shape, rate limiting."""

import json
import math

import numpy as np
import pytest
import requests

from droidlens.dataset import Dataset
from droidlens.errors import OracleError
from droidlens.oracle import API_KEY_ENV, LabelOracle, relabel

HASH_A = "a" * 64
HASH_B = "b" * 64


def write_fixture(directory, file_hash, engines):
    body = {"engines": {name: {"detected": flag} for name, flag in engines.items()}}
    (directory / f"{file_hash}.json").write_text(json.dumps(body))


@pytest.fixture
def fixture_dir(tmp_path):
    write_fixture(tmp_path, HASH_A, {"AVOne": True, "AVTwo": False})
    write_fixture(tmp_path, HASH_B, {"AVOne": False, "AVTwo": False})
    return tmp_path


# --- Fixture mode ---------------------------------------------------------


def test_fixture_replay(fixture_dir):
    oracle = LabelOracle(fixture_dir=fixture_dir)
    verdicts = oracle.fetch(HASH_A)
    assert verdicts.file_hash == HASH_A
    assert dict(verdicts.engines) == {"AVOne": True, "AVTwo": False}
    assert verdicts.detections == 1


def test_fixture_hash_is_case_insensitive(fixture_dir):
    oracle = LabelOracle(fixture_dir=fixture_dir)
    assert oracle.fetch(HASH_A.upper()).detections == 1


def test_missing_fixture_errors(fixture_dir):
    oracle = LabelOracle(fixture_dir=fixture_dir)
    with pytest.raises(OracleError, match="no recorded report"):
        oracle.fetch("c" * 64)


def test_bad_fixture_json(fixture_dir):
    (fixture_dir / ("d" * 64 + ".json")).write_text("{not json")
    oracle = LabelOracle(fixture_dir=fixture_dir)
    with pytest.raises(OracleError, match="unreadable"):
        oracle.fetch("d" * 64)


def test_malformed_report_shapes(fixture_dir):
    (fixture_dir / ("e" * 64 + ".json")).write_text(json.dumps({"nope": 1}))
    (fixture_dir / ("f" * 64 + ".json")).write_text(
        json.dumps({"engines": {"AV": {"detected": "yes"}}})
    )
    oracle = LabelOracle(fixture_dir=fixture_dir)
    with pytest.raises(OracleError, match="engines"):
        oracle.fetch("e" * 64)
    with pytest.raises(OracleError, match="detected"):
        oracle.fetch("f" * 64)


def test_hash_validation_blocks_path_tricks(fixture_dir):
    oracle = LabelOracle(fixture_dir=fixture_dir)
    for bad in ("../secret", "xyz", "", "a" * 7, "a" * 129):
        with pytest.raises(OracleError, match="malformed"):
            oracle.fetch(bad)


def test_missing_fixture_dir():
    with pytest.raises(OracleError, match="not found"):
        LabelOracle(fixture_dir="/no/such/dir")


def test_exactly_one_source_required(fixture_dir):
    with pytest.raises(OracleError, match="exactly one"):
        LabelOracle()
    with pytest.raises(OracleError, match="exactly one"):
        LabelOracle(base_url="https://x", fixture_dir=fixture_dir)


# --- Live mode (fake transport) --------------------------------------------


class FakeResponse:
    def __init__(self, status_code, body=None, raw=None):
        self.status_code = status_code
        self._body = body
        self._raw = raw

    def json(self):
        if self._body is None:
            raise ValueError("no body")
        return self._body


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def get(self, url, headers=None, timeout=None):
        self.calls.append({"url": url, "headers": headers, "timeout": timeout})
        result = self.responses.pop(0)
        if isinstance(result, Exception):
            raise result
        return result


def live_oracle(session, **kwargs):
    kwargs.setdefault("requests_per_minute", 100000)
    return LabelOracle(base_url="https://oracle.test/v1", api_key="k123", session=session, **kwargs)


def test_live_request_shape():
    session = FakeSession([FakeResponse(200, {"engines": {"AV": {"detected": True}}})])
    oracle = live_oracle(session)
    verdicts = oracle.fetch(HASH_A)
    assert verdicts.detections == 1
    call = session.calls[0]
    assert call["url"] == f"https://oracle.test/v1/report/{HASH_A}"
    assert call["headers"]["x-apikey"] == "k123"
    assert call["timeout"] is not None


def test_live_404_and_500():
    oracle = live_oracle(FakeSession([FakeResponse(404), FakeResponse(500)]))
    with pytest.raises(OracleError, match="no report"):
        oracle.fetch(HASH_A)
    with pytest.raises(OracleError, match="500"):
        oracle.fetch(HASH_A)


def test_live_transport_error_and_bad_json():
    session = FakeSession([requests.ConnectionError("boom"), FakeResponse(200)])
    oracle = live_oracle(session)
    with pytest.raises(OracleError, match="request failed"):
        oracle.fetch(HASH_A)
    with pytest.raises(OracleError, match="non-JSON"):
        oracle.fetch(HASH_A)


def test_api_key_from_environment(monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "env-key")
    session = FakeSession([FakeResponse(200, {"engines": {"AV": {"detected": False}}})])
    oracle = LabelOracle(base_url="https://oracle.test", session=session,
                         requests_per_minute=100000)
    oracle.fetch(HASH_A)
    assert session.calls[0]["headers"]["x-apikey"] == "env-key"


def test_missing_api_key_rejected(monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    with pytest.raises(OracleError, match=API_KEY_ENV):
        LabelOracle(base_url="https://oracle.test")


# --- Rate limiting ----------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def test_rate_limit_spacing():
    body = {"engines": {"AV": {"detected": True}}}
    session = FakeSession([FakeResponse(200, body)] * 3)
    fake = FakeClock()
    oracle = LabelOracle(
        base_url="https://oracle.test",
        api_key="k",
        session=session,
        requests_per_minute=60,  # one per second
        clock=fake.clock,
        sleep=fake.sleep,
    )
    oracle.fetch(HASH_A)  # first call goes straight through
    assert fake.sleeps == []
    fake.now += 0.25  # only a quarter second has passed
    oracle.fetch(HASH_A)
    assert fake.sleeps == [pytest.approx(0.75)]
    fake.now += 5.0  # long gap, no sleep needed
    oracle.fetch(HASH_A)
    assert len(fake.sleeps) == 1


def test_bad_rate_rejected():
    # NaN would make every wait comparison false, and inf a zero interval:
    # both would turn rate limiting off.
    for rate in (0, -1.0, math.nan, math.inf):
        with pytest.raises(OracleError, match="requests_per_minute"):
            LabelOracle(base_url="https://x", api_key="k", requests_per_minute=rate)


# --- relabel ----------------------------------------------------------------


def test_relabel_overwrites_labels(fixture_dir):
    ds = Dataset(
        ids=(HASH_A, HASH_B),
        features=np.ones((2, 4)),
        labels=np.array([0, 1]),
    )
    oracle = LabelOracle(fixture_dir=fixture_dir)
    out = relabel(ds, oracle)
    assert out.labels.tolist() == [1, 0]
    assert out.ids == ds.ids
    assert np.array_equal(out.features, ds.features)
