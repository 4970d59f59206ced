"""Label-oracle client: fixture replay, live HTTP shape, rate limiting."""

import json
import math
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from droidlens import oracle as oracle_module
from droidlens.dataset import Dataset, ScanVerdicts
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
    oracle = LabelOracle(fixture_dir)
    verdicts = oracle.fetch(HASH_A)
    assert verdicts.file_hash == HASH_A
    assert dict(verdicts.engines) == {"AVOne": True, "AVTwo": False}
    assert verdicts.detections == 1


def test_fixture_hash_is_case_insensitive(fixture_dir):
    oracle = LabelOracle(fixture_dir)
    assert oracle.fetch(HASH_A.upper()).detections == 1


def test_missing_fixture_errors(fixture_dir):
    oracle = LabelOracle(fixture_dir)
    with pytest.raises(OracleError, match="no recorded report"):
        oracle.fetch("c" * 64)


def test_bad_fixture_json(fixture_dir):
    (fixture_dir / ("d" * 64 + ".json")).write_text("{not json")
    oracle = LabelOracle(fixture_dir)
    with pytest.raises(OracleError, match="unreadable"):
        oracle.fetch("d" * 64)


def test_malformed_report_shapes(fixture_dir):
    (fixture_dir / ("e" * 64 + ".json")).write_text(json.dumps({"nope": 1}))
    (fixture_dir / ("f" * 64 + ".json")).write_text(
        json.dumps({"engines": {"AV": {"detected": "yes"}}})
    )
    oracle = LabelOracle(fixture_dir)
    with pytest.raises(OracleError, match="engines"):
        oracle.fetch("e" * 64)
    with pytest.raises(OracleError, match="detected"):
        oracle.fetch("f" * 64)


def test_hash_validation_blocks_path_tricks(fixture_dir):
    oracle = LabelOracle(fixture_dir)
    for bad in ("../secret", "xyz", "", "a" * 7, "a" * 129):
        with pytest.raises(OracleError, match="malformed"):
            oracle.fetch(bad)


def test_missing_fixture_dir():
    with pytest.raises(OracleError, match="not found"):
        LabelOracle("/no/such/dir")


# --- Live mode (loopback HTTP) ----------------------------------------------


class Loopback:
    """An HTTP server on 127.0.0.1 that answers each GET with the next
    scripted (status, body, headers) reply and records the path and
    headers of each request.  A reply of ``STALL`` answers nothing until
    the server closes."""

    def __init__(self):
        self.replies = []
        self.seen = []  # (path, headers); header names read case-insensitively
        self.released = threading.Event()
        loopback = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                loopback.seen.append((self.path, self.headers))
                reply = loopback.replies.pop(0)
                if reply is STALL:
                    loopback.released.wait(10)
                    return
                status, body, headers = reply
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = False  # server_close joins the handlers
        self.url = f"http://127.0.0.1:{self.server.server_port}"
        self._thread = threading.Thread(target=self.server.serve_forever, args=(0.01,))
        self._thread.start()

    def script(self, *replies):
        self.replies.extend(replies)

    def close(self):
        self.released.set()
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(5)
        assert not self._thread.is_alive()


STALL = object()
REPORT = json.dumps({"engines": {"AV": {"detected": True}}}).encode()


def reply(status, body=b"", **headers):
    return (status, body, headers)


@pytest.fixture
def new_server(monkeypatch):
    """Start loopback servers on demand; all close at teardown."""
    for name in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(name, raising=False)
    servers = []

    def start():
        servers.append(Loopback())
        return servers[-1]

    yield start
    for server in servers:
        server.close()


@pytest.fixture
def server(new_server):
    return new_server()


def live_oracle(server, **kwargs):
    kwargs.setdefault("requests_per_minute", 100000)
    return LabelOracle(server.url + "/v1/", api_key="k123", **kwargs)


def test_live_request_shape(server):
    server.script(reply(200, REPORT))
    verdicts = live_oracle(server).fetch(HASH_A.upper())
    assert verdicts.detections == 1
    [(path, headers)] = server.seen
    assert path == f"/v1/report/{HASH_A}"
    assert headers["x-apikey"] == "k123"


def test_api_key_from_environment(server, monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "env-key")
    server.script(reply(200, REPORT))
    LabelOracle(server.url, requests_per_minute=100000).fetch(HASH_A)
    assert server.seen[0][1]["X-APIKEY"] == "env-key"


def test_live_404_and_500(server):
    # A 2xx other than 200 is refused like any other status.
    server.script(reply(404), reply(500, b"oops"), reply(204))
    oracle = live_oracle(server)
    with pytest.raises(OracleError, match=f"^no report on record for {HASH_A}$"):
        oracle.fetch(HASH_A)
    for status in (500, 204):
        with pytest.raises(OracleError, match=f"^oracle returned HTTP {status} for {HASH_A}$"):
            oracle.fetch(HASH_A)


def test_live_transport_error_and_bad_json(server):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        closed = f"http://127.0.0.1:{sock.getsockname()[1]}"
    with pytest.raises(OracleError, match=f"^request failed for {HASH_A}: "):
        LabelOracle(closed, api_key="k").fetch(HASH_A)
    server.script(reply(200, b"<html>"), reply(200, b"[" * 100_000))
    oracle = live_oracle(server)
    for _ in range(2):
        with pytest.raises(OracleError, match=f"^non-JSON response for {HASH_A}: "):
            oracle.fetch(HASH_A)


def test_live_stalled_server_times_out(server, monkeypatch):
    monkeypatch.setattr(oracle_module, "_TIMEOUT_S", 0.2)
    server.script(STALL)
    with pytest.raises(OracleError, match=f"^request failed for {HASH_A}: "):
        live_oracle(server).fetch(HASH_A)


def test_live_redirect_refused_and_key_kept(new_server):
    origin, elsewhere = new_server(), new_server()
    origin.script(reply(302, Location=f"{elsewhere.url}/v1/report/{HASH_A}"))
    elsewhere.script(reply(200, REPORT))
    with pytest.raises(OracleError, match=f"^oracle returned HTTP 302 for {HASH_A}$"):
        live_oracle(origin).fetch(HASH_A)
    assert len(origin.seen) == 1
    assert elsewhere.seen == []


def test_missing_api_key_rejected(monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    with pytest.raises(OracleError, match=API_KEY_ENV):
        LabelOracle("https://oracle.test")


def test_non_http_base_url_rejected():
    # Only http(s) selects the live service, so urllib never sees the others.
    for url in ("file:///etc", "ftp://oracle.test", "oracle.test"):
        with pytest.raises(OracleError, match=f"^fixture directory not found: {url}$"):
            LabelOracle(url, api_key="k")


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


def test_rate_limit_spacing(server):
    server.script(*[reply(200, REPORT)] * 3)
    fake = FakeClock()
    oracle = live_oracle(
        server,
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
    assert len(server.seen) == 3


def test_bad_rate_rejected():
    # NaN would make every wait comparison false, and inf a zero interval:
    # both would turn rate limiting off.
    for rate in (0, -1.0, math.nan, math.inf):
        with pytest.raises(OracleError, match="requests_per_minute"):
            LabelOracle("https://x", api_key="k", requests_per_minute=rate)


# --- relabel ----------------------------------------------------------------


def test_relabel_overwrites_labels(fixture_dir):
    ds = Dataset(
        ids=(HASH_A, HASH_B),
        features=np.ones((2, 4)),
        labels=np.array([0, 1]),
    )
    oracle = LabelOracle(fixture_dir)
    out = relabel(ds, oracle)
    assert out.labels.tolist() == [1, 0]
    assert out.ids == ds.ids
    assert np.array_equal(out.features, ds.features)


class CountingOracle:
    def __init__(self, reports):
        self.reports = reports
        self.fetched = []

    def fetch(self, file_hash):
        self.fetched.append(file_hash)
        engines = self.reports[file_hash]
        if engines is None:
            raise OracleError(f"no recorded report for {file_hash}")
        return ScanVerdicts(file_hash=file_hash, engines=engines)


def test_relabel_fetches_each_distinct_id_once():
    # An APK listed twice has one SHA-256 id; at --rpm 4 each repeat
    # would cost a rate-limited request.
    ids = (HASH_A, HASH_B, HASH_A, HASH_A, HASH_B)
    ds = Dataset(ids=ids, features=np.ones((5, 4)), labels=np.zeros(5))
    oracle = CountingOracle({HASH_A: {"AV": True}, HASH_B: {"AV": False}})
    assert relabel(ds, oracle).labels.tolist() == [1, 0, 1, 1, 0]
    assert oracle.fetched == [HASH_A, HASH_B]

    # The first failing id in row order still raises first.
    hash_c, hash_d = "c" * 64, "d" * 64
    ids = (HASH_A, hash_c, HASH_A, hash_d)
    ds = Dataset(ids=ids, features=np.ones((4, 4)), labels=np.zeros(4))
    oracle = CountingOracle({HASH_A: {"AV": True}, hash_c: None, hash_d: None})
    with pytest.raises(OracleError, match=f"for {hash_c}$"):
        relabel(ds, oracle)
    assert oracle.fetched == [HASH_A, hash_c]
