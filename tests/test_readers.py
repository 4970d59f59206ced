"""The readers of outside files: a feature CSV, a run config and a
recorded scan report.  Whatever bytes a file holds, each reader returns
or raises its own error, which the CLI prints on one line."""

import pytest
from hypothesis import given, settings, strategies as st

from droidlens.cli import load_config
from droidlens.dataset import CSV_HEADER, read_dataset
from droidlens.errors import ConfigError, DatasetError, OracleError
from droidlens.oracle import LabelOracle

HASH = "ab" * 32
HEADER = ",".join(CSV_HEADER).encode() + b"\n"


def _read_fixture(path):
    return LabelOracle(path.parent).fetch(HASH)


READERS = {
    "read_dataset": ("features.csv", read_dataset, DatasetError),
    "load_config": ("run.json", load_config, ConfigError),
    "fetch": (f"{HASH}.json", _read_fixture, OracleError),
}

# Arbitrary bytes, alone or after a valid CSV header, and JSON-like
# nesting deeper than the interpreter's recursion limit.
contents = st.one_of(
    st.binary(max_size=400),
    st.binary(max_size=400).map(lambda tail: HEADER + tail),
    st.builds(
        lambda head, depth, bracket, tail: head + bracket * depth + tail,
        st.sampled_from([b"", b'{"engines": ', b'{"seed": ', HEADER]),
        st.integers(2_000, 100_000),
        st.sampled_from([b"[", b'{"a": ']),
        st.binary(max_size=20),
    ),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=150, deadline=None)
@given(content=contents)
def test_reader_returns_or_raises_its_own_error(workdir, reader, content):
    name, read, error = READERS[reader]
    directory = workdir / reader
    directory.mkdir(exist_ok=True)
    path = directory / name
    path.write_bytes(content)
    try:
        read(path)
    except error:
        pass
