"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its arguments: the same seed
gives byte-identical files.  The generators do not import droidlens;
they encode the DEX layout and the dataset wire format independently,
so the output checks compare the program against an outside oracle.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# --- DEX corpus -----------------------------------------------------------------

# Instruction width in 16-bit code units per opcode range, from the
# Dalvik bytecode format tables.  Opcodes not listed are unused.
_WIDTH_RANGES = (
    (0x00, 0x01, 1), (0x02, 0x02, 2), (0x03, 0x03, 3), (0x04, 0x04, 1), (0x05, 0x05, 2),
    (0x06, 0x06, 3), (0x07, 0x07, 1), (0x08, 0x08, 2), (0x09, 0x09, 3),
    (0x0A, 0x12, 1), (0x13, 0x13, 2), (0x14, 0x14, 3), (0x15, 0x16, 2),
    (0x17, 0x17, 3), (0x18, 0x18, 5), (0x19, 0x1A, 2), (0x1B, 0x1B, 3),
    (0x1C, 0x1C, 2), (0x1D, 0x1E, 1), (0x1F, 0x20, 2), (0x21, 0x21, 1),
    (0x22, 0x23, 2), (0x24, 0x26, 3), (0x27, 0x28, 1), (0x29, 0x29, 2),
    (0x2A, 0x2C, 3), (0x2D, 0x3D, 2), (0x44, 0x6D, 2), (0x6E, 0x72, 3),
    (0x74, 0x78, 3), (0x7B, 0x8F, 1), (0x90, 0xAF, 2), (0xB0, 0xCF, 1),
    (0xD0, 0xE2, 2), (0xFA, 0xFB, 4), (0xFC, 0xFD, 3), (0xFE, 0xFF, 2),
)


def _width_table() -> np.ndarray:
    widths = np.zeros(256, dtype=np.int64)
    for lo, hi, w in _WIDTH_RANGES:
        widths[lo : hi + 1] = w
    return widths


WIDTHS = _width_table()
VALID_OPCODES = np.flatnonzero(WIDTHS)
# Zipf rank of each valid opcode.  Opcode popularity is a property of
# the platform's compilers rather than of one sample, so the order is
# fixed; the seed varies everything else.
OPCODE_RANKS = np.random.default_rng(0).permutation(VALID_OPCODES.size) + 1

PACKED_SWITCH, SPARSE_SWITCH, FILL_ARRAY = 0x0100, 0x0200, 0x0300
HEADER_SIZE = 0x70


@dataclass(frozen=True)
class CorpusParams:
    target_bytes: int
    size_median: int = 150_000
    size_sigma: float = 1.0
    size_min: int = 20_000
    size_max: int = 4_000_000
    multidex_share: float = 0.10
    zipf_s: float = 1.1
    insns_per_method: int = 40
    methods_per_class: int = 8
    payload_share: float = 0.08
    malware_share: float = 0.45


@dataclass
class App:
    name: str
    members: list[tuple[str, bytes]]  # (relative path, DEX bytes), sorted
    counts: np.ndarray  # expected opcode histogram, 256 ints
    sha256: str  # digest of member bytes concatenated in sorted order
    report: dict  # scan report served by the fixture oracle
    malware: int  # consensus label at threshold 1


def _uleb128(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode each value as unsigned LEB128; returns (bytes, start of each)."""
    values = values.astype(np.int64)
    nbytes = 1 + sum((values >= (1 << (7 * k))).astype(np.int64) for k in range(1, 5))
    starts = np.cumsum(nbytes) - nbytes
    out = np.zeros(int(nbytes.sum()), dtype=np.uint8)
    for k in range(5):
        sel = nbytes > k
        byte = (values[sel] >> (7 * k)) & 0x7F
        out[starts[sel] + k] = byte | np.where(nbytes[sel] > k + 1, 0x80, 0)
    return out, starts


def _payload(rng: np.random.Generator) -> list[int]:
    """One packed-switch, sparse-switch or fill-array-data block."""
    kind = int(rng.integers(3))
    size = int(rng.integers(1, 9))
    if kind == 0:
        body = [PACKED_SWITCH, size] + rng.integers(0, 65536, 2 + 2 * size).tolist()
    elif kind == 1:
        body = [SPARSE_SWITCH, size] + rng.integers(0, 65536, 4 * size).tolist()
    else:
        elem = int(rng.choice([1, 2, 4, 8]))
        data = (size * elem + 1) // 2
        body = [FILL_ARRAY, elem, size, 0] + rng.integers(0, 65536, data).tolist()
    return body


def build_dex(n_insns: int, version: int, p: CorpusParams, probs, rng) -> tuple[bytes, np.ndarray]:
    """One DEX file of about ``n_insns`` instructions and its histogram.

    Layout: header, class_defs, 4-aligned code items, then class_data
    items naming the code offsets; the final class has no class_data.
    """
    ops = rng.choice(VALID_OPCODES, size=n_insns, p=probs)
    widths = WIDTHS[ops]
    units = rng.integers(0, 65536, size=int(widths.sum()), dtype=np.uint16)
    insn_at = np.cumsum(widths) - widths
    high = rng.integers(0, 256, size=n_insns)
    high[ops == 0] = 0  # a nop with high byte 1..3 would read as a payload
    units[insn_at] = ops | (high << 8)

    n_methods = max(1, n_insns // p.insns_per_method)
    cuts = np.sort(rng.choice(np.arange(1, n_insns), size=n_methods - 1, replace=False))
    m_first = np.concatenate([[0], cuts])
    insn_units = np.add.reduceat(widths, m_first)
    insn_unit_start = insn_at[m_first]

    with_payload = np.flatnonzero(rng.random(n_methods) < p.payload_share)
    blocks = [_payload(rng) for _ in with_payload]
    pay_len = np.zeros(n_methods, dtype=np.int64)
    pay_len[with_payload] = [len(b) for b in blocks]
    payload = np.array([u for b in blocks for u in b], dtype=np.uint16)
    pay_start = np.zeros(n_methods, dtype=np.int64)
    pay_start[with_payload] = np.cumsum(pay_len[with_payload]) - pay_len[with_payload]

    mu = insn_units + pay_len  # code units per method
    slot = 8 + mu + (mu & 1)  # 16-byte header, code, pad to 4 bytes
    hoff = np.cumsum(slot) - slot
    region = np.zeros(int(slot.sum()), dtype=np.uint16)
    region[hoff] = 2  # registers_size
    region[hoff + 6] = mu & 0xFFFF
    region[hoff + 7] = mu >> 16
    region[np.repeat(hoff + 8 - insn_unit_start, insn_units) + np.arange(units.size)] = units
    if payload.size:
        dest = np.repeat(hoff[with_payload] + 8 + insn_units[with_payload]
                         - pay_start[with_payload], pay_len[with_payload])
        region[dest + np.arange(payload.size)] = payload

    n_classes = max(1, n_methods // p.methods_per_class)
    c_cuts = np.sort(rng.choice(np.arange(1, n_methods), size=n_classes - 1, replace=False)) \
        if n_classes > 1 else np.array([], dtype=np.int64)
    c_first = np.concatenate([[0], c_cuts]).astype(np.int64)
    c_methods = np.diff(np.append(c_first, n_methods))
    total_defs = n_classes + 1
    data_off = HEADER_SIZE + 32 * total_defs
    code_off = data_off + 2 * hoff

    c_len = 4 + 3 * c_methods
    c_head = np.cumsum(c_len) - c_len
    values = np.zeros(int(c_len.sum()), dtype=np.int64)
    values[c_head + 2] = c_methods  # direct_methods; field and virtual counts stay 0
    m_pos = np.repeat(c_head + 4 - 3 * c_first, c_methods) + 3 * np.arange(n_methods)
    first_in_class = np.zeros(n_methods, dtype=bool)
    first_in_class[c_first] = True
    values[m_pos] = np.where(first_in_class, 3, 1)  # method_idx_diff
    values[m_pos + 1] = 0x1  # access_flags: public
    values[m_pos + 2] = code_off
    class_data, value_at = _uleb128(values)
    class_data_start = data_off + 2 * region.size
    class_data_off = class_data_start + value_at[c_head]

    defs = np.zeros((total_defs, 8), dtype="<u4")
    defs[:, 0] = np.arange(total_defs)
    defs[:, 1] = 0x1
    defs[:, 2] = 0xFFFFFFFF
    defs[:, 4] = 0xFFFFFFFF
    defs[:n_classes, 6] = class_data_off

    file_size = class_data_start + class_data.size
    header = bytearray(HEADER_SIZE)
    header[0:8] = b"dex\n%03d\x00" % version
    struct.pack_into("<III", header, 32, file_size, HEADER_SIZE, 0x12345678)
    struct.pack_into("<IIII", header, 96, total_defs, HEADER_SIZE,
                     file_size - data_off, data_off)
    out = bytearray(header)
    out += defs.tobytes()
    out += region.astype("<u2").tobytes()
    out += class_data.tobytes()
    out[12:32] = hashlib.sha1(out[32:]).digest()
    struct.pack_into("<I", out, 8, zlib.adler32(bytes(out[12:])))
    return bytes(out), np.bincount(ops, minlength=256)


def _scan_report(rng, malware: bool) -> dict:
    n_engines = int(rng.integers(20, 70))
    detected = np.zeros(n_engines, dtype=bool)
    if malware:
        hits = 1 + int(rng.binomial(n_engines - 1, float(rng.uniform(0.0, 0.6))))
        detected[rng.choice(n_engines, size=hits, replace=False)] = True
    return {"engines": {f"engine{i:02d}": {"detected": bool(d)} for i, d in enumerate(detected)}}


def make_corpus(seed: int, p: CorpusParams) -> list[App]:
    """Apps with log-normal sizes until the corpus reaches target_bytes."""
    rng = np.random.default_rng([seed, 1])
    probs = 1.0 / OPCODE_RANKS.astype(np.float64) ** p.zipf_s
    probs /= probs.sum()
    bytes_per_insn = 2.0 * float(probs @ WIDTHS[VALID_OPCODES]) + 0.6
    apps: list[App] = []
    total = 0
    while total < p.target_bytes:
        size = float(np.clip(rng.lognormal(np.log(p.size_median), p.size_sigma),
                             p.size_min, p.size_max))
        # The last app takes what is left, so every seed has the same
        # corpus size and about the same instruction count.
        size = max(min(size, p.target_bytes - total), p.size_min)
        n_files = int(rng.integers(2, 4)) if rng.random() < p.multidex_share else 1
        name = f"app{len(apps):04d}"
        members = []
        counts = np.zeros(256, dtype=np.int64)
        for f in range(n_files):
            n_insns = max(2, int(size / n_files / bytes_per_insn))
            version = int(rng.choice([35, 37, 38, 39]))
            data, hist = build_dex(n_insns, version, p, probs, rng)
            member = f"{name}.dex" if n_files == 1 else \
                f"{name}/classes{'' if f == 0 else f + 1}.dex"
            members.append((member, data))
            counts += hist
            total += len(data)
        members.sort()
        digest = hashlib.sha256()
        for _, data in members:
            digest.update(data)
        malware = bool(rng.random() < p.malware_share)
        apps.append(App(name, members, counts, digest.hexdigest(),
                        _scan_report(rng, malware), int(malware)))
    return apps


def write_corpus(apps: list[App], dex_dir: Path, report_dir: Path) -> dict[str, str]:
    """Write DEX files and <sha256>.json reports; returns path -> SHA-256."""
    digests = {}
    for app in apps:
        for member, data in app.members:
            path = dex_dir / member
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
            digests[f"dex/{member}"] = hashlib.sha256(data).hexdigest()
        text = json.dumps(app.report, sort_keys=True)
        (report_dir / f"{app.sha256}.json").write_text(text, encoding="utf-8")
        digests[f"reports/{app.sha256}.json"] = hashlib.sha256(text.encode()).hexdigest()
    return digests


# --- Poisson opcode-count mixture ---------------------------------------------------


@dataclass(frozen=True)
class MixtureParams:
    """n rows of Poisson counts from 4 gamma(1, 50) rate profiles, each
    row scaled by gamma(5, 0.2); malware rate 30% or 70% by profile.

    The profiles are the population and come from ``population_seed``;
    the workload seed draws the sample.  Rows are split evenly over the
    profiles and each profile gets its exact malware share, so seeds
    differ in their rows, not in the population's cluster structure.
    """

    n: int
    profiles: int = 4
    rate_shape: float = 1.0
    rate_scale: float = 50.0
    row_shape: float = 5.0
    row_scale: float = 0.2
    malware_rates: tuple[float, float] = (0.3, 0.7)
    population_seed: int = 0


def make_mixture(seed: int, p: MixtureParams) -> tuple[list[str], np.ndarray, np.ndarray]:
    rates = np.random.default_rng([p.population_seed, 2]).gamma(
        p.rate_shape, p.rate_scale, size=(p.profiles, 256))
    rng = np.random.default_rng([seed, 2])
    component = rng.permutation(np.arange(p.n) % p.profiles)
    labels = np.zeros(p.n, dtype=np.int64)
    for j in range(p.profiles):
        rows = np.flatnonzero(component == j)
        malware = round(p.malware_rates[j % 2] * rows.size)
        labels[rng.choice(rows, size=malware, replace=False)] = 1
    scale = rng.gamma(p.row_shape, p.row_scale, size=p.n)
    counts = rng.poisson(rates[component] * scale[:, None])
    ids = [hashlib.sha256(b"row%d-%d" % (seed, i)).hexdigest() for i in range(p.n)]
    return ids, counts, labels


def write_mixture(path: Path, ids, counts: np.ndarray, labels: np.ndarray) -> str:
    """Write the id,label,op_00..op_ff CSV; returns its SHA-256."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"] + [f"op_{i:02x}" for i in range(256)])
        for row_id, label, row in zip(ids, labels.tolist(), counts.tolist()):
            writer.writerow([row_id, label] + row)
    return hashlib.sha256(path.read_bytes()).hexdigest()
