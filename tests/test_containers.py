"""Corrupt KHPS1 snapshots and KHPSW1 Wigner maps fail with their module's error."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from khatom.core import SpatialGrid, WaveFunction
from khatom.phasespace import PhaseSpaceError, WignerGrid, read_wigner, write_wigner
from khatom.propagator import PropagatorError, read_snapshot, write_snapshot

_G = SpatialGrid(-20.0, 20.0, 64)
FORMATS = {
    "snapshot": (
        write_snapshot, read_snapshot, PropagatorError,
        WaveFunction(_G, np.exp(-_G.x**2 / 8 + 0.3j * _G.x), 12.5, "kh"),
    ),
    "wigner": (
        write_wigner, read_wigner, PhaseSpaceError,
        WignerGrid(np.linspace(-2.0, 2.0, 5), np.linspace(-1.0, 1.0, 3),
                   np.linspace(-0.3, 0.3, 15).reshape(5, 3), 3.0, "kh"),
    ),
}

# tokens a header field may be mutated into: bad counts, non-finite or
# malformed numbers, unknown frames, non-ascii text, and plausible values
TOKENS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e999", "-4", "0", "2.5", "4.0", "0x10", "1_0",
                     "+8", "zz", "lab", "kh", "é", "64", "5", "3"]),
    st.integers(-(10**30), 10**30).map(str),
    st.floats().map(repr),
    st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=6),
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Pristine bytes of each container, plus a scratch path to write mutants to."""
    root = tmp_path_factory.mktemp("containers")
    out = {}
    for name, (write, _, _, obj) in FORMATS.items():
        path = root / f"ok.{name}"
        write(path, obj)
        out[name] = (path.read_bytes(), root / f"mutant.{name}")
    return out


def _read(name, path, data):
    path.write_bytes(data)
    return FORMATS[name][1](path)


def _split(data):
    head, _, payload = data.partition(b"\n")
    return head.decode("ascii").split(), payload


def _join(fields, payload):
    return " ".join(fields).encode("utf-8") + b"\n" + payload


@pytest.mark.parametrize("name", FORMATS)
def test_pristine_file_reads_back(files, name):
    data, path = files[name]
    obj = _read(name, path, data)
    assert obj.t == FORMATS[name][3].t and obj.frame == "kh"


@pytest.mark.parametrize("name", FORMATS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_truncated_file_rejected(files, name, data):
    raw, path = files[name]
    cut = data.draw(st.integers(0, len(raw) - 1))
    with pytest.raises(FORMATS[name][2]):
        _read(name, path, raw[:cut])


@pytest.mark.parametrize("name", FORMATS)
@settings(max_examples=60, deadline=None)
@given(junk=st.binary(max_size=400), extra=st.binary(min_size=1, max_size=40))
def test_garbage_rejected(files, name, junk, extra):
    raw, path = files[name]
    err = FORMATS[name][2]
    with pytest.raises(err):
        _read(name, path, junk)
    with pytest.raises(err):
        _read(name, path, raw + extra)


@pytest.mark.parametrize("name", FORMATS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_header_field(files, name, data):
    # any mutant either reads as a well-formed object or raises the
    # module's own error; never a bare ValueError or UnicodeDecodeError
    raw, path = files[name]
    fields, payload = _split(raw)
    k = data.draw(st.integers(1, len(fields) - 1))
    fields[k] = data.draw(TOKENS)
    try:
        obj = _read(name, path, _join(fields, payload))
    except FORMATS[name][2]:
        return
    assert np.isfinite(obj.t) and obj.frame in ("lab", "kh")


@pytest.mark.parametrize("name", FORMATS)
def test_non_finite_payload_rejected(files, name):
    raw, path = files[name]
    bad = bytearray(raw)
    bad[-8:] = np.array([np.nan], dtype="<f8").tobytes()
    with pytest.raises(FORMATS[name][2], match="non-finite"):
        _read(name, path, bytes(bad))


@pytest.mark.parametrize(
    "name, k, token, match",
    [
        ("snapshot", 1, "64.0", "positive integers"),
        ("snapshot", 1, "-64", "positive integers"),
        ("snapshot", 1, "48", "bad grid"),  # not a power of two (payload resized below)
        ("snapshot", 4, "nan", "non-finite"),
        ("snapshot", 5, "zz", "unknown frame"),
        ("wigner", 1, "5.0", "positive integers"),
        ("wigner", 1, "-5", "positive integers"),
        ("wigner", 1, "0", "positive integers"),  # a 0 x 3 map
        ("wigner", 7, "nan", "non-finite"),
        ("wigner", 8, "zz", "unknown frame"),
    ],
)
def test_bad_header_fields_named(files, name, k, token, match):
    raw, path = files[name]
    fields, payload = _split(raw)
    fields[k] = token
    if token == "48":
        payload = payload[: 48 * 16]
    elif token == "0":
        payload = b""
    with pytest.raises(FORMATS[name][2], match=match):
        _read(name, path, _join(fields, payload))


@pytest.mark.parametrize("name", FORMATS)
def test_binary_header_and_missing_file(files, name, tmp_path):
    raw, path = files[name]
    err = FORMATS[name][2]
    with pytest.raises(err, match="non-ascii"):
        _read(name, path, b"\xff\xfe\x00KHPS\n" + raw)
    with pytest.raises(err, match="cannot read"):
        FORMATS[name][1](tmp_path / "absent")
