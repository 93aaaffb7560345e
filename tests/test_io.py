"""Snapshot format, report serialization, CSV/SVG writers."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsbox.io import (
    SnapshotError,
    canonical_json,
    content_hash,
    read_snapshot,
    write_report_json,
    write_series_csv,
    write_snapshot,
    write_svg_lines,
    write_windows_csv,
)
from nsbox.solver import FlowState
from nsbox.spectral import PeriodicGrid, random_field

TWO_PI = 2.0 * np.pi


def _state(dim=2, N=12):
    rng = np.random.default_rng(4)
    g = PeriodicGrid(L=TWO_PI, dim=dim, N=N)
    f = random_field(g, g.dim, rng, band=(1, 3), solenoidal=True)
    return FlowState(t=0.75, field=f, mean=np.arange(g.dim, dtype=float) / 10)


class TestSnapshot:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_roundtrip(self, tmp_path, dim):
        state = _state(dim=dim, N=8)
        path = tmp_path / "f.snap"
        write_snapshot(path, state)
        back = read_snapshot(path)
        assert back.t == state.t
        assert np.array_equal(back.mean, state.mean)
        assert np.array_equal(back.field.coeffs, state.field.coeffs)
        header = json.loads(path.read_bytes().split(b"\n", 2)[1])
        assert set(header) == {"L", "dim", "N", "components", "time", "mean"}

    def test_payload_is_the_coefficients(self, tmp_path):
        state = _state(dim=3, N=8)
        path = tmp_path / "f.snap"
        write_snapshot(path, state)
        payload = path.read_bytes().split(b"\n", 3)[3]
        assert payload == state.field.coeffs.astype("<c16").tobytes()

    def test_corrupted_payload_detected(self, tmp_path):
        path = tmp_path / "f.snap"
        write_snapshot(path, _state())
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="checksum"):
            read_snapshot(path)

    def test_not_a_snapshot(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"not a snapshot")
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda h: [h], id="not-an-object"),
        pytest.param(lambda h: {k: v for k, v in h.items() if k != "components"},
                     id="missing-key"),
        pytest.param(lambda h: {**h, "N": h["N"] + 1}, id="odd-N"),
        pytest.param(lambda h: {**h, "mean": h["mean"][:1]}, id="mean-length"),
    ])
    def test_bad_header_detected(self, tmp_path, edit):
        # an edited header fails the checksum; re-signed, it fails the header check
        path = tmp_path / "f.snap"
        write_snapshot(path, _state())
        magic, header, _, payload = path.read_bytes().split(b"\n", 3)
        header = json.dumps(edit(json.loads(header))).encode() + b"\n"
        digest = hashlib.sha256(header + payload).hexdigest().encode()
        path.write_bytes(magic + b"\n" + header + digest + b"\n" + payload)
        with pytest.raises(SnapshotError, match="bad header"):
            read_snapshot(path)


@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("snap") / "f.snap"
    write_snapshot(path, _state(N=8))
    return path


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_changed_byte_is_detected(snapshot_path, data):
    # no single-byte change reads back: any byte changed to any other, with
    # draws weighted towards a hand edit of a header value (a number character
    # in the lines before the payload)
    blob = bytearray(snapshot_path.read_bytes())
    head = sum(len(line) + 1 for line in bytes(blob).split(b"\n", 3)[:3])
    i = data.draw(st.one_of(st.integers(0, head - 1), st.integers(0, len(blob) - 1)),
                  label="offset")
    byte = st.one_of(st.sampled_from(b"0123456789.-e"), st.integers(0, 255))
    blob[i] = data.draw(byte.filter(lambda b: b != blob[i]), label="byte")
    path = snapshot_path.with_name("changed.snap")
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotError):
        read_snapshot(path)


class TestReports:
    def test_canonical_json_handles_nonfinite(self):
        doc = {"a": math.inf, "b": float("nan"), "c": np.float64(1.5), "d": np.bool_(True)}
        parsed = json.loads(canonical_json(doc))
        assert parsed["a"] == "inf"
        assert parsed["b"] == "nan"
        assert parsed["c"] == 1.5
        assert parsed["d"] is True

    def test_content_hash_ignores_timestamp(self):
        a = {"x": 1, "timestamp": 1.0}
        b = {"x": 1, "timestamp": 999.0}
        assert content_hash(a) == content_hash(b)
        assert content_hash({"x": 2}) != content_hash(a)

    def test_report_roundtrip(self, tmp_path):
        path = tmp_path / "r.json"
        write_report_json(path, {"z": [1, 2, 3], "v": math.inf})
        doc = json.loads(path.read_text())
        assert doc["z"] == [1, 2, 3]
        assert doc["v"] == "inf"


class TestCsvSvg:
    def test_series_csv_shortest_roundtrip(self, tmp_path):
        path = tmp_path / "s.csv"
        t = np.array([0.0, 0.1, 0.2])
        val = np.array([1.0, 1.0 / 3.0, 2e-17])
        write_series_csv(path, {"t": t, "v": val})
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,v"
        got = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert np.array_equal(got, val)  # bit-exact via repr round trip

    def test_windows_csv(self, tmp_path):
        from nsbox.experiments import WindowStats

        w = WindowStats(k=0, sup_vs_h1=1.0, sup_vs_h2=2.0, sup_u_l2=0.0, sup_u_h1=0.0,
                        int_vs_h2_sq=0.5, int_vs_h3_sq=0.25, int_u_h1_sq=0.0, int_u_h2_sq=0.0,
                        int_vst_sq=0.0, int_ut_sq=0.0, int_gradp_sq=0.0, int_gradq_sq=0.0)
        path = tmp_path / "w.csv"
        write_windows_csv(path, [w])
        text = path.read_text()
        assert text.startswith("k,sup_vs_h1")
        assert "\n0," in text

    def test_svg_writer(self, tmp_path):
        path = tmp_path / "p.svg"
        xs = np.linspace(0, 1, 11)
        write_svg_lines(path, xs, {"a": xs**2, "b": 1 - xs}, title="demo")
        text = path.read_text()
        assert text.startswith("<svg") and "polyline" in text and "demo" in text
