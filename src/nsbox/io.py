"""File formats: field snapshots, trajectory sidecars, CSV/JSON/SVG reports.

Snapshot layout (NSBOXSNAP2): a magic line; one JSON header line
{L, dim, N, components, time, mean}; one line with the hex sha256 of the
header line (newline included) followed by the payload; then the payload,
the field's half-spectrum coefficients as little-endian complex128 in C
order, shape (components, grid.coeff_shape).  A state reads back bit for
bit.  Any changed byte fails the magic, the checksum or the header check, a
data-integrity error on read.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import tempfile

import numpy as np

from nsbox.solver import FlowState
from nsbox.spectral import PeriodicGrid, SpectralField

__all__ = [
    "SnapshotError",
    "write_snapshot",
    "read_snapshot",
    "write_trajectory",
    "write_series_csv",
    "write_windows_csv",
    "write_report_json",
    "write_svg_lines",
    "canonical_json",
    "content_hash",
]

_MAGIC = b"NSBOXSNAP2\n"


class SnapshotError(RuntimeError):
    """Corrupt or mismatched snapshot file."""


def _digest(header: bytes, payload: bytes) -> bytes:
    h = hashlib.sha256(header)
    h.update(payload)
    return h.hexdigest().encode()


def write_snapshot(path, state: FlowState) -> None:
    field = state.field
    header = json.dumps({
        "L": field.grid.L,
        "dim": field.grid.dim,
        "N": field.grid.N,
        "components": field.components,
        "time": state.t,
        "mean": [float(m) for m in state.mean],
    }, sort_keys=True).encode() + b"\n"
    payload = field.coeffs.astype("<c16").tobytes()
    _atomic_write_bytes(path, _MAGIC + header + _digest(header, payload) + b"\n" + payload)


def read_snapshot(path) -> FlowState:
    """The stored state; SnapshotError when the file is not a snapshot, fails
    the checksum, or its header does not describe a state."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(_MAGIC):
        raise SnapshotError(f"{path}: not a field snapshot")
    parts = blob[len(_MAGIC):].split(b"\n", 2)
    if len(parts) < 3:
        raise SnapshotError(f"{path}: truncated header")
    header, digest, payload = parts
    if _digest(header + b"\n", payload) != digest:
        raise SnapshotError(f"{path}: checksum mismatch (corrupt file)")
    try:
        header = json.loads(header)
        if not isinstance(header, dict):
            raise SnapshotError(f"{path}: bad header: not an object")
        grid = PeriodicGrid(L=header["L"], dim=header["dim"], N=header["N"])
        shape = (header["components"],) + grid.coeff_shape
        coeffs = np.frombuffer(payload, dtype="<c16").reshape(shape)
        return FlowState(t=header["time"], field=SpectralField(grid, coeffs),
                         mean=np.asarray(header["mean"], float))
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise SnapshotError(f"{path}: bad header: {exc!r}") from exc


def write_trajectory(outdir, traj, prefix="state") -> None:
    """Snapshot every stored state plus a JSON sidecar of the norm series."""
    os.makedirs(outdir, exist_ok=True)
    for i, st in enumerate(traj.states):
        write_snapshot(os.path.join(outdir, f"{prefix}_{i:04d}.snap"), st)
    sidecar = {
        "times": [st.t for st in traj.states],
        "means": [[float(x) for x in st.mean] for st in traj.states],
        "series": {k: np.asarray(v).tolist() for k, v in traj.series.items()},
    }
    write_report_json(os.path.join(outdir, f"{prefix}_series.json"), sidecar)


def _fmt(x) -> str:
    """Shortest round-trip decimal for floats."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_series_csv(path, series: dict, columns=None) -> None:
    cols = columns or list(series.keys())
    n = len(np.asarray(series[cols[0]]))
    lines = [",".join(cols)]
    arrays = []
    for c in cols:
        a = np.asarray(series[c])
        if a.ndim > 1:
            a = a[:, 0]
        arrays.append(a)
    for i in range(n):
        lines.append(",".join(_fmt(a[i]) for a in arrays))
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())


def write_windows_csv(path, window_stats) -> None:
    """One row per window: the fields of each `WindowStats` record."""
    rows = [dataclasses.asdict(w) for w in window_stats]
    cols = list(rows[0]) if rows else ["k"]
    write_series_csv(path, {c: [r[c] for r in rows] for c in cols})


def _sanitize(obj):
    """JSON-safe conversion; non-finite floats become strings."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    return obj


def canonical_json(doc) -> str:
    return json.dumps(_sanitize(doc), sort_keys=True, indent=2)


def content_hash(doc) -> str:
    """Hash of the document with any volatile timestamp field removed."""
    clean = dict(doc)
    clean.pop("timestamp", None)
    return hashlib.sha256(canonical_json(clean).encode()).hexdigest()


def write_report_json(path, doc) -> None:
    _atomic_write_bytes(path, (canonical_json(doc) + "\n").encode())


def _atomic_write_bytes(path, data: bytes) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_svg_lines(path, xs, series: dict, *, title="", width=720, height=420) -> None:
    """Minimal multi-line SVG plot (no plotting dependency)."""
    xs = np.asarray(xs, dtype=float)
    pad = 50
    keys = list(series.keys())
    ys = [np.asarray(series[k], dtype=float) for k in keys]
    finite = np.concatenate([y[np.isfinite(y)] for y in ys if len(y)]) if ys else np.array([0.0])
    lo, hi = (float(np.min(finite)), float(np.max(finite))) if len(finite) else (0.0, 1.0)
    if hi <= lo:
        hi = lo + 1.0
    x0, x1 = float(xs[0]), float(xs[-1]) if len(xs) > 1 else float(xs[0]) + 1.0

    def px(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def py(y):
        return height - pad - (y - lo) / (hi - lo) * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
        f'<text x="{pad}" y="{height-pad+16}" font-size="11">{x0:.3g}</text>',
        f'<text x="{width-pad}" y="{height-pad+16}" text-anchor="end" font-size="11">{x1:.3g}</text>',
        f'<text x="{pad-4}" y="{height-pad}" text-anchor="end" font-size="11">{lo:.3g}</text>',
        f'<text x="{pad-4}" y="{pad+4}" text-anchor="end" font-size="11">{hi:.3g}</text>',
    ]
    for i, (k, y) in enumerate(zip(keys, ys)):
        pts = " ".join(
            f"{px(xv):.2f},{py(yv):.2f}" for xv, yv in zip(xs, y) if np.isfinite(yv)
        )
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width-pad}" y="{pad + 14*i}" text-anchor="end" font-size="11" '
            f'fill="{color}">{k}</text>'
        )
    parts.append("</svg>")
    _atomic_write_bytes(path, "\n".join(parts).encode())
