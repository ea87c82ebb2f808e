"""Artifact formats: CSV (plot-ready) and JSON summaries.

Every text artifact starts with ``# tfc <version> config=<hash>`` so a stray
file can be traced back to the exact run that produced it.  Floats are written
with 17 significant digits -- lossless for float64 round-trips.  JSON carries
the same version/config as ordinary fields.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import ConfigError
from .grids import _REL_TOL, SampleGrid, Signal

__all__ = [
    "config_hash",
    "write_csv",
    "read_signal_csv",
    "write_signal_csv",
    "write_spectrum_csv",
    "write_scaling_csv",
    "write_decay_csv",
    "write_hermite_csv",
    "write_autocorr_csv",
    "read_mask_csv",
    "write_json",
]


def config_hash(config: dict) -> str:
    """12-hex digest of a flat config mapping, order-independent."""
    canon = "\n".join(f"{k}={config[k]}" for k in sorted(config))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _header(tag: str) -> str:
    return f"# tfc {__version__} config={tag}"


def _cells(values) -> list[str]:
    """One column's cells: bools as 1/0, integers as themselves, everything
    else as float64 with 17 significant digits."""
    col = np.asarray(values)
    if col.dtype == np.bool_:
        return ["1" if v else "0" for v in col.tolist()]
    if np.issubdtype(col.dtype, np.integer):
        return [str(v) for v in col.tolist()]
    return [format(v, ".17g") for v in col.astype(np.float64, copy=False).tolist()]


def _write_columns(path, names, columns, tag: str) -> None:
    """A CSV of equally long data columns, each formatted as a whole."""
    body = map(",".join, zip(*(_cells(col) for col in columns)))
    lines = [_header(tag), ",".join(names), *body]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_csv(path, columns, rows, tag: str = "-") -> None:
    """A CSV with the header line, the ``columns`` names and one line per
    row; the values of each column are formatted together (see
    :func:`_cells`)."""
    _write_columns(path, columns, list(zip(*rows)), tag)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if np.isfinite(value) else None
    return value


def write_json(path, payload: dict, tag: str = "-") -> None:
    body = {"version": __version__, "config": tag, **_jsonable(payload)}
    Path(path).write_text(
        json.dumps(body, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# signals


def write_signal_csv(path, signal: Signal, tag: str = "-") -> None:
    data = (signal.grid.times, signal.samples.real, signal.samples.imag)
    _write_columns(path, ("t", "re", "im"), data, tag)


def _read_rows(
    path, header: tuple[str, str, str], convert
) -> tuple[list[tuple], list[int]]:
    """Data rows of a 3-column CSV, each field passed through ``convert``, and
    the (1-based) line number of each.

    Blank and ``#`` lines are skipped; the first other line must be
    ``header``.  Malformed rows are reported with their line number.
    """
    expected = ",".join(header)
    rows, linenos = [], []
    saw_header = False
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not saw_header:
                if [c.strip().lower() for c in line.split(",")] != list(header):
                    raise ConfigError(
                        f"{path}: row {lineno}: expected header '{expected}', got {line!r}"
                    )
                saw_header = True
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ConfigError(f"{path}: row {lineno}: expected 3 fields, got {len(parts)}")
            try:
                rows.append(tuple(f(part) for f, part in zip(convert, parts)))
                linenos.append(lineno)
            except ValueError as exc:
                raise ConfigError(f"{path}: row {lineno}: {exc}") from exc
    if not saw_header:
        raise ConfigError(f"{path}: missing '{expected}' header")
    return rows, linenos


def read_signal_csv(path) -> Signal:
    """Parse a ``t,re,im`` CSV back into a Signal.

    The time column must be a uniform centered grid; malformed rows, and
    rows with a ``nan`` or infinite field, are reported with their (1-based)
    line number.
    """
    rows, linenos = _read_rows(path, ("t", "re", "im"), (float, float, float))
    if len(rows) < 2:
        raise ConfigError(f"{path}: need at least 2 samples, got {len(rows)}")
    t, res, ims = (np.array(col) for col in zip(*rows))
    bad = np.flatnonzero(~np.isfinite([t, res, ims]).all(axis=0))
    if bad.size:
        raise ConfigError(f"{path}: row {linenos[bad[0]]}: non-finite value")
    n = len(t)
    dt = (t[-1] - t[0]) / (n - 1)
    if dt <= 0 or np.max(np.abs(np.diff(t) - dt)) > _REL_TOL * max(dt, 1.0):
        raise ConfigError(f"{path}: time column is not a uniform increasing grid")
    if abs(t[0] + (n - 1) * dt / 2) > _REL_TOL * max(abs(t[0]), 1.0):
        raise ConfigError(f"{path}: time grid must be centered around 0")
    return Signal(SampleGrid(n, float(dt)), res + 1j * ims)


# ---------------------------------------------------------------------------
# tables


def write_spectrum_csv(path, eigenvalues, tag: str = "-") -> None:
    data = (np.arange(len(eigenvalues)), eigenvalues)
    _write_columns(path, ("k", "lambda"), data, tag)


def write_scaling_csv(path, report, tag: str = "-") -> None:
    rows = (
        (row.r, row.area, row.trace, row.sum_sq, row.n_lambda, row.n_plunge)
        for row in report.rows
    )
    write_csv(path, ("r", "area", "trace", "sum_sq", "n_lambda", "n_plunge"), rows, tag)


def write_decay_csv(path, rows, tag: str = "-") -> None:
    """Rows of (k, lambda, time_ratio, freq_ratio)."""
    write_csv(path, ("k", "lambda", "time_ratio", "freq_ratio"), rows, tag)


def write_hermite_csv(path, rows, tag: str = "-") -> None:
    """Rows of (cluster, overlap, lambda_mean)."""
    write_csv(path, ("cluster", "overlap", "lambda_mean"), rows, tag)


def write_autocorr_csv(path, rows, tag: str = "-") -> None:
    write_csv(path, ("r", "value"), rows, tag)


# ---------------------------------------------------------------------------
# masks


def read_mask_csv(path):
    """Read a ``tau,sigma,inside`` cell list into a Mask region.

    The rows must enumerate a full product lattice (any order), each cell
    once; cell flags are 0 or 1, and any other flag is reported with its line
    number.  A repeated cell is reported with its line number and that of its
    first row.
    """
    from .regions import Mask

    rows, linenos = _read_rows(path, ("tau", "sigma", "inside"), (float, float, float))
    if not rows:
        raise ConfigError(f"{path}: empty mask file")
    taus, sigmas, flags = (np.array(col) for col in zip(*rows))
    bad = np.flatnonzero((flags != 0) & (flags != 1))
    if bad.size:
        k = int(bad[0])
        raise ConfigError(f"{path}: row {linenos[k]}: cell flag {flags[k]:g} is not 0 or 1")
    tau_axis, i = np.unique(taus, return_inverse=True)
    sigma_axis, j = np.unique(sigmas, return_inverse=True)
    cell = i * len(sigma_axis) + j
    _, first, seen = np.unique(cell, return_index=True, return_inverse=True)
    repeats = np.flatnonzero(first[seen] != np.arange(len(cell)))
    if repeats.size:
        k = int(repeats[0])
        raise ConfigError(
            f"{path}: row {linenos[k]}: cell tau={taus[k]:g}, sigma={sigmas[k]:g} "
            f"repeats row {linenos[first[seen[k]]]}"
        )
    if len(tau_axis) * len(sigma_axis) != len(cell):
        raise ConfigError(
            f"{path}: rows do not enumerate a full {len(tau_axis)}x{len(sigma_axis)} lattice"
        )
    inside = np.zeros(len(cell), dtype=bool)
    inside[cell] = flags == 1
    return Mask(tau_axis, sigma_axis, inside.reshape(len(tau_axis), len(sigma_axis)))
