"""The ``tfc`` command: orchestrates experiments, emits plot-ready artifacts.

Subcommands map onto the library one-to-one: ``spectrum`` (assemble and
diagonalize), ``asymptotics`` (scaling sweep plus fits), ``decay``
(regularity checks), ``filter`` (eigenfunction projection of an input
signal), ``autocorr`` (density autocorrelation integrals).  Exit code 2 means
the configuration was rejected, 3 means a numerical invariant broke mid-run.

Each subcommand takes only the options it reads, from flags optionally
backed by a ``key=value`` file whose keys are the flag spellings (flags win).
Every artifact embeds the tool version and a hash of the command and its
option values; ``--out`` says only where the files go and is not hashed.
Identical configurations produce byte-identical files on the same machine,
whatever ``OPENBLAS_NUM_THREADS`` says: each command runs scipy's OpenBLAS on
one thread (``tfconc._blas.one_thread``) and gives the count back on return.
:func:`main` is the only place in the package that sets the BLAS thread count;
every command, the scaling sweep included, runs on the calling thread.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import _blas, io
from ._version import __version__
from .decay import (
    decay_columns,
    fourier_side_check,
    hermite_benchmark,
    kernel_vanishing_check,
    majorant_check,
    splits_cluster,
)
from .errors import ConfigError, NumericalError, TfcError, UnsupportedCaseError
from .grids import SampleGrid, grids_compatible
from .operators import assemble, eigendecompose, eigenfilter, energy
from .regions import Region, parse_region, region_label
from .scaling import (
    _SIGMA,
    auto_grid,
    autocorr_integral,
    decay_condition_margins,
    hs_error_rate,
    plunge_fit,
    scaling_experiment,
)
from .windows import Window, make_window

__all__ = ["main"]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``tfc`` parser, built once per process; each ``parse_args`` call
    fills a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="tfc",
        description="Time-frequency concentration operator toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"tfc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, convert, default, flag_help in options:
            if default is not None:
                flag_help = f"{flag_help} (default: {default})"
            sp.add_argument(
                f"--{flag}",
                dest=flag.lower(),
                type=convert,
                default=argparse.SUPPRESS,
                help=flag_help,
            )
        sp.add_argument("--out", default=".", help="output directory (default: .)")
        sp.add_argument("--config", help="key=value file of the options above; flags win")
    return parser


def _load_config_file(path: str, command: str) -> dict:
    """The option values a ``key=value`` file sets for ``command``; the keys
    are the command's flag spellings, case-insensitive."""
    convert = {flag.lower(): conv for flag, conv, _, _ in _COMMANDS[command][2]}
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in convert:
            raise ConfigError(f"{path}:{lineno}: tfc {command} has no config key {key!r}")
        try:
            values[key] = convert[key](value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: config key {key}: {exc}") from exc
    return values


def _options(args: argparse.Namespace) -> dict:
    """The command's option values: flags, else the config file, else the
    command's defaults."""
    values = {flag.lower(): default for flag, _, default, _ in _COMMANDS[args.command][2]}
    if args.config:
        values.update(_load_config_file(args.config, args.command))
    given = vars(args)
    values.update((key, given[key]) for key in values if key in given)
    return values


def _parse_scales(text: str) -> list[float]:
    try:
        scales = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"bad scales {text!r}: {exc}") from exc
    if not scales:
        raise ConfigError("scales must not be empty")
    for r in scales:
        if not math.isfinite(r):
            raise ConfigError(f"scales must be finite, got {r}")
    return scales


def _parse_window_spec(text: str) -> tuple[str, float, str | None]:
    """``(family, c, csv path)``; ``c`` is pi unless a gaussian names another."""
    head, _, rest = text.strip().partition(":")
    family = head.strip().lower()
    if family == "gaussian":
        raw = rest.strip().lower() or "pi"
        if raw == "pi":
            return "gaussian", math.pi, None
        try:
            c = float(raw)
        except ValueError as exc:
            raise ConfigError(f"bad gaussian parameter {rest!r}") from exc
        if not math.isfinite(c):
            raise ConfigError(f"gaussian parameter must be finite, got {c}")
        if c <= 0:
            raise ConfigError(f"gaussian parameter must be positive, got {c}")
        return "gaussian", c, None
    if family == "triangle":
        return "triangle", math.pi, None
    if family == "custom":
        if not rest:
            raise ConfigError("custom window needs a csv path: custom:<path>")
        return "custom", math.pi, rest
    raise ConfigError(f"unknown window family {head!r}")


def _parse_grid_spec(text: str) -> SampleGrid | None:
    """``auto`` -> None; ``N,dt`` -> explicit grid."""
    if text.strip().lower() == "auto":
        return None
    try:
        n_text, dt_text = text.split(",")
        return SampleGrid(int(n_text), float(dt_text))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad grid spec {text!r} (want 'auto' or 'N,dt'): {exc}") from exc


def _window(opt: dict, grid: SampleGrid | None, region: Region | None = None) -> Window:
    """The ``--window`` spec, built once on ``grid``.

    Without a grid a stock family lands on a grid auto-sized for ``region``
    and a custom window on the grid of its CSV; with one, the CSV's grid must
    be compatible with it.
    """
    family, c, path = _parse_window_spec(opt["window"])
    if family != "custom":
        return make_window(family, grid or auto_grid(family, region, c=c), c=c)
    sig = io.read_signal_csv(path)
    if grid is None:
        grid = sig.grid
    elif not grids_compatible(grid, sig.grid):
        raise ConfigError(
            f"the grid of {path} (n={sig.grid.n}, dt={sig.grid.dt:.17g}) does not "
            f"match the grid in use (n={grid.n}, dt={grid.dt:.17g})"
        )
    return make_window("custom", grid, samples=sig.samples)


def _window_for(opt: dict, region: Region) -> Window:
    """The window on ``--grid``, else on a grid auto-sized for ``region``."""
    return _window(opt, _parse_grid_spec(opt["grid"]), region)


def cmd_spectrum(opt: dict, out: Path, tag: str) -> int:
    if opt["rank"] < 0:
        raise ConfigError(f"spectrum needs --rank >= 0, got {opt['rank']}")
    region = parse_region(opt["region"])
    window = _window_for(opt, region)
    op = assemble(window, region)
    rank = min(opt["rank"], window.grid.n)
    spectrum = eigendecompose(op, vectors=rank)

    io.write_spectrum_csv(out / "spectrum.csv", spectrum.eigenvalues, tag)
    for k in range(rank):
        io.write_signal_csv(out / f"eigfun_{k}.csv", spectrum.eigenfunction(k), tag)
    io.write_json(
        out / "summary.json",
        {
            "window": window.label,
            "region": region_label(region),
            "n": window.grid.n,
            "dt": window.grid.dt,
            "lambda1": float(spectrum.eigenvalues[0]),
            "trace": op.trace,
            "sum_sq": float(np.sum(spectrum.eigenvalues**2)),
            "raster_area": op.raster.area,
            "area": region.area(),
        },
        tag,
    )
    print(
        f"spectrum: n={window.grid.n} cells={op.raster.cell_count} "
        f"lambda1={spectrum.eigenvalues[0]:.6f} trace={op.trace:.6f}"
    )
    return 0


def cmd_asymptotics(opt: dict, out: Path, tag: str) -> int:
    region = parse_region(opt["region"])
    family, c, _ = _parse_window_spec(opt["window"])
    if family == "custom":
        raise ConfigError("scaling sweeps need a stock window family")
    explicit = _parse_grid_spec(opt["grid"])
    report = scaling_experiment(
        family,
        region,
        _parse_scales(opt["scales"]),
        c=c,
        plunge_band=(opt["lambda"], opt["mu"]),
        dt=explicit.dt if explicit is not None else None,
    )
    fits = {
        "plunge": plunge_fit(report),
        "hs_deficit": hs_error_rate(report),
    }

    io.write_scaling_csv(out / "scaling.csv", report, tag)
    io.write_json(out / "fits.json", fits, tag)
    print(
        f"asymptotics: {len(report.rows)} scales, plunge slope "
        f"{fits['plunge']['slope']:.3f} (r2 {fits['plunge']['r2']:.3f})"
    )
    return 0


def cmd_decay(opt: dict, out: Path, tag: str) -> int:
    region = parse_region(opt["region"])
    window = _window_for(opt, region)
    op = assemble(window, region)
    spectrum = eigendecompose(op, vectors=decay_columns(window, region))

    vanish = kernel_vanishing_check(window, op)
    vanish_status = "skipped" if vanish is None else ("pass" if vanish else "fail")
    ratios = majorant_check(spectrum)
    rows = [(k, float(spectrum.clamped[k]), *map(float, r)) for k, r in enumerate(ratios)]
    fourier = fourier_side_check(spectrum, region)

    io.write_decay_csv(out / "decay.csv", rows, tag)
    report = {
        "window": window.label,
        "region": region_label(region),
        "kernel_vanishing": vanish_status,
        "fourier_side": fourier,
        "rows": len(rows),
        "max_time_ratio": float(ratios[:, 0].max(initial=0.0)),
        "max_freq_ratio": float(ratios[:, 1].max(initial=0.0)),
    }

    try:
        bench = hermite_benchmark(spectrum, region)
    except UnsupportedCaseError:  # not the gaussian:pi window on a centred disc
        bench = None
    if bench is not None:
        herm_rows = []
        start = 0
        for idx, (size, overlap) in enumerate(
            zip(bench["cluster_sizes"], bench["overlaps"])
        ):
            lam_mean = float(np.mean(bench["eigenvalues"][start : start + size]))
            herm_rows.append((idx, float(overlap), lam_mean))
            start += size
        io.write_hermite_csv(out / "hermite.csv", herm_rows, tag)
        report["hermite"] = {
            "min_overlap": float(np.min(bench["overlaps"])),
            "decay_slope": bench["decay_slope"],
            "r2": bench["r2"],
        }
    io.write_json(out / "decay_report.json", report, tag)
    print(
        f"decay: kernel vanishing {vanish_status}, "
        f"fourier gap {fourier['max_eigenvalue_gap']:.2e}, {len(rows)} majorant rows, "
        f"largest ratio {report['max_time_ratio']:.3f} (time) "
        f"{report['max_freq_ratio']:.3f} (frequency)"
    )
    return 0


def cmd_filter(opt: dict, out: Path, tag: str) -> int:
    rank = opt["rank"]
    if not opt["input"]:
        raise ConfigError("filter needs --input <signal csv>")
    if rank is None or rank < 1:
        raise ConfigError(f"filter needs --rank >= 1, got {rank}")
    signal = io.read_signal_csv(opt["input"])
    window = _window(opt, signal.grid)
    region = parse_region(opt["region"])
    op = assemble(window, region)
    spectrum = eigendecompose(op, vectors=min(rank, window.grid.n))
    filtered = eigenfilter(signal, spectrum, rank)

    io.write_signal_csv(out / "filtered.csv", filtered, tag)
    io.write_json(
        out / "filter_report.json",
        {
            "rank": rank,
            "rank_splits_cluster": splits_cluster(spectrum.eigenvalues, rank),
            "input_energy": signal.norm**2,
            "output_energy": filtered.norm**2,
            "region_energy_input": energy(signal, op),
            "region_energy_filtered": energy(filtered, op),
        },
        tag,
    )
    print(f"filter: rank={rank} energy {signal.norm**2:.6f} -> {filtered.norm**2:.6f}")
    return 0


def cmd_autocorr(opt: dict, out: Path, tag: str) -> int:
    if (opt["p"] is None) != (opt["c"] is None):
        missing = "--p" if opt["p"] is None else "--C"
        raise ConfigError(f"the decay condition needs both --p and --C; {missing} is missing")
    for flag, key in (("--p", "p"), ("--C", "c")):
        if opt[key] is not None and not math.isfinite(opt[key]):
            raise ConfigError(f"{flag} must be finite, got {opt[key]}")
    q = parse_region(opt["region"])
    scales = _parse_scales(opt["scales"])
    rows = [(r, autocorr_integral(q, r)) for r in scales]

    io.write_autocorr_csv(out / "autocorr.csv", rows, tag)
    report = {
        "region": region_label(q),
        "area": q.area(),
        "sigma": _SIGMA,
        "values": [{"r": r, "value": v} for r, v in rows],
    }
    if opt["p"] is not None:
        margins = decay_condition_margins(opt["p"], opt["c"], scales)
        report["decay_condition"] = {
            "p": opt["p"],
            "C": opt["c"],
            "ok": all(m["ok"] for m in margins),
            "margins": margins,
        }
    io.write_json(out / "autocorr_report.json", report, tag)
    print(f"autocorr: {len(rows)} scales, last value {rows[-1][1]:.6f} (area {q.area():.6f})")
    return 0


_WINDOW = ("window", str, "gaussian:pi", "gaussian:<c|pi> | triangle | custom:<csv>")
_REGION_HELP = (
    "disc cx cy r | rect t0 t1 s0 s1 | poly ... | mask <csv>, in (tau, sigma); "
    "a region at tau concentrates signals at time -tau"
)
_REGION = ("region", str, "disc 0 0 1.5", _REGION_HELP)
_GRID = ("grid", str, "auto", "auto | N,dt")

#: per command: (function, help, options).  Each option is (flag, converter,
#: default, help); its flag spelling, lowercased, is its config-file key and
#: its name in the hashed configuration.  A default of None means unset.
_COMMANDS = {
    "spectrum": (
        cmd_spectrum,
        "assemble the operator and write its spectrum",
        [_WINDOW, _REGION, _GRID, ("rank", int, 0, "eigenfunctions to write")],
    ),
    "asymptotics": (
        cmd_asymptotics,
        "scaling sweep with counting/plunge/deficit fits",
        [
            _WINDOW,
            _REGION,
            ("grid", str, "auto", "auto | N,dt; only dt is read, each scale sizes its own n"),
            ("scales", str, "1,1.5,2,3,4", "comma-separated dilation factors"),
            ("lambda", float, 0.1, "lower end of the plunge band; "
             "n_lambda always counts eigenvalues >= 0.5"),
            ("mu", float, 0.9, "upper end of the plunge band"),
        ],
    ),
    "decay": (cmd_decay, "eigenfunction regularity checks", [_WINDOW, _REGION, _GRID]),
    "filter": (
        cmd_filter,
        "project an input signal onto leading eigenfunctions",
        [
            ("input", str, None, "input signal CSV; its grid is the grid used"),
            ("rank", int, None, "eigenfunction count, at least 1"),
            _WINDOW,
            _REGION,
        ],
    ),
    "autocorr": (
        cmd_autocorr,
        "density autocorrelation integral and decay condition",
        [
            ("region", str, "rect -0.5 0.5 -0.5 0.5", _REGION_HELP),
            ("scales", str, "2,4,8,16", "comma-separated dilation factors"),
            ("p", float, None, "decay-condition exponent"),
            ("C", float, None, "decay-condition constant"),
        ],
    ),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    run = _COMMANDS[args.command][0]
    try:
        opt = _options(args)
        tag = io.config_hash({"command": args.command, **opt})
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with _blas.one_thread():
            return run(opt, out, tag)
    except NumericalError as exc:
        print(f"tfc: numerical error: {exc}", file=sys.stderr)
        return 3
    except TfcError as exc:
        print(f"tfc: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"tfc: invalid value: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"tfc: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
