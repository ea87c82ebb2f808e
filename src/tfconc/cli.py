"""The ``tfc`` command: orchestrates experiments, emits plot-ready artifacts.

Subcommands map onto the library one-to-one: ``spectrum`` (assemble and
diagonalize), ``asymptotics`` (scaling sweep plus fits), ``decay``
(regularity checks), ``filter`` (eigenfunction projection of an input
signal), ``autocorr`` (density autocorrelation integrals).  Exit code 2 means
the configuration was rejected, 3 means a numerical invariant broke mid-run.

Configuration comes from flags, optionally backed by a ``key=value`` file
(flags win).  Every artifact embeds the tool version and a hash of the
effective configuration.  Identical configurations produce byte-identical
files on the same machine with the same BLAS thread count; a different
thread count can change the last digits of eigenvalues and the basis chosen
inside near-degenerate eigenvalue clusters.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import io
from ._version import __version__
from .decay import (
    PowerLaw,
    StretchedExp,
    decay_check,
    decay_columns,
    envelope_rows,
    fourier_side_check,
    hermite_benchmark,
    kernel_vanishing_check,
    splits_cluster,
)
from .errors import ConfigError, NumericalError, TfcError, UnsupportedCaseError
from .grids import SampleGrid, fourier_transform, grids_compatible
from .operators import assemble, eigendecompose, eigenfilter, energy
from .regions import Region, parse_region, region_label
from .scaling import (
    SELF_DUAL_SIGMA,
    GaussianDensity,
    auto_grid,
    autocorr_integral,
    decay_condition_margins,
    hs_error_rate,
    plunge_fit,
    scaling_experiment,
)
from .windows import Window, make_window

__all__ = ["main"]

#: merged option table: (name, converter, default); defaults of None are
#: filled per command
_OPTIONS = {
    "window": (str, "gaussian:pi"),
    "region": (str, "disc 0 0 1.5"),
    "grid": (str, "auto"),
    "out": (str, "."),
    "scales": (str, None),
    "lam": (float, None),
    "mu": (float, None),
    "epsilon": (float, 0.1),
    "rank": (int, None),
    "input": (str, None),
    "oracle": (lambda s: str(s).strip().lower() in ("1", "true", "yes"), False),
    "sigma": (float, SELF_DUAL_SIGMA),
    "p": (float, None),
    "bound_c": (float, None),
}

#: config-file keys to option names: the flag spelling, except where the
#: option name differs from it
_FILE_KEYS = {{"lam": "lambda", "bound_c": "c"}.get(name, name): name for name in _OPTIONS}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfc",
        description="Time-frequency concentration operator toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"tfc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    specs = {
        "spectrum": "assemble the operator and write its spectrum",
        "asymptotics": "scaling sweep with counting/plunge/deficit fits",
        "decay": "eigenfunction regularity checks",
        "filter": "project an input signal onto leading eigenfunctions",
        "autocorr": "density autocorrelation integral and decay condition",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--window", help="gaussian:<c|pi> | triangle | custom:<csv>")
        sp.add_argument("--region", help="disc cx cy r | rect t0 t1 s0 s1 | poly ... | mask <csv>")
        sp.add_argument("--grid", help="auto | N,dt")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--config", help="key=value file; explicit flags win")
        sp.add_argument("--scales", help="comma-separated dilation factors")
        sp.add_argument(
            "--lambda",
            dest="lam",
            type=float,
            help="lower end of the plunge band (asymptotics, default 0.1); "
            "n_lambda always counts eigenvalues >= 0.5",
        )
        sp.add_argument(
            "--mu",
            type=float,
            help="upper end of the plunge band (asymptotics, default 0.9)",
        )
        sp.add_argument("--epsilon", type=float, help="decay slack exponent")
        sp.add_argument("--rank", type=int, help="eigenfunction count")
        sp.add_argument("--input", help="input signal CSV")
        sp.add_argument(
            "--oracle",
            action="store_const",
            const=True,
            help="use the slow direct-quadrature assembly",
        )
        sp.add_argument(
            "--sigma",
            type=float,
            help="Gaussian density width (default: self-dual exp(-pi r^2))",
        )
        sp.add_argument("--p", type=float, help="decay-condition exponent (autocorr)")
        sp.add_argument(
            "--C", dest="bound_c", type=float, help="decay-condition constant (autocorr)"
        )
        sp.set_defaults(func=_COMMANDS[name])
    return parser


def _load_config_file(path: str) -> dict:
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
        if key not in _FILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[_FILE_KEYS[key]] = value.strip()
    return values


def _merge_config(args: argparse.Namespace) -> None:
    file_values = _load_config_file(args.config) if args.config else {}
    defaulted = set()
    for name, (convert, default) in _OPTIONS.items():
        if getattr(args, name, None) is None:
            if name in file_values:
                try:
                    setattr(args, name, convert(file_values[name]))
                except ValueError as exc:
                    raise ConfigError(f"config key {name}: {exc}") from exc
            else:
                setattr(args, name, default)
                defaulted.add(name)
    args.defaulted = defaulted


def _effective_config(args: argparse.Namespace) -> dict:
    cfg = {"command": args.command}
    for name in _OPTIONS:
        cfg[name] = getattr(args, name)
    return cfg


def _parse_scales(text: str | None, default: str) -> list[float]:
    raw = text if text is not None else default
    try:
        scales = [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"bad scales {raw!r}: {exc}") from exc
    if not scales:
        raise ConfigError("scales must not be empty")
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


def _window(args, grid: SampleGrid | None, region: Region | None = None) -> Window:
    """The ``--window`` spec, built once on ``grid``.

    Without a grid a stock family lands on a grid auto-sized for ``region``
    and a custom window on the grid of its CSV; with one, the CSV's grid must
    be compatible with it.
    """
    family, c, path = _parse_window_spec(args.window)
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


def _window_for(args, region: Region) -> Window:
    """The window on ``--grid``, else on a grid auto-sized for ``region``."""
    return _window(args, _parse_grid_spec(args.grid), region)


def cmd_spectrum(args) -> int:
    region = parse_region(args.region)
    window = _window_for(args, region)
    op = assemble(window, region, oracle=bool(args.oracle))
    rank = max(0, min(args.rank or 0, window.grid.n))
    spectrum = eigendecompose(op, vectors=rank)

    out = Path(args.out)
    io.write_spectrum_csv(out / "spectrum.csv", spectrum.eigenvalues, args.tag)
    for k in range(rank):
        io.write_signal_csv(out / f"eigfun_{k}.csv", spectrum.eigenfunction(k), args.tag)
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
        args.tag,
    )
    print(
        f"spectrum: n={window.grid.n} cells={op.raster.cell_count} "
        f"lambda1={spectrum.eigenvalues[0]:.6f} trace={op.trace:.6f}"
    )
    return 0


def cmd_asymptotics(args) -> int:
    region = parse_region(args.region)
    family, c, _ = _parse_window_spec(args.window)
    if family == "custom":
        raise ConfigError("scaling sweeps need a stock window family")
    scales = _parse_scales(args.scales, "1,1.5,2,3,4")
    lam = args.lam if args.lam is not None else 0.1
    mu = args.mu if args.mu is not None else 0.9
    explicit = _parse_grid_spec(args.grid)
    report = scaling_experiment(
        family,
        region,
        scales,
        c=c,
        plunge_band=(lam, mu),
        dt=explicit.dt if explicit is not None else None,
    )
    fits = {
        "plunge": plunge_fit(report),
        "hs_deficit": hs_error_rate(report),
    }

    out = Path(args.out)
    io.write_scaling_csv(out / "scaling.csv", report, args.tag)
    io.write_json(out / "fits.json", fits, args.tag)
    print(
        f"asymptotics: {len(report.rows)} scales, plunge slope "
        f"{fits['plunge']['slope']:.3f} (r2 {fits['plunge']['r2']:.3f})"
    )
    return 0


def _decay_rows(window: Window, spectrum, region: Region, epsilon: float):
    """Per-eigenfunction envelope checks on the side where decay is nontrivial."""
    t_lo, t_hi, s_lo, s_hi = region.bounding_box()
    rows = []
    keep = range(envelope_rows(spectrum.eigenvalues))
    if window.family == "gaussian":
        gamma = StretchedExp(window.parameter, 2.0)
        t_min = max(abs(t_lo), abs(t_hi)) + window.essential_radius + 1.0
        for k in keep:
            res = decay_check(spectrum.eigenfunction(k), gamma, epsilon, t_min)
            rows.append((k, float(spectrum.clamped[k]), res["C_fit"], res["ok"]))
    elif window.family == "triangle":
        # time side is compactly supported; the frequency side carries the
        # actual decay content (Fejer-type squared-sinc tail)
        gamma = PowerLaw(1.9)
        t_min = max(abs(s_lo), abs(s_hi)) + 2.0
        for k in keep:
            hat = fourier_transform(spectrum.eigenfunction(k))
            res = decay_check(hat, gamma, epsilon, t_min)
            rows.append((k, float(spectrum.clamped[k]), res["C_fit"], res["ok"]))
    return rows


def cmd_decay(args) -> int:
    region = parse_region(args.region)
    window = _window_for(args, region)
    op = assemble(window, region, oracle=bool(args.oracle))
    spectrum = eigendecompose(op, vectors=decay_columns(window, region))

    vanish = kernel_vanishing_check(window, op)
    vanish_status = "skipped" if vanish is None else ("pass" if vanish else "fail")
    rows = _decay_rows(window, spectrum, region, args.epsilon)
    fourier = fourier_side_check(spectrum, region)

    out = Path(args.out)
    io.write_decay_csv(out / "decay.csv", rows, args.tag)
    report = {
        "window": window.label,
        "region": region_label(region),
        "kernel_vanishing": vanish_status,
        "fourier_side": fourier,
        "epsilon": args.epsilon,
        "rows": len(rows),
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
        io.write_hermite_csv(out / "hermite.csv", herm_rows, args.tag)
        report["hermite"] = {
            "min_overlap": float(np.min(bench["overlaps"])),
            "decay_slope": bench["decay_slope"],
            "r2": bench["r2"],
        }
    io.write_json(out / "decay_report.json", report, args.tag)
    print(
        f"decay: kernel vanishing {vanish_status}, "
        f"fourier gap {fourier['max_eigenvalue_gap']:.2e}, {len(rows)} envelope rows"
    )
    return 0


def cmd_filter(args) -> int:
    if not args.input:
        raise ConfigError("filter needs --input <signal csv>")
    if args.rank is None or args.rank < 1:
        raise ConfigError(f"filter needs --rank >= 1, got {args.rank}")
    signal = io.read_signal_csv(args.input)
    window = _window(args, signal.grid)
    region = parse_region(args.region)
    op = assemble(window, region, oracle=bool(args.oracle))
    spectrum = eigendecompose(op, vectors=min(args.rank, window.grid.n))
    filtered = eigenfilter(signal, spectrum, args.rank)

    out = Path(args.out)
    io.write_signal_csv(out / "filtered.csv", filtered, args.tag)
    io.write_json(
        out / "filter_report.json",
        {
            "rank": args.rank,
            "rank_splits_cluster": splits_cluster(spectrum.eigenvalues, args.rank),
            "input_energy": signal.norm**2,
            "output_energy": filtered.norm**2,
            "region_energy_input": energy(signal, window, op.raster),
            "region_energy_filtered": energy(filtered, window, op.raster),
        },
        args.tag,
    )
    print(
        f"filter: rank={args.rank} energy {signal.norm**2:.6f} -> {filtered.norm**2:.6f}"
    )
    return 0


def cmd_autocorr(args) -> int:
    region_text = args.region
    if "region" in args.defaulted:
        region_text = "rect -0.5 0.5 -0.5 0.5"  # unit square, the canonical Q
    q = parse_region(region_text)
    scales = _parse_scales(args.scales, "2,4,8,16")
    density = GaussianDensity(args.sigma)
    rows = [(r, autocorr_integral(density, q, r)) for r in scales]

    out = Path(args.out)
    io.write_autocorr_csv(out / "autocorr.csv", rows, args.tag)
    report = {
        "region": region_label(q),
        "area": q.area(),
        "sigma": args.sigma,
        "values": [{"r": r, "value": v} for r, v in rows],
    }
    if args.p is not None and args.bound_c is not None:
        margins = decay_condition_margins(density, args.p, args.bound_c, scales)
        report["decay_condition"] = {
            "p": args.p,
            "C": args.bound_c,
            "ok": all(m["ok"] for m in margins),
            "margins": margins,
        }
    io.write_json(out / "autocorr_report.json", report, args.tag)
    print(f"autocorr: {len(rows)} scales, last value {rows[-1][1]:.6f} (area {q.area():.6f})")
    return 0


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "asymptotics": cmd_asymptotics,
    "decay": cmd_decay,
    "filter": cmd_filter,
    "autocorr": cmd_autocorr,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args)
        args.tag = io.config_hash(_effective_config(args))
        Path(args.out).mkdir(parents=True, exist_ok=True)
        return args.func(args)
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
