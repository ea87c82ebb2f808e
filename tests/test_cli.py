"""End-to-end command-line runs: artifacts, determinism, exit codes."""

import ast
import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import tfconc as tc
from tfconc import io as tio
from tfconc.cli import _load_config_file, main


def _read_json(path):
    return json.loads(path.read_text())


def test_spectrum_basic(tmp_path):
    rc = main(
        [
            "spectrum",
            "--window", "gaussian:pi",
            "--region", "disc 0 0 1.5",
            "--grid", "auto",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    summary = _read_json(tmp_path / "summary.json")
    assert 0.9 < summary["lambda1"] <= 1.0 + 1e-8
    assert abs(summary["trace"] - summary["raster_area"]) < 1e-8
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0].startswith("# tfc ")
    assert lines[1] == "k,lambda"
    assert len(lines) == 2 + summary["n"]


def test_spectrum_rejects_zero_radius(tmp_path, capsys):
    rc = main(["spectrum", "--region", "disc 0 0 0", "--out", str(tmp_path)])
    assert rc == 2
    assert "radius" in capsys.readouterr().err


def test_spectrum_rejects_a_negative_rank(tmp_path, capsys):
    rc = main(["spectrum", "--region", "disc 0 0 1", "--rank", "-3", "--out", str(tmp_path)])
    assert rc == 2
    assert "--rank" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_spectrum_deterministic_rerun(tmp_path):
    argv = [
        "spectrum",
        "--window", "gaussian:pi",
        "--region", "disc 0 0 1",
        "--grid", "49,0.25",
        "--out", str(tmp_path),
    ]
    assert main(argv) == 0
    first = {
        name: (tmp_path / name).read_bytes()
        for name in ("spectrum.csv", "summary.json")
    }
    assert main(argv) == 0
    for name, blob in first.items():
        assert (tmp_path / name).read_bytes() == blob


@pytest.mark.parametrize(
    "argv",
    [
        ["autocorr", "--region", "disc 0.1 -0.2 0.6", "--scales", "2,8",
         "--p", "1", "--C", "2.5"],
        ["spectrum", "--region", "disc 0 0 1", "--grid", "49,0.25", "--rank", "3"],
        ["decay", "--window", "triangle", "--region", "disc 0 0 1"],
    ],
)
def test_rerun_writes_identical_artifacts(tmp_path, monkeypatch, argv):
    # the determinism promise: same machine, same BLAS threads, same bytes.
    # Both runs take the same argv and the default output directory ".", each
    # from its own working directory, so the two sets of artifacts sit side
    # by side for comparison without either run naming a path.
    first, second = tmp_path / "first", tmp_path / "second"
    for cwd in (first, second):
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(argv) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert len(names) >= 2
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_artifacts_independent_of_the_blas_thread_count(tmp_path):
    # every command runs scipy's OpenBLAS on one thread, so the count the
    # environment asks for cannot reach the bytes: one process per count
    src = os.path.dirname(os.path.dirname(tc.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    argv = ["spectrum", "--region", "disc 0 0 8", "--rank", "3"]
    outs = [tmp_path / threads for threads in ("1", "2")]
    for out in outs:
        subprocess.run(
            [sys.executable, "-m", "tfconc.cli", *argv, "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=out.name),
            capture_output=True,
            check=True,
            timeout=300,
        )
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert len(names) == 5
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_options_do_not_carry_over_between_calls(tmp_path):
    # the parser is built once per process; each call parses afresh
    base = ["spectrum", "--region", "disc 0 0 1", "--grid", "49,0.25"]
    assert main([*base, "--rank", "2", "--out", str(tmp_path / "ranked")]) == 0
    assert main([*base, "--out", str(tmp_path / "plain")]) == 0
    assert len(list((tmp_path / "ranked").glob("eigfun_*.csv"))) == 2
    assert not list((tmp_path / "plain").glob("eigfun_*.csv"))


def test_out_directory_leaves_the_artifacts_unchanged(tmp_path):
    # the config hash names what was computed, not where it was written
    argv = ["spectrum", "--region", "disc 0 0 1", "--grid", "49,0.25", "--rank", "3"]
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        assert main([*argv, "--out", str(out)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert len(names) == 5
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_spectrum_eigenfunction_export(tmp_path):
    rc = main(
        [
            "spectrum",
            "--region", "disc 0 0 1",
            "--grid", "49,0.25",
            "--rank", "2",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    for k in (0, 1):
        psi = tio.read_signal_csv(tmp_path / f"eigfun_{k}.csv")
        assert psi.norm == pytest.approx(1.0, abs=1e-8)


def test_centred_disc_eigenfunctions_exactly_even_or_odd(tmp_path):
    argv = ["spectrum", "--region", "disc 0 0 1.5", "--rank", "8"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    for k in range(8):
        rows = np.loadtxt(tmp_path / f"eigfun_{k}.csv", delimiter=",", skiprows=2)
        t, re, im = rows.T
        assert np.array_equal(t, -t[::-1])
        assert not im.any()
        assert np.array_equal(re, re[::-1]) or np.array_equal(re, -re[::-1]), k


def test_oversized_explicit_grid_fails_fast(tmp_path, capsys, monkeypatch):
    # exit 2 before rasterizing or allocating: a 60000-sample grid would need
    # 115.2 GB for the matrix and the eigensolver's copy
    def forbidden(*args, **kwargs):
        raise AssertionError("reached past the matrix budget check")

    monkeypatch.setattr("tfconc.operators.rasterize", forbidden)
    monkeypatch.setattr("tfconc.operators._assemble_fast", forbidden)
    argv = ["spectrum", "--region", "disc 0 0 1", "--grid", "60000,0.001"]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "n=60000" in err and "115200000000 bytes" in err
    assert not any(tmp_path.iterdir())


def test_oversized_phase_grid_fails_fast(tmp_path, capsys, monkeypatch):
    # n=5600 passes the matrix budget, but the disc covers 5525 x 5555 cells
    # of its phase grid: exit 2 before any cells-sized array
    from tfconc import regions

    def forbidden(*args, **kwargs):
        raise AssertionError("reached past the raster budget check")

    monkeypatch.setattr(tc.Disc, "contains", forbidden)
    monkeypatch.setattr("tfconc.operators._assemble_fast", forbidden)
    argv = ["spectrum", "--region", "disc 0 0 37", "--grid", "5600,0.0134"]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    cells = 5525 * 5555
    assert f"{cells} cells" in err
    assert f"{regions._LIVE_CELL_ARRAYS * 8 * cells} bytes" in err
    assert not any(tmp_path.iterdir())


def test_asymptotics_run(tmp_path):
    rc = main(
        [
            "asymptotics",
            "--region", "disc 0 0 1",
            "--scales", "1,1.5,2",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    lines = (tmp_path / "scaling.csv").read_text().splitlines()
    assert lines[1] == "r,area,trace,sum_sq,n_lambda,n_plunge"
    assert len(lines) == 5
    fits = _read_json(tmp_path / "fits.json")
    assert math.isfinite(fits["plunge"]["slope"])
    assert fits["plunge"]["rows_used"] >= 2
    assert math.isfinite(fits["hs_deficit"]["rate"])


def test_asymptotics_single_scale(tmp_path, capsys):
    rc = main(
        ["asymptotics", "--region", "disc 0 0 1", "--scales", "2", "--out", str(tmp_path)]
    )
    assert rc == 2
    assert "scales" in capsys.readouterr().err


def test_asymptotics_bad_band(tmp_path):
    rc = main(
        [
            "asymptotics",
            "--region", "disc 0 0 1",
            "--scales", "1,2,3",
            "--lambda", "0.9",
            "--mu", "0.1",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 2


def test_decay_triangle(tmp_path):
    rc = main(
        ["decay", "--window", "triangle", "--region", "disc 0 0 1", "--out", str(tmp_path)]
    )
    assert rc == 0
    report = _read_json(tmp_path / "decay_report.json")
    assert report["kernel_vanishing"] == "pass"
    assert report["fourier_side"]["max_eigenvalue_gap"] < 1e-5
    _assert_majorant_rows(tmp_path)


def _assert_majorant_rows(out):
    """``decay.csv`` holds majorant rows, every ratio in ``(0, 1]``, and the
    report their count and largest ratios."""
    lines = (out / "decay.csv").read_text().splitlines()
    assert lines[1] == "k,lambda,time_ratio,freq_ratio"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    assert len(rows) > 0
    assert np.all(rows[:, 2:] > 0.0) and np.all(rows[:, 2:] <= 1.0)
    report = _read_json(out / "decay_report.json")
    assert report["rows"] == len(rows)
    assert report["max_time_ratio"] == rows[:, 2].max()
    assert report["max_freq_ratio"] == rows[:, 3].max()


def test_decay_gaussian_hermite(tmp_path):
    rc = main(
        [
            "decay",
            "--window", "gaussian:pi",
            "--region", "disc 0 0 1.5",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    report = _read_json(tmp_path / "decay_report.json")
    assert report["kernel_vanishing"] == "skipped"  # gaussian: no compact support
    assert report["hermite"]["min_overlap"] >= 0.99
    assert report["hermite"]["decay_slope"] < 0.0
    lines = (tmp_path / "hermite.csv").read_text().splitlines()
    assert lines[1] == "cluster,overlap,lambda_mean"
    assert len(lines) == 8


@pytest.mark.parametrize(
    "window, region, solves",
    [("gaussian:pi", "disc 0 0 1.5", 2), ("triangle", "disc 0 0 1", 2)],
)
def test_decay_solves_each_operator_once(tmp_path, monkeypatch, window, region, solves):
    # the operator and its Fourier-side twin: one eigensolve each (the Hermite
    # benchmark reads the operator's spectrum)
    calls = []

    def counted(op, vectors=None):
        calls.append(op.grid.n)
        return tc.eigendecompose(op, vectors=vectors)

    monkeypatch.setattr("tfconc.cli.eigendecompose", counted)
    monkeypatch.setattr("tfconc.decay.eigendecompose", counted)
    rc = main(["decay", "--window", window, "--region", region, "--out", str(tmp_path)])
    assert rc == 0
    assert len(calls) == solves


class _ReadColumns(np.ndarray):
    """Eigenvector columns that record which of them their callers index."""

    def __getitem__(self, key):
        cols = key[1] if isinstance(key, tuple) and len(key) > 1 else slice(None)
        self.read.update(np.arange(self.shape[1])[cols].ravel().tolist())
        return np.asarray(self)[key]


def _record_solves(monkeypatch):
    """Patch every CLI-path eigensolve; each solve appends (columns computed,
    set of columns its callers read)."""
    solves = []
    solve = tc.eigendecompose

    def recorded(op, vectors=None):
        spectrum = solve(op, vectors=vectors)
        tracked = spectrum.eigenfunctions.view(_ReadColumns)
        tracked.read = set()
        solves.append((tracked.shape[1], tracked.read))
        return dataclasses.replace(spectrum, eigenfunctions=tracked)

    for module in ("tfconc.cli", "tfconc.decay", "tfconc.scaling"):
        monkeypatch.setattr(f"{module}.eigendecompose", recorded)
    return solves


def _noise_signal(path, n=49, dt=0.25):
    grid = tc.SampleGrid(n, dt)
    rng = np.random.default_rng(42)
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    tio.write_signal_csv(path, tc.Signal(grid, vals))
    return path


@pytest.mark.parametrize(
    "argv, computed",
    [
        (["spectrum", "--region", "disc 0 0 1.5"], [0]),
        (["spectrum", "--region", "disc 0 0 1.5", "--rank", "4"], [4]),
        (["filter", "--region", "disc 0 0 1.5", "--rank", "32"], [32]),
        (["asymptotics", "--region", "disc 0 0 1", "--scales", "1,1.5,2"], [0, 0, 0]),
    ],
    ids=["spectrum", "spectrum-rank-4", "filter-rank-32", "asymptotics-3-scales"],
)
def test_each_command_computes_the_vectors_it_reads(tmp_path, monkeypatch, argv, computed):
    if argv[0] == "filter":
        argv = [*argv, "--input", str(_noise_signal(tmp_path / "noise.csv"))]
    solves = _record_solves(monkeypatch)
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert [cols for cols, _ in solves] == computed
    for cols, read in solves:
        assert read == set(range(cols))


@pytest.mark.parametrize(
    "window, region", [("gaussian:pi", "disc 0 0 1.5"), ("triangle", "disc 0 0 1")]
)
def test_decay_computes_exactly_the_columns_it_reads(tmp_path, monkeypatch, window, region):
    # the operator: envelope rows, Fourier and (gaussian:pi only) Hermite
    # clusters; the twin: the Fourier clusters
    solves = _record_solves(monkeypatch)
    argv = ["decay", "--window", window, "--region", region, "--out", str(tmp_path)]
    assert main(argv) == 0
    assert len(solves) == 2
    for cols, read in solves:
        assert cols > 0
        assert read == set(range(cols))


def test_operator_path_runs_without_numpy_eigensolvers(tmp_path, monkeypatch):
    # the operator path's dense linear algebra runs on scipy's LAPACK only;
    # numpy's own is kept for the test oracles
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called on the operator path")

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    signal = str(_noise_signal(tmp_path / "noise.csv"))
    runs = [
        ["spectrum", "--region", "disc 0 0 1.5", "--rank", "2"],
        ["decay", "--region", "disc 0 0 1.5"],
        ["decay", "--window", "triangle", "--region", "disc 0 0 1"],
        ["filter", "--region", "disc 0 0 1.5", "--rank", "8", "--input", signal],
        ["asymptotics", "--region", "disc 0 0 1", "--scales", "1,1.5,2"],
    ]
    for i, argv in enumerate(runs):
        assert main([*argv, "--out", str(tmp_path / str(i))]) == 0, argv


def _src_trees():
    """(file name, AST) of every module in src/tfconc."""
    src = os.path.dirname(tc.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                yield name, ast.parse(fh.read(), name)


def test_src_has_no_numpy_matrix_products():
    # numpy's matrix products run on numpy's bundled OpenBLAS, whose idle
    # threads starve scipy's on a small host; src/ multiplies through scipy's
    # BLAS, elementwise products or a plain einsum
    hits = []
    for name, tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                hits.append(f"{name}:{node.lineno} @")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")
                and node.func.attr in ("dot", "matmul", "tensordot")
            ):
                hits.append(f"{name}:{node.lineno} np.{node.func.attr}")
    assert hits == []


def test_src_has_no_numpy_linalg_calls():
    # one LAPACK library in src/: every factorization and eigensolve goes
    # through scipy.linalg, none through numpy's bundled copy
    hits = [
        f"{name}:{node.lineno}"
        for name, tree in _src_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "linalg"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    ]
    assert hits == []


def test_src_has_no_worker_pools_or_environment_knobs():
    # scipy's BLAS/LAPACK wrappers hold the GIL, so a pool of threads or
    # processes buys nothing on the operator path; every setting is a flag or
    # a config key, never an environment variable
    pools = ("concurrent.futures", "multiprocessing")
    hits = []
    for name, tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                modules = [f"os.{node.attr}"]
            else:
                continue
            for module in modules:
                if module in ("os.environ", "os.getenv") or any(
                    module == pool or module.startswith(pool + ".") for pool in pools
                ):
                    hits.append(f"{name}:{node.lineno} {module}")
    assert hits == []


@pytest.mark.parametrize("rank, splits", [(3, True), (7, False), (12, False)])
def test_filter_reports_a_rank_inside_a_cluster(tmp_path, rank, splits):
    # disc radius 3: the leading 7 eigenvalues lie within 6e-6 of 1, with
    # gaps below 1e-6 (lambda_k = P(k + 1, 9 pi))
    signal = _noise_signal(tmp_path / "noise.csv", n=121, dt=0.1)
    argv = ["filter", "--region", "disc 0 0 3", "--rank", str(rank), "--input", str(signal)]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert _read_json(tmp_path / "filter_report.json")["rank_splits_cluster"] is splits


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["spectrum", "--region", "disc 0 0 1.5"], 1),
        (["decay", "--region", "disc 0 0 1.5"], 1),
        (["decay", "--window", "triangle", "--region", "disc 0 0 1"], 1),
        (["asymptotics", "--region", "disc 0 0 1",
          "--scales", "1,1.25,1.5,1.75,2,2.25,2.5"], 7),
    ],
    ids=["spectrum", "decay-gaussian", "decay-triangle", "asymptotics-7-scales"],
)
def test_each_window_built_once(tmp_path, monkeypatch, argv, builds):
    # one window per operator: no prototype windows, no rebuilds
    calls = []
    build = tc.make_window

    def counted(*args, **kwargs):
        calls.append(args[0])
        return build(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("tfconc") and hasattr(module, "make_window"):
            monkeypatch.setattr(module, "make_window", counted)
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert len(calls) == builds, calls


def test_asymptotics_rejects_custom_window(tmp_path, capsys):
    # a sweep builds a new grid per scale; a custom window has only its CSV's
    rc = main(["asymptotics", "--window", "custom:win.csv", "--out", str(tmp_path)])
    assert rc == 2
    assert "stock window family" in capsys.readouterr().err


def test_decay_custom_window_skips_vanishing(tmp_path):
    grid = tc.SampleGrid(101, 0.15)
    vals = np.exp(-np.pi * grid.times**2)  # smooth tail: no compact support
    tio.write_signal_csv(tmp_path / "win.csv", tc.Signal(grid, vals.astype(complex)))
    rc = main(
        [
            "decay",
            "--window", f"custom:{tmp_path / 'win.csv'}",
            "--region", "disc 0 0 1",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    report = _read_json(tmp_path / "decay_report.json")
    assert report["kernel_vanishing"] == "skipped"
    # custom windows get majorant rows like the stock ones
    _assert_majorant_rows(tmp_path)


def test_decay_exits_3_over_the_majorant(tmp_path, monkeypatch, capsys):
    # a ratio above 1 is a broken invariant, not a silent row: the leading
    # eigenfunction, moved one time unit, has mass past t = 2, where no
    # shifted triangle of the unit disc reaches
    solve = tc.eigendecompose

    def moved(op, vectors=None):
        spectrum = solve(op, vectors=vectors)
        vecs = spectrum.eigenfunctions.copy()
        vecs[:, 0] = np.roll(vecs[:, 0], round(1.0 / op.grid.dt))
        return dataclasses.replace(spectrum, eigenfunctions=vecs)

    monkeypatch.setattr("tfconc.cli.eigendecompose", moved)
    argv = ["decay", "--window", "triangle", "--region", "disc 0 0 1"]
    assert main([*argv, "--out", str(tmp_path)]) == 3
    assert "time majorant" in capsys.readouterr().err


def test_filter_fixed_point(tmp_path):
    spec_dir = tmp_path / "spec"
    base = ["--region", "disc 0 0 1.5"]
    assert main(
        ["spectrum", *base, "--grid", "49,0.25", "--rank", "1", "--out", str(spec_dir)]
    ) == 0
    rc = main(
        [
            "filter",
            *base,
            "--input", str(spec_dir / "eigfun_0.csv"),
            "--rank", "1",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    psi = tio.read_signal_csv(spec_dir / "eigfun_0.csv")
    out = tio.read_signal_csv(tmp_path / "filtered.csv")
    assert np.max(np.abs(out.samples - psi.samples)) < 1e-8


def test_filter_denoises_white_noise(tmp_path):
    grid = tc.SampleGrid(49, 0.25)
    rng = np.random.default_rng(42)
    vals = rng.standard_normal(49) + 1j * rng.standard_normal(49)
    vals /= np.sqrt(grid.dt * np.sum(np.abs(vals) ** 2))
    tio.write_signal_csv(tmp_path / "noise.csv", tc.Signal(grid, vals))
    rank = math.ceil(math.pi * 1.5**2)
    rc = main(
        [
            "filter",
            "--region", "disc 0 0 1.5",
            "--input", str(tmp_path / "noise.csv"),
            "--rank", str(rank),
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    report = _read_json(tmp_path / "filter_report.json")
    frac_in = report["region_energy_input"] / report["input_energy"]
    frac_out = report["region_energy_filtered"] / report["output_energy"]
    assert frac_out > frac_in


def test_filter_validation(tmp_path, capsys):
    grid = tc.SampleGrid(49, 0.25)
    tio.write_signal_csv(
        tmp_path / "sig.csv", tc.Signal(grid, np.ones(49, dtype=complex))
    )
    rc = main(
        [
            "filter",
            "--input", str(tmp_path / "sig.csv"),
            "--rank", "0",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 2
    rc = main(["filter", "--rank", "1", "--out", str(tmp_path)])
    assert rc == 2  # no input

    (tmp_path / "broken.csv").write_text("t,re,im\n0.0,1.0\n")
    rc = main(
        [
            "filter",
            "--input", str(tmp_path / "broken.csv"),
            "--rank", "1",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 2
    assert "row 2" in capsys.readouterr().err


def _signal_with_nan(path):
    """A 49-sample signal CSV whose 11th sample (line 13) has ``re = nan``."""
    grid = tc.SampleGrid(49, 0.25)
    tio.write_signal_csv(path, tc.Signal(grid, np.exp(-np.pi * grid.times**2) + 0j))
    lines = path.read_text().splitlines()
    t, _, im = lines[12].split(",")
    lines[12] = f"{t},nan,{im}"
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["filter", "--input", "{csv}", "--rank", "1"],
        ["spectrum", "--window", "custom:{csv}", "--region", "disc 0 0 1"],
    ],
    ids=["filter-input", "custom-window"],
)
def test_signal_csv_with_nan_is_refused(tmp_path, capsys, argv):
    # unchecked, filter wrote null energies and spectrum died on an IndexError
    csv = tmp_path / "sig.csv"
    _signal_with_nan(csv)
    out = tmp_path / "out"
    rc = main([*(arg.format(csv=csv) for arg in argv), "--out", str(out)])
    assert rc == 2
    assert "row 13: non-finite value" in capsys.readouterr().err
    assert not any(out.glob("*"))


def test_autocorr_defaults(tmp_path):
    rc = main(["autocorr", "--out", str(tmp_path)])
    assert rc == 0
    report = _read_json(tmp_path / "autocorr_report.json")
    assert report["region"] == "rect -0.5 0.5 -0.5 0.5"
    assert report["sigma"] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi))
    values = [row["value"] for row in report["values"]]
    assert values == sorted(values)
    assert values[-1] == pytest.approx(0.960607050100629, abs=1e-3)


def test_autocorr_decay_condition(tmp_path):
    rc = main(["autocorr", "--p", "1", "--C", "1", "--out", str(tmp_path)])
    assert rc == 0
    report = _read_json(tmp_path / "autocorr_report.json")
    assert report["decay_condition"]["ok"] is True
    assert len(report["decay_condition"]["margins"]) == 4


@pytest.mark.parametrize(
    "p, ok, bound",
    [("2000", False, 0.0), ("-2000", True, None)],
    ids=["overflow", "underflow"],
)
def test_autocorr_decay_condition_past_the_float_range(tmp_path, p, ok, bound):
    # 2**2000 overflows and 2**-2000 underflows to zero: the bound saturates
    # to 0.0 or to inf (written as null), and the verdict comes from logs
    rc = main(["autocorr", "--scales", "2", "--p", p, "--C", "1", "--out", str(tmp_path)])
    assert rc == 0
    condition = _read_json(tmp_path / "autocorr_report.json")["decay_condition"]
    assert condition["ok"] is ok
    assert condition["margins"][0]["bound"] == bound


def _zero_window(path):
    grid = tc.SampleGrid(21, 0.1)
    tio.write_signal_csv(path, tc.Signal(grid, np.zeros(21, dtype=complex)))


def _gauss_window(path):
    grid = tc.SampleGrid(21, 0.25)
    tio.write_signal_csv(path, tc.Signal(grid, np.exp(-np.pi * grid.times**2).astype(complex)))


@pytest.mark.parametrize(
    "argv, write, message",
    [
        (["--window", "triangle", "--grid", "11,0.1"], None,
         "triangle support [-1, 1] does not fit a grid of half-width 0.5"),
        (["--window", "gaussian:0.01", "--grid", "11,0.1"], None,
         "gaussian(c=0.01) keeps 9.124e-01 of its mass outside the grid (edge 0.55); "
         "budget is 1e-12"),
        (["--window", "custom:{csv}"], _zero_window, "custom window samples are all zero"),
        (["--window", "custom:{csv}", "--grid", "41,0.25"], _gauss_window,
         "the grid of {csv} (n=21, dt=0.25) does not match the grid in use "
         "(n=41, dt=0.25)"),
    ],
    ids=["triangle-truncated", "gaussian-truncated", "custom-all-zero", "custom-grid-mismatch"],
)
def test_window_domain_errors_exit_2(tmp_path, capsys, argv, write, message):
    csv = tmp_path / "win.csv"
    if write:
        write(csv)
    out = tmp_path / "out"
    argv = ["spectrum", *(arg.format(csv=csv) for arg in argv), "--region", "disc 0 0 0.5"]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"tfc: {message.format(csv=csv)}\n"
    assert not any(out.glob("*.json"))


@pytest.mark.parametrize(
    "argv, value",
    [
        (["spectrum", "--region", "disc 0 0 inf"], "inf"),
        (["spectrum", "--region", "disc nan 0 1"], "nan"),
        (["autocorr", "--region", "rect 0 inf 0 1"], "inf"),
        (["autocorr", "--region", "poly 0 0 1 0 0 inf"], "inf"),
        (["autocorr", "--region", "mask {mask}"], "inf"),
        (["autocorr", "--scales", "2,inf"], "inf"),
        (["asymptotics", "--scales", "1,nan,2"], "nan"),
        (["spectrum", "--grid", "101,inf"], "inf"),
        (["spectrum", "--window", "gaussian:inf"], "inf"),
        (["spectrum", "--window", "gaussian:nan"], "nan"),
    ],
    ids=["disc-radius", "disc-center", "rect", "poly", "mask", "autocorr-scale",
         "asymptotics-scale", "grid-step", "gaussian-inf", "gaussian-nan"],
)
def test_non_finite_numbers_are_refused(tmp_path, capsys, argv, value):
    mask = tmp_path / "mask.csv"
    mask.write_text("tau,sigma,inside\n0,0,1\ninf,0,1\n")
    argv = [arg.format(mask=mask) for arg in argv]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert f"must be finite, got {value}" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.json"))


@pytest.mark.parametrize(
    "p, C, flag", [("nan", "1", "--p"), ("1", "inf", "--C")], ids=["p-nan", "C-inf"]
)
def test_autocorr_refuses_non_finite_decay_condition(tmp_path, capsys, p, C, flag):
    # unchecked, a nan p writes "bound": null and an infinite C passes every row
    rc = main(["autocorr", "--scales", "2", "--p", p, "--C", C, "--out", str(tmp_path)])
    assert rc == 2
    value = p if flag == "--p" else C
    assert f"{flag} must be finite, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "autocorr_report.json").exists()


@pytest.mark.parametrize("given, missing", [("--p", "--C"), ("--C", "--p")])
def test_autocorr_refuses_half_a_decay_condition(tmp_path, capsys, given, missing):
    rc = main(["autocorr", "--scales", "2", given, "1", "--out", str(tmp_path)])
    assert rc == 2
    assert f"{missing} is missing" in capsys.readouterr().err
    assert not (tmp_path / "autocorr_report.json").exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window=triangle\nregion=disc 0 0 1\ngrid=49,0.25\n")
    rc = main(
        [
            "spectrum",
            "--config", str(cfg),
            "--window", "gaussian:pi",  # explicit flag beats the file
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    summary = _read_json(tmp_path / "summary.json")
    assert summary["window"].startswith("gaussian")
    assert summary["region"] == "disc 0 0 1"


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wobble=3\n")
    rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "wobble" in capsys.readouterr().err


def test_config_file_keys(tmp_path, capsys):
    # the file spells two options as their flags do: lambda and c
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda=0.2\nmu=0.8\n")
    assert _load_config_file(str(cfg), "asymptotics") == {"lambda": 0.2, "mu": 0.8}
    cfg.write_text("c=2.5\n")
    assert _load_config_file(str(cfg), "autocorr") == {"c": 2.5}
    for command, key in (("asymptotics", "lam"), ("autocorr", "bound_c")):
        cfg.write_text(f"{key}=0.2\n")
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--scales", "2"],
        ["filter", "--grid", "101,0.1"],
        ["autocorr", "--window", "triangle"],
        ["decay", "--rank", "3"],
        ["spectrum", "--oracle"],
    ],
    ids=["spectrum-scales", "filter-grid", "autocorr-window", "decay-rank", "spectrum-oracle"],
)
def test_command_refuses_a_flag_it_does_not_read(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, line", [("spectrum", "scales=2"), ("decay", "lambda=0.2")]
)
def test_command_refuses_a_config_key_it_does_not_read(tmp_path, capsys, command, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert repr(line.partition("=")[0]) in capsys.readouterr().err


def test_seed_is_not_an_option(tmp_path, capsys):
    # the program draws no random numbers, so there is no seed to set
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--seed", "3", "--out", str(tmp_path)])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=3\n")
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "seed" in capsys.readouterr().err


def test_cli_import_leaves_out_scipy_signal():
    # a fresh interpreter, so that no earlier test's imports count;
    # scipy.special is loaded by the autocorr routes that call it, not at import
    src = os.path.dirname(os.path.dirname(tc.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import sys, tfconc.cli; "
        "print([m for m in ('scipy.signal', 'scipy.integrate', 'scipy.special') "
        "if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_bad_grid_spec(tmp_path):
    rc = main(["spectrum", "--grid", "10x0.1", "--out", str(tmp_path)])
    assert rc == 2
