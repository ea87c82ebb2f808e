"""End-to-end command-line runs: artifacts, determinism, exit codes."""

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
    ],
)
def test_rerun_writes_identical_artifacts(tmp_path, monkeypatch, argv):
    # the determinism promise: same machine, same BLAS threads, same bytes.
    # The output directory is part of the hashed configuration, so both runs
    # write to "." from two different working directories.
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


def test_spectrum_oracle_flag_agrees(tmp_path):
    base = [
        "spectrum",
        "--region", "disc 0 0 1",
        "--grid", "49,0.25",
    ]
    assert main(base + ["--out", str(tmp_path / "fast")]) == 0
    assert main(base + ["--oracle", "--out", str(tmp_path / "slow")]) == 0
    fast = _read_json(tmp_path / "fast" / "summary.json")
    slow = _read_json(tmp_path / "slow" / "summary.json")
    assert fast["lambda1"] == pytest.approx(slow["lambda1"], abs=1e-8)
    assert fast["trace"] == pytest.approx(slow["trace"], abs=1e-8)


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
    lines = (tmp_path / "decay.csv").read_text().splitlines()
    assert lines[1] == "k,lambda,C_fit,ok"
    assert len(lines) > 2
    # every recorded envelope verdict is a pass
    assert all(line.split(",")[3] == "1" for line in lines[2:])


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

    def counted(op):
        calls.append(op.grid.n)
        return tc.eigendecompose(op)

    monkeypatch.setattr("tfconc.cli.eigendecompose", counted)
    monkeypatch.setattr("tfconc.decay.eigendecompose", counted)
    rc = main(["decay", "--window", window, "--region", region, "--out", str(tmp_path)])
    assert rc == 0
    assert len(calls) == solves


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


def test_filter_fixed_point(tmp_path):
    spec_dir = tmp_path / "spec"
    base = ["--region", "disc 0 0 1.5", "--grid", "49,0.25"]
    assert main(["spectrum", *base, "--rank", "1", "--out", str(spec_dir)]) == 0
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


def test_autocorr_defaults(tmp_path):
    rc = main(["autocorr", "--out", str(tmp_path)])
    assert rc == 0
    report = _read_json(tmp_path / "autocorr_report.json")
    assert report["region"] == "rect -0.5 0.5 -0.5 0.5"
    assert report["sigma"] == pytest.approx(tc.SELF_DUAL_SIGMA)
    values = [row["value"] for row in report["values"]]
    assert values == sorted(values)
    assert values[-1] == pytest.approx(0.960607050100629, abs=1e-3)


def test_autocorr_decay_condition(tmp_path):
    rc = main(["autocorr", "--p", "1", "--C", "1", "--out", str(tmp_path)])
    assert rc == 0
    report = _read_json(tmp_path / "autocorr_report.json")
    assert report["decay_condition"]["ok"] is True
    assert len(report["decay_condition"]["margins"]) == 4


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
    cfg.write_text("lambda=0.2\nc=2.5\nmu=0.8\n")
    assert _load_config_file(str(cfg)) == {"lam": "0.2", "bound_c": "2.5", "mu": "0.8"}
    for key in ("lam", "bound_c"):
        cfg.write_text(f"{key}=0.2\n")
        rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert key in capsys.readouterr().err


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
    # a fresh interpreter, so that no earlier test's imports count
    src = os.path.dirname(os.path.dirname(tc.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import sys, tfconc.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_bad_grid_spec(tmp_path):
    rc = main(["spectrum", "--grid", "10x0.1", "--out", str(tmp_path)])
    assert rc == 2


def test_thread_cap_respected(tmp_path, monkeypatch):
    monkeypatch.setenv("TFC_THREADS", "1")
    rc = main(
        [
            "asymptotics",
            "--region", "disc 0 0 1",
            "--scales", "1,1.5,2",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_bad_thread_cap(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("TFC_THREADS", value)
    rc = main(
        [
            "asymptotics",
            "--region", "disc 0 0 1",
            "--scales", "1,1.5,2",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 2
    assert "TFC_THREADS" in capsys.readouterr().err
