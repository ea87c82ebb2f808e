"""CSV/JSON artifact round-trips and header conventions."""

import json

import numpy as np
import pytest

import tfconc as tc
from tfconc import io as tio
from tfconc._version import __version__

from conftest import random_signal


def test_signal_csv_round_trip(tmp_path, gauss_grid, rng):
    f = random_signal(gauss_grid, rng)
    path = tmp_path / "sig.csv"
    tio.write_signal_csv(path, f, tag="abc123")
    back = tio.read_signal_csv(path)
    assert back.grid.n == gauss_grid.n
    assert back.grid.dt == pytest.approx(gauss_grid.dt, rel=1e-12)
    # 17 significant digits: float64 survives the text round trip exactly
    assert np.array_equal(back.samples, f.samples)


def test_signal_csv_header(tmp_path, gauss_grid, rng):
    path = tmp_path / "sig.csv"
    tio.write_signal_csv(path, random_signal(gauss_grid, rng), tag="deadbeef")
    lines = path.read_text().splitlines()
    assert lines[0] == f"# tfc {__version__} config=deadbeef"
    assert lines[1] == "t,re,im"
    assert len(lines) == 2 + gauss_grid.n


def test_signal_csv_malformed_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,re,im\n0.0,1.0\n")
    with pytest.raises(tc.ConfigError, match="row 2"):
        tio.read_signal_csv(path)

    path.write_text("t,re,im\n-0.5,1.0,0.0\n0.5,oops,0.0\n")
    with pytest.raises(tc.ConfigError, match="row 3"):
        tio.read_signal_csv(path)

    path.write_text("re,t,im\n0.0,1.0,0.0\n")
    with pytest.raises(tc.ConfigError, match="header"):
        tio.read_signal_csv(path)


def test_signal_csv_grid_validation(tmp_path):
    path = tmp_path / "bad.csv"
    # non-uniform time column
    path.write_text("t,re,im\n-1,0,0\n0,0,0\n2,0,0\n")
    with pytest.raises(tc.ConfigError, match="uniform"):
        tio.read_signal_csv(path)
    # uniform but not centered
    path.write_text("t,re,im\n0,0,0\n1,0,0\n2,0,0\n")
    with pytest.raises(tc.ConfigError, match="centered"):
        tio.read_signal_csv(path)


def test_config_hash_stable_and_order_free():
    a = tio.config_hash({"window": "gaussian:pi", "region": "disc 0 0 1"})
    b = tio.config_hash({"region": "disc 0 0 1", "window": "gaussian:pi"})
    assert a == b
    assert len(a) == 12
    assert a != tio.config_hash({"window": "triangle", "region": "disc 0 0 1"})


def test_write_json_structure(tmp_path):
    path = tmp_path / "out.json"
    tio.write_json(
        path,
        {"slope": 1.05, "nan_field": float("nan"), "arr": np.array([1.0, 2.0])},
        tag="cfg",
    )
    body = json.loads(path.read_text())
    assert body["version"] == __version__
    assert body["config"] == "cfg"
    assert body["slope"] == 1.05
    assert body["nan_field"] is None  # non-finite floats serialize as null
    assert body["arr"] == [1.0, 2.0]


def test_spectrum_csv(tmp_path):
    path = tmp_path / "spec.csv"
    tio.write_spectrum_csv(path, np.array([0.9, 0.5, 0.1]), tag="t")
    lines = path.read_text().splitlines()
    assert lines[1] == "k,lambda"
    assert lines[2].startswith("0,0.9")
    assert len(lines) == 5


def test_mask_csv_round_trip(tmp_path):
    taus = 0.5 * np.arange(-2, 3)
    sigmas = 0.25 * np.arange(-1, 2)
    inside = np.zeros((5, 3), dtype=bool)
    inside[1:4, 1] = True
    mask = tc.Mask(taus, sigmas, inside)
    path = tmp_path / "mask.csv"
    lines = ["# tfc test", "tau,sigma,inside"] + [
        f"{tau!r},{sigma!r},{int(inside[i, j])}"
        for i, tau in enumerate(taus.tolist())
        for j, sigma in enumerate(sigmas.tolist())
    ]
    path.write_text("\n".join(lines) + "\n")
    back = tio.read_mask_csv(path)
    assert np.array_equal(back.inside, inside)
    assert np.allclose(back.tau_values, taus)
    assert np.allclose(back.sigma_values, sigmas)
    assert back.area() == pytest.approx(mask.area())


def test_mask_csv_incomplete_lattice(tmp_path):
    path = tmp_path / "mask.csv"
    path.write_text("tau,sigma,inside\n0,0,1\n1,0,1\n1,1,0\n")
    with pytest.raises(tc.ConfigError, match="lattice"):
        tio.read_mask_csv(path)


def test_scaling_csv(tmp_path):
    row = tc.ScalingRow(
        r=2.0,
        area=4.0,
        raster_area=4.01,
        trace=4.01,
        sum_sq=3.5,
        n_lambda=4,
        n_plunge=2,
        eigenvalues=np.array([0.9, 0.8]),
        grid_n=101,
    )
    report = tc.ScalingReport((0.1, 0.9), (row,))
    path = tmp_path / "scaling.csv"
    tio.write_scaling_csv(path, report, tag="s")
    lines = path.read_text().splitlines()
    assert lines[1] == "r,area,trace,sum_sq,n_lambda,n_plunge"
    fields = lines[2].split(",")
    assert fields[0] == "2" and fields[4] == "4" and fields[5] == "2"
