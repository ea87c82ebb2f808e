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


@pytest.mark.parametrize(
    "row", ["0.5,nan,0.0", "0.5,1.0,inf", "0.5,-inf,0.0", "nan,1.0,0.0"],
    ids=["re-nan", "im-inf", "re-minus-inf", "t-nan"],
)
def test_signal_csv_refuses_non_finite_fields(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"t,re,im\n-0.5,1.0,0.0\n{row}\n")
    with pytest.raises(tc.ConfigError, match="row 3: non-finite value"):
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


@pytest.mark.parametrize("flag", [0, 1], ids=["agreeing", "conflicting"])
def test_mask_csv_repeated_cell(tmp_path, flag):
    # four rows fill a 2 x 2 row count, but (0, 0) twice leaves (1, 1) unset
    path = tmp_path / "mask.csv"
    path.write_text(f"tau,sigma,inside\n0,0,1\n0,0,{flag}\n0,1,1\n1,0,1\n")
    with pytest.raises(tc.ConfigError, match="row 3: cell tau=0, sigma=0 repeats row 2"):
        tio.read_mask_csv(path)


def test_mask_csv_repeated_cell_exits_2(tmp_path, capsys):
    from tfconc.cli import main

    path = tmp_path / "mask.csv"
    path.write_text("tau,sigma,inside\n0,0,1\n0,0,1\n0,1,1\n1,0,1\n")
    argv = ["autocorr", "--region", f"mask {path}", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "repeats row 2" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["0.7", "2", "-1"])
def test_mask_csv_flag_not_0_or_1(tmp_path, flag):
    path = tmp_path / "mask.csv"
    path.write_text(f"tau,sigma,inside\n0,0,1\n0,1,0\n1,0,{flag}\n1,1,1.0\n")
    with pytest.raises(tc.ConfigError, match=f"row 4: cell flag {flag} is not 0 or 1"):
        tio.read_mask_csv(path)


def test_mask_csv_flag_not_0_or_1_exits_2(tmp_path, capsys):
    from tfconc.cli import main

    path = tmp_path / "mask.csv"
    path.write_text("tau,sigma,inside\n0,0,1\n0,1,0.7\n1,0,2\n1,1,-1\n")
    argv = ["autocorr", "--region", f"mask {path}", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "row 3: cell flag 0.7 is not 0 or 1" in capsys.readouterr().err


def test_mask_csv_shuffled_lattice(tmp_path, rng):
    taus = 0.5 * np.arange(4)
    sigmas = 0.25 * np.arange(-2, 1)
    inside = rng.random((4, 3)) < 0.5
    cells = [(i, j) for i in range(4) for j in range(3)]
    path = tmp_path / "mask.csv"
    lines = ["tau,sigma,inside"] + [
        f"{taus[i].item()!r},{sigmas[j].item()!r},{int(inside[i, j])}"
        for i, j in (cells[k] for k in rng.permutation(len(cells)))
    ]
    path.write_text("\n".join(lines) + "\n")
    back = tio.read_mask_csv(path)
    assert np.array_equal(back.tau_values, taus)
    assert np.array_equal(back.sigma_values, sigmas)
    assert np.array_equal(back.inside, inside)


def test_scaling_csv(tmp_path):
    row = tc.ScalingRow(
        r=2.0,
        area=4.0,
        raster_area=4.01,
        trace=4.01,
        sum_sq=3.5,
        n_lambda=4,
        n_plunge=2,
        grid_n=101,
    )
    report = tc.ScalingReport((0.1, 0.9), (row,))
    path = tmp_path / "scaling.csv"
    tio.write_scaling_csv(path, report, tag="s")
    lines = path.read_text().splitlines()
    assert lines[1] == "r,area,trace,sum_sq,n_lambda,n_plunge"
    fields = lines[2].split(",")
    assert fields[0] == "2" and fields[4] == "4" and fields[5] == "2"


def _old_fmt(value) -> str:
    """The per-value formatter the CSV writers used before they formatted
    whole columns: the reference the writers must match byte for byte."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _old_csv(columns, rows, tag):
    lines = [f"# tfc {__version__} config={tag}", ",".join(columns)]
    lines += [",".join(_old_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_csv_writers_match_the_per_value_formatter(tmp_path, rng):
    floats = [0.0, -0.0, 1.0, -2.5, 1 / 3, 1e-300, -5e-324, 1.7976931348623157e308,
              float("nan"), float("inf"), -float("inf"), np.float32(0.1), np.float64(2) / 3]
    ints = [0, -1, 7, np.int64(-3), np.int32(12), 2**40, np.uint8(255), 1, 2, 3, 4, 5, 6]
    decay_rows = list(zip(ints, floats, floats[::-1], floats[3:] + floats[:3]))
    path = tmp_path / "decay.csv"
    tio.write_decay_csv(path, decay_rows, tag="x")
    columns = ("k", "lambda", "time_ratio", "freq_ratio")
    assert path.read_text() == _old_csv(columns, decay_rows, "x")

    lam = np.array(floats[:11], dtype=np.float64)
    tio.write_spectrum_csv(path, lam, tag="y")
    assert path.read_text() == _old_csv(("k", "lambda"), enumerate(lam), "y")

    grid = tc.SampleGrid(5, 0.3)
    samples = np.array([0.0, -0.0, np.nan, np.inf, -np.inf]) + 1j * rng.standard_normal(5)
    tio.write_signal_csv(path, tc.Signal(grid, samples), tag="z")
    rows = zip(grid.times, samples.real, samples.imag)
    assert path.read_text() == _old_csv(("t", "re", "im"), rows, "z")

    tio.write_autocorr_csv(path, [], tag="e")
    assert path.read_text() == _old_csv(("r", "value"), [], "e")
