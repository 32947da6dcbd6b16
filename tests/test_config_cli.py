import dataclasses
import json
import pathlib
import re
from types import SimpleNamespace

import numpy as np
import pytest

from msflow import analysis, cli, gmsfem
from msflow.config import _KEYS, generate_inclusions, parse_config
from msflow.errors import ConfigError
from msflow.fine_solver import StepOperators
from msflow.parameters import BoundaryData

from conftest import assert_same_bases, make_params, tiny_heterogeneous

TINY_SWEEP = """
[domain]
bbox = -1 -1 1 1
inclusions = 0.0 0.0 0.35
porosity = 0.3

[mesh]
source = generate
nx = 2
ny = 2
n_per_coarse = 4

[model]
preset = test1
n_steps = 2

[run]
m_list = 5 10 15 20 25
da_list = 1e-5 1e-4 1e-3
seed = 3
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParse:
    def test_preset_test2(self, tmp_path):
        path = write_config(
            tmp_path,
            "[model]\npreset = test2\n[run]\nout = {out}\n".format(
                out=tmp_path / "out"
            ),
        )
        spec = parse_config(path, "fine")
        assert spec.params.reynolds == 10.0
        assert spec.params.forchheimer == 10.0
        assert spec.params.t_max == pytest.approx(0.1)
        assert spec.params.n_steps == 50
        assert spec.params.porosity == pytest.approx(0.3)

    def test_preset_test3(self, tmp_path):
        path = write_config(
            tmp_path,
            f"[model]\npreset = test3\n[run]\nout = {tmp_path/'out'}\n",
        )
        spec = parse_config(path, "fine")
        assert spec.params.reynolds == 100.0
        assert spec.params.forchheimer == 1.0
        assert spec.params.t_max == pytest.approx(1.0)

    def test_malformed_numeric_names_key_and_line(self, tmp_path):
        path = write_config(
            tmp_path, "[model]\npreset = test1\nda = not-a-number\n"
        )
        with pytest.raises(ConfigError, match=r"line 3.*'da'"):
            parse_config(path, "fine")

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, "[model]\nwhatever = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path, "fine")

    def test_unknown_section(self, tmp_path):
        path = write_config(tmp_path, "[nope]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(path, "fine")

    def test_ms_requires_m(self, tmp_path):
        path = write_config(tmp_path, "[model]\npreset = test1\n[run]\n")
        with pytest.raises(ConfigError, match="requires m"):
            parse_config(path, "ms")

    def test_literal_inclusions(self, tmp_path):
        path = write_config(
            tmp_path,
            "[domain]\ninclusions = 0.0 0.0 0.2 ; -0.5 0.4 0.1\n"
            "[model]\npreset = test1\n[run]\n"
            f"out = {tmp_path/'o'}\n",
        )
        spec = parse_config(path, "fine")
        assert len(spec.domain.inclusions) == 2
        assert spec.domain.inclusions[1].radius == pytest.approx(0.1)

    def test_overlapping_literal_inclusions_rejected(self, tmp_path):
        path = write_config(
            tmp_path,
            "[domain]\ninclusions = 0.0 0.0 0.3 ; 0.1 0.0 0.3\n"
            "[model]\npreset = test1\n",
        )
        with pytest.raises(ConfigError, match="overlap"):
            parse_config(path, "fine")


class TestInclusionGenerator:
    def test_deterministic(self):
        a = generate_inclusions((-1, -1, 1, 1), 8, 0.05, 0.12, seed=5)
        b = generate_inclusions((-1, -1, 1, 1), 8, 0.05, 0.12, seed=5)
        assert [(i.cx, i.cy, i.radius) for i in a] == [(i.cx, i.cy, i.radius) for i in b]

    def test_seed_changes_layout(self):
        a = generate_inclusions((-1, -1, 1, 1), 8, 0.05, 0.12, seed=5)
        b = generate_inclusions((-1, -1, 1, 1), 8, 0.05, 0.12, seed=6)
        assert [(i.cx, i.cy) for i in a] != [(i.cx, i.cy) for i in b]

    def test_no_overlap(self):
        incs = generate_inclusions((-1, -1, 1, 1), 12, 0.05, 0.15, seed=2)
        assert len(incs) == 12
        for i, a in enumerate(incs):
            for b in incs[i + 1 :]:
                assert np.hypot(a.cx - b.cx, a.cy - b.cy) > a.radius + b.radius

    def test_impossible_packing_reported(self):
        with pytest.raises(ConfigError, match="inclusion"):
            generate_inclusions((0, 0, 1, 1), 3, 0.4, 0.45, seed=0)


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep_out")
    cfg_dir = tmp_path_factory.mktemp("sweep_cfg")
    path = cfg_dir / "sweep.cfg"
    path.write_text(TINY_SWEEP + f"out = {out}\n")
    status = cli.main(["sweep", "--config", str(path)])
    assert status == 0
    return out


class TestSweep:
    def test_csv_files_and_layout(self, sweep_run):
        files = sorted(p.name for p in sweep_run.glob("errors_da_*.csv"))
        assert files == ["errors_da_0.0001.csv", "errors_da_0.001.csv", "errors_da_1e-05.csv"]
        for f in sweep_run.glob("errors_da_*.csv"):
            lines = f.read_text().strip().splitlines()
            assert lines[0] == "M,DOF_H,e_u_plain,e_s_plain,e_p_plain,e_u_os,e_s_os,e_p_os"
            assert len(lines) == 6
            ms = [int(row.split(",")[0]) for row in lines[1:]]
            assert ms == [5, 10, 15, 20, 25]
            dofs = [int(row.split(",")[1]) for row in lines[1:]]
            assert dofs == [24, 44, 64, 84, 104]  # (m + 1) * 4 coarse cells

    def test_errors_decrease_with_m(self, sweep_run):
        f = sweep_run / "errors_da_0.001.csv"
        rows = [r.split(",") for r in f.read_text().strip().splitlines()[1:]]
        e_u = [float(r[2]) for r in rows]
        assert e_u[-1] < e_u[0]


def test_sweep_determinism(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    small = TINY_SWEEP.replace("m_list = 5 10 15 20 25", "m_list = 3 5").replace(
        "da_list = 1e-5 1e-4 1e-3", "da_list = 1e-3"
    )
    cfg.write_text(small + f"out = {out1}\n")
    assert cli.main(["sweep", "--config", str(cfg)]) == 0
    cfg.write_text(small + f"out = {out2}\n")
    assert cli.main(["sweep", "--config", str(cfg)]) == 0
    a = (out1 / "errors_da_0.001.csv").read_bytes()
    b = (out2 / "errors_da_0.001.csv").read_bytes()
    assert a == b


def test_fine_mode_without_inclusions(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        "[domain]\nbbox = -1 -1 1 1\ninclusions = none\n"
        "[mesh]\nnx = 2\nny = 2\nn_per_coarse = 3\n"
        "[model]\npreset = test1\nn_steps = 2\n"
        f"[run]\nout = {out}\n",
    )
    assert cli.main(["fine", "--config", str(cfg)]) == 0
    stats = json.loads((out / "fine_stats.json").read_text())
    assert stats["statistics"]["porous"] is None
    assert stats["max_div_residual"] < 1e-9
    assert (out / "fine.vtk").exists()


def test_mesh_mode_and_compare_self(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        "[domain]\nbbox = -1 -1 1 1\ninclusions = 0.0 0.0 0.3\n"
        "[mesh]\nnx = 2\nny = 2\nn_per_coarse = 3\n"
        "[model]\npreset = test1\nn_steps = 2\n"
        f"[run]\nout = {out}\n",
    )
    assert cli.main(["mesh", "--config", str(cfg)]) == 0
    assert (out / "mesh.txt").exists()
    assert cli.main(["fine", "--config", str(cfg)]) == 0
    fine_vtk = out / "fine.vtk"
    cfg2 = write_config(
        tmp_path,
        "[domain]\nbbox = -1 -1 1 1\ninclusions = 0.0 0.0 0.3\n"
        "[mesh]\nnx = 2\nny = 2\nn_per_coarse = 3\n"
        "[model]\npreset = test1\nn_steps = 2\n"
        f"[run]\nreference = {fine_vtk}\nother = {fine_vtk}\n"
        f"out = {out}\n",
        name="cmp.cfg",
    )
    assert cli.main(["compare", "--config", str(cfg2)]) == 0
    result = json.loads((out / "compare.json").read_text())
    assert result["e_u_percent"] == 0.0
    assert result["e_p_percent"] == 0.0


@pytest.mark.parametrize("mode", ["compare", "ms"])
def test_reference_from_another_mesh_names_the_file(tmp_path, capsys, monkeypatch, mode):
    out = tmp_path / "out"
    mesh_block = "[mesh]\nnx = 2\nny = 2\nn_per_coarse = {}\n"
    head = "[domain]\ninclusions = 0.0 0.0 0.3\n[model]\npreset = test1\nn_steps = 2\n"
    cfg = write_config(tmp_path, head + mesh_block.format(2) + f"[run]\nout = {out}\n")
    assert cli.main(["fine", "--config", str(cfg)]) == 0
    coarse_vtk = out / "fine.vtk"  # 32 cells; the runs below have 72
    run = f"[run]\nreference = {coarse_vtk}\nother = {coarse_vtk}\nm_list = 4\nout = {out}\n"
    cfg = write_config(tmp_path, head + mesh_block.format(3) + run, name=f"{mode}.cfg")

    def no_basis(*args, **kwargs):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(gmsfem, "compute_linearization_field", no_basis)
    monkeypatch.setattr(gmsfem, "build_multiscale_space", no_basis)
    capsys.readouterr()
    assert cli.main([mode, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"error: {coarse_vtk}: velocity has 192 coefficients, expected 432" in err
    assert not list(out.glob("ms_*"))


@pytest.mark.parametrize("mode", ["compare", "ms"])
def test_reference_from_another_mesh_of_the_same_size_names_the_file(
    tmp_path, capsys, monkeypatch, mode
):
    out = tmp_path / "out"
    tail = "[mesh]\nnx = 2\nny = 2\nn_per_coarse = 3\n[model]\npreset = test1\nn_steps = 2\n"
    domain = "[domain]\nbbox = -1 -1 1 1\ninclusions = 0 0 0.3\n"
    cfg = write_config(tmp_path, domain + tail + f"[run]\nout = {out}\n")
    assert cli.main(["fine", "--config", str(cfg)]) == 0
    fine_vtk = out / "fine.vtk"  # 72 cells, as the runs below have, on another box
    domain = "[domain]\nbbox = -2 -2 2 2\ninclusions = 0.5 0.5 0.3\n"
    run = f"[run]\nreference = {fine_vtk}\nother = {fine_vtk}\nm_list = 4\nout = {out}\n"
    cfg = write_config(tmp_path, domain + tail + run, name=f"{mode}.cfg")

    def no_basis(*args, **kwargs):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(gmsfem, "compute_linearization_field", no_basis)
    monkeypatch.setattr(gmsfem, "build_multiscale_space", no_basis)
    capsys.readouterr()
    assert cli.main([mode, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {fine_vtk}: points differ from this run's mesh"]
    assert not list(out.glob("ms_*")) and not (out / "compare.json").exists()


def test_ms_mode_writes_reports(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        "[domain]\nbbox = -1 -1 1 1\ninclusions = 0.0 0.0 0.35\n"
        "[mesh]\nnx = 2\nny = 2\nn_per_coarse = 3\n"
        "[model]\npreset = test1\nn_steps = 2\n"
        f"[run]\nm_list = 4\noversampled = false\nout = {out}\n",
    )
    assert cli.main(["ms", "--config", str(cfg)]) == 0
    report = json.loads((out / "ms_report_m4.json").read_text())
    assert report["dof_multiscale"] == 5 * 4
    assert report["e_u_percent"] >= 0.0
    assert (out / "ms_m4.vtk").exists()


def test_invalid_thread_count_exits_with_config_status(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MSFLOW_THREADS", "abc")
    cfg = write_config(
        tmp_path,
        "[domain]\nbbox = -1 -1 1 1\ninclusions = 0.0 0.0 0.35\n"
        "[mesh]\nnx = 2\nny = 2\nn_per_coarse = 3\n"
        "[model]\npreset = test1\nn_steps = 2\n"
        f"[run]\nm_list = 4\nout = {tmp_path / 'out'}\n",
    )
    assert cli.main(["ms", "--config", str(cfg)]) == 2
    assert "MSFLOW_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode, run, message",
    [
        ("sweep", "m_list = 2 40", "basis size 40 exceeds the 16 snapshots of coarse cell 0 (patch)"),
        ("ms", "m_list = 17\noversampled = false", "basis size 17 exceeds the 16 snapshots"),
        ("ms", "m_list = 33\noversampled = true", "basis size 33 exceeds the 32 snapshots"),
    ],
    ids=["sweep", "ms_plain", "ms_oversampled"],
)
def test_basis_size_above_the_snapshot_count_exits_before_any_solve(
    tmp_path, monkeypatch, capsys, mode, run, message
):
    # two fine facets per coarse side: 8 facets and 16 snapshots on a plain
    # patch, 16 facets and 32 snapshots on the oversampled (whole) domain
    def no_solve(*args, **kwargs):
        raise AssertionError("the fine reference ran")

    monkeypatch.setattr(cli, "run_fine", no_solve)
    cfg = write_config(
        tmp_path,
        "[domain]\nbbox = -1 -1 1 1\ninclusions = 0.0 0.0 0.35\n"
        "[mesh]\nnx = 2\nny = 2\nn_per_coarse = 2\n"
        "[model]\npreset = test1\nn_steps = 2\n"
        f"[run]\n{run}\nda_list = 1e-3\nout = {tmp_path / 'out'}\n",
    )
    assert cli.main([mode, "--config", str(cfg)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_basis_size_above_the_kept_rank_exits_with_config_status(tmp_path, monkeypatch, capsys):
    # 32 snapshots per oversampled cell, of which the rank filter keeps 27;
    # the offline build finds that before the fine reference runs
    def no_reference(*args, **kwargs):
        raise AssertionError("the fine reference ran")

    monkeypatch.setattr(cli, "run_fine", no_reference)
    cfg = write_config(
        tmp_path,
        "[domain]\nbbox = -1 -1 1 1\ninclusions = 0.0 0.0 0.35\n"
        "[mesh]\nnx = 2\nny = 2\nn_per_coarse = 2\n"
        "[model]\npreset = test1\nn_steps = 2\n"
        f"[run]\nm_list = 30\noversampled = true\nout = {tmp_path / 'out'}\n",
    )
    with pytest.warns(RuntimeWarning, match="keeping 27 of 32"):
        assert cli.main(["ms", "--config", str(cfg)]) == 2
    message = "basis size 30 exceeds the 27 modes kept of the 32 snapshots of coarse cell 0"
    assert f"error: {message}" in capsys.readouterr().err


def test_ms_mode_with_basis_cache_reuses_results(tmp_path):
    cache = tmp_path / "cache"
    text = (
        "[domain]\nbbox = -1 -1 1 1\ninclusions = 0.0 0.0 0.35\n"
        "[mesh]\nnx = 2\nny = 2\nn_per_coarse = 3\n"
        "[model]\npreset = test1\nn_steps = 2\n"
        "[run]\nm_list = 4\noversampled = false\n"
        f"basis_cache = {cache}\nout = {{out}}\n"
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = tmp_path / "ms.cfg"
    cfg.write_text(text.format(out=out1))
    assert cli.main(["ms", "--config", str(cfg)]) == 0
    assert any(cache.glob("basis_*.npz"))
    cfg.write_text(text.format(out=out2))
    assert cli.main(["ms", "--config", str(cfg)]) == 0
    r1 = json.loads((out1 / "ms_report_m4.json").read_text())
    r2 = json.loads((out2 / "ms_report_m4.json").read_text())
    assert r1 == r2


def test_cli_reports_config_errors(tmp_path, capsys):
    cfg = write_config(tmp_path, "[model]\nda = oops\npreset = test1\n")
    status = cli.main(["fine", "--config", str(cfg)])
    assert status == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key", [("mesh", "nx"), ("mesh", "ny"), ("mesh", "n_per_coarse"), ("model", "n_steps")]
)
def test_cli_rejects_counts_below_one(tmp_path, capsys, section, key):
    cfg = write_config(
        tmp_path,
        f"[model]\npreset = test1\n[{section}]\n{key} = 0\n"
        f"[run]\nout = {tmp_path / 'out'}\n",
    )
    with pytest.raises(ConfigError, match=f"line 4: key '{key}': must be at least 1, got 0"):
        parse_config(cfg, "fine")
    assert cli.main(["fine", "--config", str(cfg)]) == 2
    assert f"error: line 4: key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("run", "da_list", "1e-3 nan"),
        ("model", "da", "inf"),
        ("model", "re", "nan"),
        ("domain", "bbox", "0 0 1 -inf"),
        ("domain", "porosity", "nan"),
        ("domain", "radius_min", "inf"),
        ("domain", "radius_max", "nan"),
        ("model", "forchheimer", "-inf"),
        ("model", "t_max", "inf"),
        ("model", "gamma", "nan"),
        ("bc", "inflow", "1 nan"),
    ],
)
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, section, key, value):
    cfg = write_config(
        tmp_path,
        f"[model]\npreset = test1\n[{section}]\n{key} = {value}\n"
        f"[run]\nm_list = 2\nout = {tmp_path / 'out'}\n",
    )
    bad = value.split()[-1]
    with pytest.raises(ConfigError, match=f"line 4: key '{key}': not a finite number: '{bad}'"):
        parse_config(cfg, "sweep")
    assert cli.main(["sweep", "--config", str(cfg)]) == 2
    assert f"error: line 4: key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value, bad", [("1e-3 -1", "-1"), ("0", "0")])
def test_cli_rejects_darcy_list_values_below_zero(tmp_path, capsys, value, bad):
    cfg = write_config(
        tmp_path,
        f"[model]\npreset = test1\n[run]\nda_list = {value}\n"
        f"m_list = 2\nout = {tmp_path / 'out'}\n",
    )
    with pytest.raises(ConfigError, match=f"line 4: key 'da_list': must be positive, got {bad}"):
        parse_config(cfg, "sweep")
    assert cli.main(["sweep", "--config", str(cfg)]) == 2
    assert "error: line 4: key 'da_list': must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "keys, message",
    [
        ("radius_min = 0\nradius_max = 0.1", "line 5: key 'radius_min': must be positive, got 0"),
        ("radius_min = 0.2\nradius_max = 0.1", "line 6: key 'radius_max': 0.1 is below radius_min 0.2"),
        ("n_inclusions = -3", "line 5: key 'n_inclusions': must be at least 0, got -3"),
        ("radius_min = 1\nradius_max = 2", "inclusion radius too large for the domain"),
    ],
    ids=["radius_min_zero", "radius_range_inverted", "negative_count", "radius_too_large"],
)
def test_cli_rejects_bad_random_inclusions(tmp_path, capsys, keys, message):
    cfg = write_config(
        tmp_path,
        f"[model]\npreset = test1\n[domain]\ninclusions = random\n{keys}\n"
        f"[run]\nout = {tmp_path / 'out'}\n",
    )
    with pytest.raises(ConfigError, match=message):
        parse_config(cfg, "fine")
    assert cli.main(["fine", "--config", str(cfg)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body", ["vertices x\n", "vertices 3\n0 0.0 0.0\n"])
def test_cli_reports_mesh_file_errors(tmp_path, capsys, body):
    mesh = tmp_path / "bad_mesh.txt"
    mesh.write_text("msflow-mesh v1\ncoarse 1 1\n" + body)
    cfg = write_config(
        tmp_path,
        f"[mesh]\nsource = load\npath = {mesh}\n"
        f"[model]\npreset = test1\nn_steps = 2\n[run]\nout = {tmp_path / 'out'}\n",
    )
    assert cli.main(["fine", "--config", str(cfg)]) == 2
    assert f"error: {mesh}:" in capsys.readouterr().err


def test_space_provider_builds_or_loads_once_per_flag(tmp_path, monkeypatch):
    mesh, coarse = tiny_heterogeneous(n=2)
    params = make_params(n_steps=1)
    bc = BoundaryData.inflow((1.0, 0.0))
    spec = SimpleNamespace(basis_cache=str(tmp_path / "cache"), m_list=[2, 4, 3], bc=bc)
    ops = StepOperators(mesh, params, bc)
    calls = []

    def record(name):
        original = getattr(gmsfem, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(gmsfem, name, wrapper)

    record("build_multiscale_space")
    record("load_space")

    def spaces():
        space = cli._spaces(spec, mesh, coarse, params, (False,), ops)[False]
        assert space.m == 4
        return [gmsfem.resize_space(space, mesh, coarse, m) for m in (2, 3, 4)]

    built = spaces()
    assert calls == ["load_space", "build_multiscale_space"]  # a miss, one build at m_max
    loaded = spaces()
    assert calls == ["load_space", "build_multiscale_space", "load_space"]
    for a, b in zip(built, loaded):
        assert a.m == b.m and np.array_equal(a.r_u.toarray(), b.r_u.toarray())
    assert_same_bases(loaded[-1].cell_bases, built[-1].cell_bases)


TINY_MS = (
    "[domain]\nbbox = -1 -1 1 1\ninclusions = 0.0 0.0 0.35\n"
    "[mesh]\nnx = 2\nny = 2\nn_per_coarse = {n}\n"
    "[model]\npreset = test1\nn_steps = 2\nda = 1e-3\n"
    "[run]\n{run}\nout = {out}\n"
)
ZERO_INFLOW = "[bc]\ninflow = 0 0\n"


@pytest.mark.parametrize("mode", ["ms", "sweep"])
def test_basis_cache_that_is_a_file_exits_before_any_basis(tmp_path, monkeypatch, capsys, mode):
    cache = tmp_path / "cache"
    cache.write_text("not a directory\n")
    out = tmp_path / "out"
    run = f"m_list = 4\nbasis_cache = {cache}"
    cfg = write_config(tmp_path, TINY_MS.format(n=3, run=run, out=out))

    def no_basis(*args, **kwargs):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(gmsfem, "compute_linearization_field", no_basis)
    monkeypatch.setattr(gmsfem, "build_multiscale_space", no_basis)
    message = f"line 14: key 'basis_cache': not a directory: {cache}"
    with pytest.raises(ConfigError, match=message):
        parse_config(cfg, mode)
    assert cli.main([mode, "--config", str(cfg)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not list(out.glob("*"))


def _no_call(*args, **kwargs):
    raise AssertionError("called after the reference was known to be zero")


@pytest.mark.parametrize("mode", ["ms", "sweep"])
def test_zero_reference_names_the_run(tmp_path, monkeypatch, capsys, mode):
    # a computed reference is checked before the first online run
    run = "m_list = 4\nda_list = 1e-3"
    cfg = write_config(tmp_path, TINY_MS.format(n=2, run=run, out=tmp_path / "out") + ZERO_INFLOW)
    monkeypatch.setattr(gmsfem, "run_multiscale", _no_call)
    capsys.readouterr()
    assert cli.main([mode, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: Da=0.001: reference velocity norm is zero"]


def test_zero_loaded_reference_fails_before_any_space(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, TINY_MS.format(n=2, run="", out=out) + ZERO_INFLOW)
    assert cli.main(["fine", "--config", str(cfg)]) == 0
    run = f"m_list = 4\nreference = {out / 'fine.vtk'}"
    cfg = write_config(tmp_path, TINY_MS.format(n=2, run=run, out=out) + ZERO_INFLOW, name="ms.cfg")
    for name in ("load_space", "compute_linearization_field", "build_multiscale_space"):
        monkeypatch.setattr(gmsfem, name, _no_call)
    capsys.readouterr()
    assert cli.main(["ms", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: Da=0.001: reference velocity norm is zero"]


def test_zero_reference_compare_names_both_files(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, TINY_MS.format(n=2, run="", out=out) + ZERO_INFLOW)
    assert cli.main(["fine", "--config", str(cfg)]) == 0
    fine_vtk = out / "fine.vtk"
    run = f"reference = {fine_vtk}\nother = {fine_vtk}"
    cfg = write_config(tmp_path, TINY_MS.format(n=2, run=run, out=out), name="cmp.cfg")
    capsys.readouterr()
    assert cli.main(["compare", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"error: {fine_vtk} against {fine_vtk}: reference velocity norm is zero"
    ]
    assert not (out / "compare.json").exists()


def test_ms_and_sweep_give_the_same_errors(tmp_path):
    ms_out, sweep_out = tmp_path / "ms", tmp_path / "sweep"
    ms_cfg = write_config(
        tmp_path,
        TINY_MS.format(n=3, run="m_list = 4\noversampled = false", out=ms_out),
        name="ms.cfg",
    )
    sweep_cfg = write_config(
        tmp_path,
        TINY_MS.format(n=3, run="m_list = 4\nda_list = 1e-3", out=sweep_out),
        name="sweep.cfg",
    )
    assert cli.main(["ms", "--config", str(ms_cfg)]) == 0
    assert cli.main(["sweep", "--config", str(sweep_cfg)]) == 0
    report = json.loads((ms_out / "ms_report_m4.json").read_text())
    header, row = (sweep_out / "errors_da_0.001.csv").read_text().splitlines()
    plain = dict(zip(header.split(","), row.split(",")))
    assert row.startswith("4,")
    for key in ("e_u", "e_s", "e_p"):
        assert f"{report[key + '_percent']:.6f}" == plain[key + "_plain"]


def test_sweep_builds_one_step_operators_per_darcy_value(tmp_path, monkeypatch):
    darcy_values = []
    init = cli.StepOperators.__init__

    def counting_init(self, mesh, params, *args, **kwargs):
        darcy_values.append(params.darcy)
        init(self, mesh, params, *args, **kwargs)

    monkeypatch.setattr(cli.StepOperators, "__init__", counting_init)
    run = "m_list = 2 4\nda_list = 1e-4 1e-3"
    cfg = write_config(tmp_path, TINY_MS.format(n=2, run=run, out=tmp_path / "out"))
    assert cli.main(["sweep", "--config", str(cfg)]) == 0
    assert darcy_values == [1e-4, 1e-3]


def test_sweep_keeps_every_field_but_the_darcy_number(tmp_path, monkeypatch):
    seen = []

    def fake_runs(spec, mesh, coarse, params, settings, ref=None):
        seen.append(params)
        report = analysis.ErrorReport(0.0, 0.0, 0.0, 1, 1)
        return ((m, oversampled, None, report) for oversampled in settings for m in spec.m_list)

    monkeypatch.setattr(cli, "_multiscale_runs", fake_runs)
    model = "[model]\nre = 3\nforchheimer = 2\nt_max = 0.4\nn_steps = 4\nda = 1e-2\ngamma = 7\n"
    text = TINY_MS.format(n=2, run="m_list = 2 4\nda_list = 1e-4 1e-3", out=tmp_path / "out")
    text = text.replace("[model]\npreset = test1\nn_steps = 2\nda = 1e-3\n", model)
    spec = parse_config(str(write_config(tmp_path, text)), mode="sweep")
    assert cli.run(spec) == 0
    assert [p.darcy for p in seen] == [1e-4, 1e-3]
    for params in seen:
        assert params == dataclasses.replace(spec.params, darcy=params.darcy)


@pytest.mark.parametrize(
    "section, entry, key",
    [("run", "mode = sweep", "mode"), ("run", "m = 4", "m"), ("model", "porosity = 0.9", "porosity")],
    ids=["run_mode", "run_m", "model_porosity"],
)
def test_removed_second_spellings_are_unknown_keys(tmp_path, capsys, section, entry, key):
    cfg = write_config(
        tmp_path,
        "[domain]\nporosity = 0.3\n[model]\npreset = test1\n[run]\nm_list = 2 4\n"
        f"out = {tmp_path / 'out'}\n[{section}]\n{entry}\n",
    )
    message = f"line 9: unknown key '{key}' in section [{section}]"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(cfg, "sweep")
    assert cli.main(["sweep", "--config", str(cfg)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_repeated_key_names_both_lines(tmp_path):
    cfg = write_config(tmp_path, "[run]\nm_list = 2\n[model]\npreset = test1\n[run]\nm_list = 4\n")
    with pytest.raises(ConfigError, match=r"line 6: key 'm_list' in section \[run\] repeats line 2"):
        parse_config(cfg, "sweep")


@pytest.mark.parametrize("mode", ["ms", "sweep"])
def test_bad_thread_count_exits_before_the_linear_run(tmp_path, monkeypatch, capsys, mode):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setenv("MSFLOW_THREADS", "abc")
    monkeypatch.setattr(gmsfem, "compute_linearization_field", no_solve)
    monkeypatch.setattr(gmsfem, "build_multiscale_space", no_solve)
    monkeypatch.setattr(cli, "run_fine", no_solve)
    cfg = write_config(tmp_path, TINY_MS.format(n=2, run="m_list = 4", out=tmp_path / "out"))
    assert cli.main([mode, "--config", str(cfg)]) == 2
    assert "error: MSFLOW_THREADS must be a positive integer, got 'abc'" in capsys.readouterr().err


# Every number key sits on its own line, so an error can be traced to it.
VALUES = dict(
    bbox="-1 -1 1 1", porosity="0.3", inclusions="0.0 0.0 0.3", re="1", forchheimer="1",
    t_max="0.1", n_steps="2", da="1e-3", gamma="4", m_list="2 4", da_list="1e-3",
)
VALUES_CONFIG = (
    "[domain]\nbbox = {bbox}\nporosity = {porosity}\ninclusions = {inclusions}\n"  # lines 1-4
    "[mesh]\nnx = 2\nny = 2\nn_per_coarse = 2\n"  # lines 5-8
    "[model]\nre = {re}\nforchheimer = {forchheimer}\nt_max = {t_max}\nn_steps = {n_steps}\n"  # 9-13
    "da = {da}\ngamma = {gamma}\n"  # lines 14-15
    "[run]\nm_list = {m_list}\nda_list = {da_list}\nout = {out}\n"  # lines 16-19
)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("bbox", "1 -1 -1 1", "line 2: key 'bbox': x1 and y1 must exceed x0 and y0, got 1 -1 -1 1"),
        ("bbox", "-1 -1 1", "line 2: key 'bbox': expected 4 numbers, got 3"),
        ("porosity", "1.5", "line 3: key 'porosity': must lie in (0, 1], got 1.5"),
        ("porosity", "0", "line 3: key 'porosity': must lie in (0, 1], got 0"),
        ("re", "0", "line 10: key 're': must be positive, got 0"),
        ("forchheimer", "-1", "line 11: key 'forchheimer': must be at least 0, got -1"),
        (
            "inclusions", "0 0 -0.1",
            "line 4: key 'inclusions': inclusion radius must be positive, got -0.1",
        ),
        ("t_max", "-1", "line 12: key 't_max': must be positive, got -1"),
        ("t_max", "5e-324", "line 12: key 't_max': 5e-324 over 2 steps gives a zero time step"),
        (
            "n_steps", "1" + "0" * 400,
            f"line 13: key 'n_steps': must be at most 2147483647, got 1{'0' * 400}",
        ),
        ("da", "-1", "line 14: key 'da': must be positive, got -1"),
        ("gamma", "0", "line 15: key 'gamma': must be positive, got 0"),
        ("m_list", "3 2 3", "line 17: key 'm_list': 3 is repeated"),
        ("m_list", "2 0", "line 17: key 'm_list': must be at least 1, got 0"),
        ("da_list", "1e-3 0.001", "line 18: key 'da_list': 0.001 is repeated"),
    ],
    ids=[
        "bbox_inverted", "bbox_three_numbers", "porosity_above_one", "porosity_zero", "re_zero", "forchheimer_negative",
        "inclusion_radius_negative", "t_max_negative", "t_max_underflow", "n_steps_overflow",
        "da_negative",
        "gamma_zero", "m_list_repeat", "m_list_zero", "da_list_repeat",
    ],
)
def test_cli_names_the_key_and_line_of_a_bad_value(
    tmp_path, monkeypatch, capsys, key, value, message
):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(gmsfem, "compute_linearization_field", no_solve)
    monkeypatch.setattr(cli, "run_fine", no_solve)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, VALUES_CONFIG.format(**{**VALUES, key: value}, out=out))
    assert cli.main(["sweep", "--config", str(cfg)]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "entries, args, message",
    [
        ("[domain]\nradius_min = 0\n", [], "line 2: key 'radius_min': must be positive, got 0"),
        ("[domain]\nn_inclusions = -3\n", [], "line 2: key 'n_inclusions': must be at least 0, got -3"),
        ("[run]\nseed = abc\n", ["--seed", "3"], "line 2: key 'seed': not an integer: 'abc'"),
    ],
    ids=["radius_min_without_random", "n_inclusions_without_random", "seed_under_override"],
)
def test_keys_the_run_does_not_read_are_still_checked(tmp_path, capsys, entries, args, message):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, entries + f"[domain]\ninclusions = none\n[model]\npreset = test1\n[run]\nout = {out}\n"
    )
    assert cli.main(["fine", "--config", str(cfg), *args]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


MODEL = "[model]\npreset = test1\n"


@pytest.mark.parametrize(
    "mode, text, message",
    [
        ("fine", None, "config file not found: run.cfg"),
        ("fine", MODEL + "junk\n", "line 3: expected 'key = value'"),
        ("fine", "seed = 3\n" + MODEL, "line 1: key outside any section"),
        (
            "fine", MODEL + "[mesh]\nsource = foo\n",
            "line 4: key 'source': must be one of generate, load, got 'foo'",
        ),
        ("fine", MODEL + "[mesh]\nsource = load\n", "line 4: mesh source 'load' requires a path"),
        (
            "fine", MODEL + "[mesh]\nsource = load\npath = mesh.txt\n",
            "line 5: mesh file not found: mesh.txt",
        ),
        (
            "fine", "[model]\nre = 1\nforchheimer = 1\n",
            "model needs a preset or explicit re, forchheimer and t_max",
        ),
        ("compare", MODEL + "[run]\nother = run.cfg\n", "compare mode requires reference"),
        (
            "compare", MODEL + "[run]\nreference = fine.vtk\nother = run.cfg\n",
            "line 4: reference file not found: fine.vtk",
        ),
        (
            "ms", MODEL + "[run]\nm_list = 2\nreference = fine.vtk\n",
            "line 5: reference file not found: fine.vtk",
        ),
        (
            "fine", MODEL + "[run]\nout = run.cfg/out\n",
            "line 4: output directory not creatable: [Errno 20] Not a directory: 'run.cfg/out'",
        ),
    ],
    ids=[
        "missing_config", "no_equals_sign", "key_before_section", "unknown_source",
        "load_without_path", "missing_mesh_file", "no_model_bundle", "compare_without_reference",
        "compare_missing_reference", "ms_missing_reference", "out_below_a_file",
    ],
)
def test_cli_rejects_a_config_it_cannot_run(tmp_path, monkeypatch, capsys, mode, text, message):
    monkeypatch.chdir(tmp_path)  # the paths above, and the default out, are relative
    if text is not None:
        write_config(tmp_path, text)
    assert cli.main([mode, "--config", "run.cfg"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "msflow_out").exists()


def test_out_option_below_a_file_names_no_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, MODEL + "[run]\nout = msflow_out\n")
    assert cli.main(["fine", "--config", "run.cfg", "--out", "run.cfg/out"]) == 2
    message = "output directory not creatable: [Errno 20] Not a directory: 'run.cfg/out'"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "msflow_out").exists()


ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "name, mode",
    [("desk_test1", mode) for mode in ("mesh", "fine", "ms", "sweep")]
    + [("paper_like", mode) for mode in ("fine", "sweep")],
)
def test_committed_configs_parse_to_their_settings(tmp_path, name, mode):
    """perfbench parses these files in its set-up, with and without a seed."""
    path = ROOT / "configs" / f"{name}.cfg"
    spec = parse_config(path, mode, out_dir=str(tmp_path))
    params = spec.params
    assert (params.reynolds, params.forchheimer, params.n_steps) == (1.0, 1.0, 50)
    assert params.t_max == pytest.approx(0.01)
    assert params.tau == 0.01 / 50
    assert params.darcy == 1e-3
    assert params.porosity == 0.3
    assert spec.da_list == [1e-5, 1e-4, 1e-3]
    assert spec.mode == mode and spec.out_dir == str(tmp_path)
    assert spec.domain.bbox == (-1.0, -1.0, 1.0, 1.0)
    if name == "desk_test1":
        assert spec.m_list == [2, 4, 8, 16]
        assert (spec.nx, spec.ny, spec.n_per_coarse) == (4, 4, 8)
        assert len(spec.domain.inclusions) == 4  # literal disks: the seed places none
        assert parse_config(path, mode, out_dir=str(tmp_path), seed=5).domain == spec.domain
    else:
        assert spec.m_list == [5, 10, 15, 20, 25]
        assert (spec.nx, spec.ny, spec.n_per_coarse) == (10, 10, 8)
        assert spec.basis_cache == "results/paper_like/basis_cache"
        bbox = spec.domain.bbox
        assert spec.domain.inclusions == generate_inclusions(bbox, 24, 0.05, 0.12, seed=7)
        override = parse_config(path, mode, out_dir=str(tmp_path), seed=5)
        assert override.domain.inclusions == generate_inclusions(bbox, 24, 0.05, 0.12, seed=5)


@pytest.mark.parametrize("name", ["desk_test1", "paper_like"])
def test_parsing_a_committed_config_creates_nothing(tmp_path, monkeypatch, name):
    # only cli.run makes the output directory: a probe that parses a config,
    # in any mode, with its own out or with --out, leaves no directory behind
    monkeypatch.chdir(tmp_path)  # the configs' out is relative
    path = ROOT / "configs" / f"{name}.cfg"
    for mode in cli._MODE_RUNNERS:
        for out_dir in (None, str(tmp_path / "fresh" / "out")):
            if mode == "compare":  # neither config names the two states
                with pytest.raises(ConfigError, match="compare mode requires reference"):
                    parse_config(path, mode, out_dir=out_dir)
            else:
                spec = parse_config(path, mode, out_dir=out_dir)
                assert spec.out_dir == (out_dir or f"results/{name}")
    assert list(tmp_path.iterdir()) == []


def test_readme_config_table_lists_every_key_and_default():
    readme = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \| ([^|]*) \|", readme, flags=re.MULTILINE)
    listed = {(section, key): cell.strip() for section, key, cell in rows}
    assert len(listed) == len(rows)
    declared = {(section, key): entry[0] for section, keys in _KEYS.items() for key, entry in keys.items()}
    assert listed.keys() == declared.keys()
    for (section, key), default in declared.items():
        if default:  # not None or empty: the README says what applies instead
            assert listed[section, key] == f"`{default}`", (section, key)
