"""Every file the package writes goes through atomic_write: a failed write
leaves the old file as it was and no temporary file behind."""

import os
from types import SimpleNamespace

import numpy as np
import pytest

from msflow import cli, gmsfem, vtk_io
from msflow.atomic import atomic_write
from msflow.errors import MsflowError
from msflow.geometry import save_mesh
from msflow.parameters import BoundaryData, DGState

from conftest import make_params, tiny_heterogeneous


def test_failed_block_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(str(path)) as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_completed_block_replaces_the_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with atomic_write(path, "wb") as fh:
        fh.write(b"new")
    assert path.read_bytes() == b"new"
    assert os.listdir(tmp_path) == ["out.bin"]


def _writers(directory):
    """name: (file, write) of each of the package's file writers; save_space
    picks its own file name, which a first save finds."""
    mesh, coarse = tiny_heterogeneous(n=2)
    params, bc = make_params(n_steps=1), BoundaryData.inflow((1.0, 0.0))
    report = SimpleNamespace(percent=lambda: (1.0, 2.0, 3.0))
    reports = {(2, False): report, (2, True): report}
    basis = gmsfem.CellBasis(0, np.arange(2), np.ones(3), np.ones((1, 12)))
    space = SimpleNamespace(m=1, oversampled=False, cell_bases=[basis])
    cache = os.path.join(directory, "cache")
    save_space = lambda p: gmsfem.save_space(cache, mesh, params, bc, space)  # noqa: E731
    return {
        "json": ("a.json", lambda p: cli._write_json(p, {"a": 1})),
        "csv": ("errors.csv", lambda p: cli.write_sweep_csv(p, [2], reports, coarse)),
        "vtk": ("a.vtk", lambda p: vtk_io.export_vtk(mesh, DGState.zeros(mesh.n_cells), p)),
        "mesh": ("mesh.txt", lambda p: save_mesh(p, mesh, coarse)),
        "basis_cache": (save_space(None), save_space),
    }


@pytest.mark.parametrize("writer", ["json", "csv", "vtk", "mesh", "basis_cache"])
def test_failed_rename_keeps_the_old_file(tmp_path, monkeypatch, writer):
    name, write = _writers(str(tmp_path))[writer]
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        fh.write("old\n")
    before = sorted(os.listdir(os.path.dirname(path)))

    def refuse(src, dst):
        raise OSError(f"cannot rename {src}")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(MsflowError if writer == "basis_cache" else OSError, match="cannot rename"):
        write(path)
    with open(path) as fh:
        assert fh.read() == "old\n"
    assert sorted(os.listdir(os.path.dirname(path))) == before
