import re
from pathlib import Path

import numpy as np
import pytest

import oracles
from msflow import vtk_io
from msflow.config import parse_config
from msflow.errors import MeshFormatError
from msflow.geometry import DomainSpec, generate_structured_mesh
from msflow.parameters import DGState

from conftest import desk_domain

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_minimal_two_triangle_file(tmp_path, rng):
    dom = DomainSpec(bbox=(0, 0, 1, 1))
    mesh, _ = generate_structured_mesh(dom, 1, (1, 1))
    state = DGState(rng.standard_normal(12), rng.standard_normal(2))
    path = tmp_path / "two.vtk"
    vtk_io.export_vtk(mesh, state, path)
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile Version 3.0")
    assert "POINTS 4 double" in text
    assert "CELLS 2 8" in text
    points, cells, _, _ = vtk_io.read_vtk_state(path)
    assert points.shape == (4, 2)
    assert cells.shape == (2, 3)


def test_dg_velocity_round_trip_bit_exact(tmp_path, rng):
    dom = desk_domain()
    mesh, _ = generate_structured_mesh(dom, 3, (2, 2))
    state = DGState(
        rng.standard_normal(6 * mesh.n_cells) * 1e3,
        rng.standard_normal(mesh.n_cells) / 7.0,
    )
    path = tmp_path / "fields.vtk"
    vtk_io.export_vtk(mesh, state, path)
    _, _, loaded, region = vtk_io.read_vtk_state(path)
    assert np.array_equal(loaded.velocity, state.velocity)
    assert np.array_equal(loaded.pressure, state.pressure)
    assert np.array_equal(region, mesh.region)


def test_region_values_binary(tmp_path):
    dom = desk_domain()
    mesh, _ = generate_structured_mesh(dom, 3, (2, 2))
    path = tmp_path / "mesh.vtk"
    vtk_io.export_vtk(mesh, DGState.zeros(mesh.n_cells), path)
    _, _, _, region = vtk_io.read_vtk_state(path)
    assert set(np.unique(region)) <= {0, 1}
    assert (region == 1).sum() == (mesh.region == 1).sum() > 0


def test_vertex_average_of_continuous_field_is_exact(rng):
    dom = DomainSpec(bbox=(0, 0, 1, 1))
    mesh, _ = generate_structured_mesh(dom, 2, (1, 1))
    nodal = rng.standard_normal((mesh.n_verts, 2))
    state = DGState(nodal[mesh.cells].ravel(), np.zeros(mesh.n_cells))
    averaged = vtk_io.vertex_averaged_velocity(mesh, state)
    assert np.allclose(averaged, nodal, atol=1e-14)


@pytest.mark.parametrize("config", ["desk_test1", "paper_like"])
def test_export_writes_the_bytes_of_the_add_at_writer(tmp_path, rng, config):
    # values over 60 decades, exact zeros and negative zeros; the vertex
    # averages sum in the order of np.add.at, one cell vertex at a time
    spec = parse_config(str(CONFIGS / f"{config}.cfg"), mode="sweep")
    mesh, _ = generate_structured_mesh(spec.domain, spec.n_per_coarse, (spec.nx, spec.ny))
    velocity = rng.standard_normal(6 * mesh.n_cells) * np.exp(rng.uniform(-70, 70, 6 * mesh.n_cells))
    velocity[::7] = 0.0
    velocity[1::11] = -0.0
    state = DGState(velocity, rng.standard_normal(mesh.n_cells))
    path = tmp_path / "fields.vtk"
    vtk_io.export_vtk(mesh, state, path, title=config)
    assert path.read_bytes() == oracles.add_at_vtk_text(mesh, state, title=config).encode()


def test_reader_rejects_foreign_layout(tmp_path):
    path = tmp_path / "bad.vtk"
    path.write_text("# vtk DataFile Version 3.0\nx\nASCII\nDATASET STRUCTURED_POINTS\n")
    where = f"{path}:4: expected 'DATASET UNSTRUCTURED_GRID'"
    with pytest.raises(MeshFormatError, match=re.escape(where)):
        vtk_io.read_vtk_state(path)


def test_parses_with_external_reader_when_available(tmp_path):
    meshio = pytest.importorskip("meshio")
    dom = DomainSpec(bbox=(0, 0, 1, 1))
    mesh, _ = generate_structured_mesh(dom, 1, (1, 1))
    state = DGState(np.arange(12.0), np.array([1.0, 2.0]))
    path = tmp_path / "check.vtk"
    vtk_io.export_vtk(mesh, state, path)
    data = meshio.read(path)
    assert len(data.points) == 4
    assert data.cells[0].data.shape == (2, 3)
    assert np.allclose(data.cell_data["pressure"][0], state.pressure)


def _two_cell_file(tmp_path, rng):
    mesh, _ = generate_structured_mesh(DomainSpec(bbox=(0, 0, 1, 1)), 1, (1, 1))
    path = tmp_path / "two.vtk"
    vtk_io.export_vtk(mesh, DGState(rng.standard_normal(12), rng.standard_normal(2)), path)
    return path, path.read_text().splitlines()


def test_truncated_file_is_a_format_error(tmp_path, rng):
    path, lines = _two_cell_file(tmp_path, rng)
    cut = lines.index("velocity_dg 6 2 double") + 2  # keeps the first velocity row
    path.write_text("\n".join(lines[:cut]) + "\n")
    with pytest.raises(MeshFormatError, match=re.escape(f"{path}:eof: expected a row of 6 values")):
        vtk_io.read_vtk_state(path)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("POINTS 4 double", "POINTS x double", "expected 'POINTS <count>'"),
        ("CELLS 2 8", "CELLS", "expected 'CELLS <count>'"),
        ("3 0 1 3", "3 0 1", "expected a row of 4 values, got '3 0 1'"),
        ("3 0 1 3", "3 0 1 z", "invalid literal for int()"),
    ],
)
def test_malformed_line_is_named(tmp_path, rng, old, new, message):
    path, lines = _two_cell_file(tmp_path, rng)
    n = lines.index(old)
    lines[n] = new
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshFormatError, match=re.escape(f"{path}:{n + 1}: {message}")):
        vtk_io.read_vtk_state(path)
