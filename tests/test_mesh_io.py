import re

import numpy as np
import pytest

from msflow.errors import MeshFormatError
from msflow.geometry import (
    CoarseGrid,
    DomainSpec,
    TriMesh,
    generate_structured_mesh,
    load_mesh,
    save_mesh,
)
from msflow.patches import coarse_cell_patch

from conftest import desk_domain


def test_round_trip_identity(tmp_path):
    dom = desk_domain()
    mesh, coarse = generate_structured_mesh(dom, 3, (4, 4))
    path = tmp_path / "mesh.txt"
    save_mesh(path, mesh, coarse)
    loaded, lcoarse = load_mesh(path)
    assert np.array_equal(loaded.verts, mesh.verts)
    assert np.array_equal(loaded.cells, mesh.cells)
    assert np.array_equal(loaded.region, mesh.region)
    assert np.array_equal(loaded.coarse_id, mesh.coarse_id)
    assert (lcoarse.nx, lcoarse.ny) == (coarse.nx, coarse.ny)


def test_coarse_cells_list_their_fine_cells_ascending_and_read_only(tmp_path):
    mesh, coarse = generate_structured_mesh(desk_domain(), 2, (3, 3))
    perm = np.random.default_rng(3).permutation(mesh.n_cells)
    shuffled = TriMesh(
        mesh.verts, mesh.cells[perm], mesh.region[perm], mesh.coarse_id[perm], mesh.bbox
    )
    path = tmp_path / "shuffled.txt"
    save_mesh(path, shuffled, CoarseGrid(coarse.nx, coarse.ny, coarse.bbox, shuffled))
    loaded, lcoarse = load_mesh(path)
    assert np.array_equal(loaded.coarse_id, mesh.coarse_id[perm])
    for i, fine in enumerate(lcoarse.cell_fine):
        assert np.array_equal(fine, np.flatnonzero(loaded.coarse_id == i))
        assert np.all(np.diff(fine) > 0)
        assert not fine.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            fine[0] = 0
        assert coarse_cell_patch(loaded, lcoarse, i).cells is fine


def test_loaded_edges_match_generated(tmp_path):
    dom = DomainSpec(bbox=(0, 0, 1, 1))
    mesh, coarse = generate_structured_mesh(dom, 1, (1, 1))
    path = tmp_path / "two.txt"
    save_mesh(path, mesh, coarse)
    loaded, _ = load_mesh(path)
    interior = np.nonzero(loaded.edge_cells[:, 1] >= 0)[0]
    assert len(interior) == 1
    e = interior[0]
    cp, cm = loaded.edge_cells[e]
    assert cp < cm
    direction = loaded.centroid[cm] - loaded.centroid[cp]
    assert np.dot(loaded.edge_normal[e], direction) > 0


def test_missing_vertex_reference(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "msflow-mesh v1\n"
        "coarse 1 1\n"
        "vertices 3\n"
        "0 0.0 0.0\n"
        "1 1.0 0.0\n"
        "2 0.0 1.0\n"
        "cells 1\n"
        "0 0 1 9 fluid 0\n"
    )
    with pytest.raises(MeshFormatError, match="missing vertex"):
        load_mesh(path)


def test_missing_header(tmp_path):
    path = tmp_path / "noheader.txt"
    path.write_text("vertices 0\n")
    with pytest.raises(MeshFormatError, match="header"):
        load_mesh(path)


def test_unknown_region_tag(tmp_path):
    path = tmp_path / "badtag.txt"
    path.write_text(
        "msflow-mesh v1\n"
        "coarse 1 1\n"
        "vertices 3\n0 0.0 0.0\n1 1.0 0.0\n2 0.0 1.0\n"
        "cells 1\n0 0 1 2 slush 0\n"
    )
    with pytest.raises(MeshFormatError, match="region"):
        load_mesh(path)


def test_inconsistent_coarse_id(tmp_path):
    dom = DomainSpec(bbox=(0, 0, 1, 1))
    mesh, coarse = generate_structured_mesh(dom, 1, (2, 1))
    path = tmp_path / "mesh.txt"
    save_mesh(path, mesh, coarse)
    text = path.read_text().splitlines()
    # corrupt the coarse id of cell 0
    for i, line in enumerate(text):
        if line.startswith("0 ") and "fluid" in line:
            parts = line.split()
            parts[-1] = "1"
            text[i] = " ".join(parts)
            break
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(MeshFormatError, match="coarse id"):
        load_mesh(path)


def test_missing_coarse_dims(tmp_path):
    path = tmp_path / "nodims.txt"
    path.write_text(
        "msflow-mesh v1\n"
        "vertices 4\n0 0.0 0.0\n1 1.0 0.0\n2 1.0 1.0\n3 0.0 1.0\n"
        "cells 2\n0 0 1 2 fluid 0\n1 0 2 3 fluid 0\n"
    )
    with pytest.raises(MeshFormatError, match="coarse"):
        load_mesh(path)


SQUARE = (
    "msflow-mesh v1\n"
    "coarse 1 1\n"
    "vertices 4\n0 0.0 0.0\n1 1.0 0.0\n2 1.0 1.0\n3 0.0 1.0\n"
    "cells 2\n0 0 1 2 fluid 0\n1 0 2 3 fluid 0\n"
    "boundary 4\n0 1 bottom\n1 2 right\n2 3 top\n0 3 left\n"
)


def test_square_loads(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text(SQUARE)
    mesh, coarse = load_mesh(path)
    assert (mesh.n_verts, mesh.n_cells, coarse.n_cells) == (4, 2, 1)


@pytest.mark.parametrize(
    "old, new, where",
    [
        ("vertices 4", "vertices x", "3: expected 'vertices <count>'"),
        ("vertices 4", "vertices", "3: expected 'vertices <count>'"),
        ("0 3 left\n", "", "14: boundary section ends after 3 of 4 rows"),
        ("1 1.0 0.0", "1 one 0.0", "5: 'one' is not a number"),
        ("1 1.0 0.0", "1 nan 0.0", "5: 'nan' is not finite"),
        ("3 0.0 1.0", "4 0.0 1.0", "7: id 4 outside 0..3"),
        ("3 0.0 1.0", "2 0.0 1.0", "7: id 2 already given on line 6"),
        ("1 0 2 3 fluid 0", "0 0 2 3 fluid 0", "10: id 0 already given on line 9"),
        ("1 0 2 3 fluid 0", "1 0 2 x fluid 0", "10: 'x' is not an integer"),
        ("0 1 bottom", "0 1.5 bottom", "12: '1.5' is not an integer"),
        ("coarse 1 1", "coarse 0 1", "2: coarse dimensions must be at least 1"),
    ],
)
def test_malformed_file_names_path_and_line(tmp_path, old, new, where):
    path = tmp_path / "bad.txt"
    path.write_text(SQUARE.replace(old, new, 1))
    with pytest.raises(MeshFormatError, match=re.escape(f"{path}:{where}")):
        load_mesh(path)


def test_truncated_vertex_section(tmp_path):
    path = tmp_path / "cut.txt"
    path.write_text("msflow-mesh v1\ncoarse 1 1\nvertices 4\n0 0.0 0.0\n1 1.0 0.0\n")
    where = f"{path}:5: vertices section ends after 2 of 4 rows"
    with pytest.raises(MeshFormatError, match=re.escape(where)):
        load_mesh(path)


def test_binary_file_is_a_format_error(tmp_path):
    path = tmp_path / "binary.txt"
    path.write_bytes(bytes(range(256)))
    with pytest.raises(MeshFormatError, match="header"):
        load_mesh(path)


CELLS = "cells 4\n0 0 1 4 fluid 0\n1 0 4 3 fluid 0\n2 1 2 5 fluid 1\n3 1 5 4 fluid 1\n"


@pytest.mark.parametrize(
    "old, new, where",
    [
        ("0 0 1 4 fluid 0", "0 0 4 1 fluid 0", ": cell 0 is degenerate or not counter-clockwise"),
        ("3 1 5 4 fluid 1", "3 0 1 4 fluid 0", ": edge (0, 4) shared by more than two cells"),
        ("4 0.5 1.0", "4 0.5 0.9", ": boundary edge (3, 4) near [0.25 0.95] does not lie on a bbox side"),
        ("3 1 5 4 fluid 1", "3 1 5 4 fluid 2", ": fine cell 3 has coarse id 2 outside the 2x1 grid"),
        ("coarse 2 1", "coarse 3 1", ": coarse cell 2 has no fine cells"),
        ("0 0 1 4 fluid 0", "0 0 1 4 fluid", ":11: expected 'id v0 v1 v2 region coarse_id'"),
        ("coarse 2 1", "coarse 2", ":2: expected 'coarse nx ny'"),
        ("boundary 6", "edges 6", ":15: unknown section 'edges'"),
        (CELLS, "", ": missing or empty vertices or cells section"),
        ("0 1 bottom", "1 4 bottom", ": listed boundary edge (1, 4) is not a boundary edge"),
        ("2 5 right", "2 5 left", ": boundary edge (2, 5) labelled left but lies on right"),
    ],
    ids=[
        "clockwise_cell", "edge_of_three_cells", "boundary_off_bbox", "coarse_id_off_grid",
        "empty_coarse_cell", "short_row", "malformed_coarse", "unknown_section", "no_cells",
        "listed_interior_edge", "mislabelled_side",
    ],
)
def test_mesh_file_fault_starts_with_the_path(tmp_path, old, new, where):
    # 2 x 1 coarse cells over the unit square, one square (two cells) each
    mesh, coarse = generate_structured_mesh(DomainSpec(bbox=(0, 0, 1, 1)), 1, (2, 1))
    path = tmp_path / "mesh.txt"
    save_mesh(path, mesh, coarse)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(MeshFormatError) as fault:
        load_mesh(path)
    assert str(fault.value) == f"{path}{where}"
