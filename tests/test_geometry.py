from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from msflow.config import parse_config
from msflow.errors import MeshFormatError
from msflow.geometry import (
    FLUID,
    INTERIOR,
    POROUS,
    CircleInclusion,
    DomainSpec,
    TriMesh,
    generate_structured_mesh,
    grid_cell,
    load_mesh,
    oversample_region,
    save_mesh,
)

from conftest import desk_domain, perturbed_grid_mesh, random_rect_two_cells

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
EDGE_ARRAYS = ("edge_verts", "edge_cells", "edge_normal", "edge_length", "edge_side")


class TestDomainSpec:
    def test_rejects_zero_area(self):
        with pytest.raises(ValueError, match="area"):
            DomainSpec(bbox=(0, 0, 0, 1))

    def test_rejects_inclusion_outside(self):
        with pytest.raises(ValueError, match="inside"):
            DomainSpec(bbox=(0, 0, 1, 1), inclusions=[CircleInclusion(0.9, 0.5, 0.2)])

    def test_rejects_overlap(self):
        incs = [CircleInclusion(0.3, 0.5, 0.15), CircleInclusion(0.5, 0.5, 0.15)]
        with pytest.raises(ValueError, match="overlap"):
            DomainSpec(bbox=(0, 0, 1, 1), inclusions=incs)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError, match="radius"):
            CircleInclusion(0.5, 0.5, 0.0)


class TestGenerate:
    def test_smallest_mesh(self):
        dom = DomainSpec(bbox=(-1, -1, 1, 1))
        mesh, coarse = generate_structured_mesh(dom, 1, (1, 1))
        assert mesh.n_cells == 2
        assert coarse.n_cells == 1
        assert mesh.n_edges == 5
        assert np.all(mesh.region == FLUID)

    def test_dof_size_formula_shape(self):
        dom = DomainSpec(bbox=(-1, -1, 1, 1))
        mesh, coarse = generate_structured_mesh(dom, 8, (10, 10))
        n_h = mesh.n_cells
        assert n_h == 2 * (10 * 8) ** 2
        assert 6 * n_h + n_h == 7 * n_h

    def test_centroid_tagging_matches_brute_force(self):
        dom = DomainSpec(
            bbox=(-1, -1, 1, 1), inclusions=[CircleInclusion(0.0, 0.0, 0.5)]
        )
        mesh, _ = generate_structured_mesh(dom, 6, (4, 4))
        inside = np.linalg.norm(mesh.centroid, axis=1) <= 0.5
        assert np.array_equal(mesh.region == POROUS, inside)
        assert (mesh.region == POROUS).sum() > 0

    def test_coarse_assignment(self):
        dom = desk_domain()
        mesh, coarse = generate_structured_mesh(dom, 4, (4, 4))
        assert_coarse_ids_locate_the_centroids(mesh, coarse)
        assert sum(len(f) for f in coarse.cell_fine) == mesh.n_cells

    @pytest.mark.parametrize("n, dims", [(1, (1, 1)), (3, (2, 5)), (2, (4, 1))])
    def test_cells_split_each_square_row_by_row(self, n, dims):
        mesh, _ = generate_structured_mesh(DomainSpec(bbox=(0, 0, 1, 1)), n, dims)
        ax, ay = dims[0] * n, dims[1] * n
        want = []
        for j in range(ay):
            for i in range(ax):
                v00, v01 = j * (ax + 1) + i, (j + 1) * (ax + 1) + i
                want += [(v00, v00 + 1, v01 + 1), (v00, v01 + 1, v01)]
        assert mesh.cells.dtype == np.int64 and np.array_equal(mesh.cells, want)

    def test_zero_subdivision_rejected(self):
        dom = DomainSpec(bbox=(0, 0, 1, 1))
        with pytest.raises(ValueError):
            generate_structured_mesh(dom, 0, (1, 1))


class TestEdgeTopology:
    def test_plus_minus_convention(self):
        dom = DomainSpec(bbox=(0, 0, 1, 1))
        mesh, _ = generate_structured_mesh(dom, 1, (1, 1))
        interior = np.nonzero(mesh.edge_cells[:, 1] >= 0)[0]
        assert len(interior) == 1
        e = interior[0]
        cp, cm = mesh.edge_cells[e]
        assert cp == 0 and cm == 1
        direction = mesh.centroid[cm] - mesh.centroid[cp]
        assert np.dot(mesh.edge_normal[e], direction) > 0

    def test_unit_normals(self):
        dom = desk_domain()
        mesh, _ = generate_structured_mesh(dom, 3, (2, 2))
        norms = np.linalg.norm(mesh.edge_normal, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-14

    def test_boundary_outward(self):
        dom = DomainSpec(bbox=(0, 0, 1, 1))
        mesh, _ = generate_structured_mesh(dom, 2, (1, 1))
        boundary = np.nonzero(mesh.edge_side != INTERIOR)[0]
        for e in boundary:
            c = mesh.edge_cells[e, 0]
            mid = mesh.verts[mesh.edge_verts[e]].mean(axis=0)
            assert np.dot(mesh.edge_normal[e], mid - mesh.centroid[c]) > 0

    def test_cell_edge_closure(self):
        # sum of h_E * n_outward over each cell's edges closes the polygon
        dom = desk_domain()
        mesh, _ = generate_structured_mesh(dom, 4, (2, 2))
        weighted = mesh.edge_length[:, None] * mesh.edge_normal  # out of edge_cells[:, 0]
        inner = mesh.edge_cells[:, 1] >= 0
        total = np.zeros((mesh.n_cells, 2))
        np.add.at(total, mesh.edge_cells[:, 0], weighted)
        np.add.at(total, mesh.edge_cells[inner, 1], -weighted[inner])
        counts = np.bincount(mesh.edge_cells[:, 0], minlength=mesh.n_cells)
        counts += np.bincount(mesh.edge_cells[inner, 1], minlength=mesh.n_cells)
        assert np.all(counts == 3)
        assert np.linalg.norm(total, axis=1).max() < 1e-13

    def test_shared_by_three_cells_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0]])
        cells = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 2]])  # edge (0,1) used thrice
        with pytest.raises(MeshFormatError, match="more than two"):
            TriMesh(verts, cells, np.zeros(3, dtype=np.int8), np.zeros(3, dtype=int), (0, -1, 1, 1))


def assert_coarse_ids_locate_the_centroids(mesh, coarse):
    located = grid_cell(mesh.centroid, coarse.bbox, coarse.nx, coarse.ny)
    assert np.array_equal(mesh.coarse_id, located)


def _shuffled(mesh, rng):
    """The same triangulation with its cells in random order, each starting
    at a random vertex (still counter-clockwise)."""
    order = rng.permutation(mesh.n_cells)
    turn = rng.integers(3, size=mesh.n_cells)
    cells = mesh.cells[order][np.arange(mesh.n_cells)[:, None], (np.arange(3) + turn[:, None]) % 3]
    return TriMesh(mesh.verts, cells, mesh.region[order], mesh.coarse_id[order], mesh.bbox)


def _topology_mesh(kind, rng, tmp_path):
    if kind in ("desk", "desk_shuffled"):
        spec = parse_config(str(CONFIGS / "desk_test1.cfg"), mode="fine")
        mesh, _ = generate_structured_mesh(spec.domain, spec.n_per_coarse, (spec.nx, spec.ny))
        return _shuffled(mesh, rng) if kind == "desk_shuffled" else mesh
    if kind == "perturbed":
        return perturbed_grid_mesh(rng, n=5)[0]
    if kind == "loaded":
        mesh, coarse = generate_structured_mesh(desk_domain(), 3, (4, 4))
        save_mesh(tmp_path / "mesh.txt", mesh, coarse)
        return load_mesh(tmp_path / "mesh.txt")[0]
    # Draw until the rectangle is split along the wanted diagonal.
    while True:
        mesh = random_rect_two_cells(rng)[0]
        if (mesh.cells[0, 2] == 2) == (kind == "two_cells_02"):
            return mesh


@pytest.mark.parametrize(
    "kind", ["desk", "desk_shuffled", "perturbed", "two_cells_02", "two_cells_13", "loaded"]
)
def test_edge_topology_equals_the_edge_loop(kind, rng, tmp_path):
    mesh = _topology_mesh(kind, rng, tmp_path)
    want = oracles.loop_edge_topology(mesh.verts, mesh.cells, mesh.bbox)
    for name, expected in zip(EDGE_ARRAYS, want):
        got = getattr(mesh, name)
        assert got.dtype == expected.dtype and got.shape == expected.shape, name
        assert got.tobytes() == expected.tobytes(), name


@pytest.mark.parametrize(
    "bbox, message",
    [
        ((0.0, 0.0, 2.0, 1.0), "boundary edge (1, 2) near [1.  0.5] "),
        ((0.0, -1.0, 1.0, 1.0), "boundary edge (0, 1) near [0.5 0. ] "),
    ],
    ids=["off_right", "off_bottom"],
)
def test_faulty_edge_is_named_like_the_edge_loop(bbox, message):
    # the unit square as cells (0, 1, 2) and (0, 2, 3) in a larger bbox
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cells = np.array([[0, 1, 2], [0, 2, 3]])
    with pytest.raises(MeshFormatError) as want:
        oracles.loop_edge_topology(verts, cells, bbox)
    with pytest.raises(MeshFormatError) as got:
        TriMesh(verts, cells, np.zeros(2, dtype=np.int8), np.zeros(2, dtype=int), bbox)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(message)


class TestOversample:
    def test_interior_cell(self):
        dom = DomainSpec(bbox=(-1, -1, 1, 1))
        mesh, coarse = generate_structured_mesh(dom, 1, (10, 10))
        assert len(oversample_region(coarse, 55)) == 9

    def test_corner_cell(self):
        dom = DomainSpec(bbox=(-1, -1, 1, 1))
        mesh, coarse = generate_structured_mesh(dom, 1, (10, 10))
        assert len(oversample_region(coarse, 0)) == 4

    def test_edge_cell(self):
        dom = DomainSpec(bbox=(-1, -1, 1, 1))
        mesh, coarse = generate_structured_mesh(dom, 1, (10, 10))
        assert len(oversample_region(coarse, 5)) == 6

    def test_out_of_range(self):
        dom = DomainSpec(bbox=(-1, -1, 1, 1))
        _, coarse = generate_structured_mesh(dom, 1, (2, 2))
        with pytest.raises(IndexError):
            oversample_region(coarse, 4)

    def test_contains_target(self):
        dom = DomainSpec(bbox=(-1, -1, 1, 1))
        _, coarse = generate_structured_mesh(dom, 1, (5, 3))
        for i in range(coarse.n_cells):
            region = oversample_region(coarse, i)
            assert i in region
            assert len(region) in (4, 6, 9)


@given(
    nx=st.integers(1, 4),
    ny=st.integers(1, 4),
    n=st.integers(1, 4),
    with_inclusion=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_mesh_invariants(nx, ny, n, with_inclusion):
    inclusions = [CircleInclusion(0.1, -0.2, 0.4)] if with_inclusion else []
    dom = DomainSpec(bbox=(-1, -1, 1, 1), inclusions=inclusions)
    mesh, coarse = generate_structured_mesh(dom, n, (nx, ny))
    # partition of the 2 x 2 box
    assert mesh.area.sum() == pytest.approx(4.0, rel=1e-12)
    # edge handshake
    interior = int((mesh.edge_cells[:, 1] >= 0).sum())
    boundary = mesh.n_edges - interior
    assert 3 * mesh.n_cells == 2 * interior + boundary
    # tag consistency against the point-in-disk test
    expect = dom.porous_mask(mesh.centroid)
    assert np.array_equal(mesh.region == POROUS, expect)
    assert_coarse_ids_locate_the_centroids(mesh, coarse)
