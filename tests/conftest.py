from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from msflow import forms
from msflow.config import parse_config
from msflow.geometry import (
    CircleInclusion,
    DomainSpec,
    TriMesh,
    CoarseGrid,
    generate_structured_mesh,
)
from msflow.parameters import ModelParameters

DESK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk_test1.cfg"


def make_params(**overrides):
    base = dict(
        reynolds=1.0,
        darcy=1e-3,
        forchheimer=1.0,
        porosity=0.3,
        tau=0.01,
        n_steps=1,
    )
    base.update(overrides)
    return ModelParameters(**base)


@dataclass(frozen=True)
class WiderParameters(ModelParameters):
    """ModelParameters with one more defaulted field, as an option that
    changes the bases would add: code that rebuilds or keys the parameters
    from a hand-kept list of fields drops it."""

    extra: float = 0.0


def linearized_matrices(patch, params, u_lin):
    """The convection and the quadratic drag of a patch frozen at the global
    field u_lin, as sparse matrices on its velocity DOFs."""
    convection, porous, drag = forms.linearized_cell_blocks(patch, params, u_lin)
    every = np.arange(patch.n_cells)
    return (
        forms.cell_block_matrix(patch, every, convection),
        forms.cell_block_matrix(patch, porous, drag),
    )


def layers(states):
    """An observer for run_fine and run_multiscale (see fine_solver.march)
    that appends every state it sees to states."""
    return lambda step, state, solver: states.append(state)


def unit_square_mesh(n=1, porous=False):
    """n x n squares on the unit square, optionally all tagged porous."""
    inclusions = [CircleInclusion(0.5, 0.5, 0.49)] if porous else []
    dom = DomainSpec(bbox=(0.0, 0.0, 1.0, 1.0), inclusions=inclusions)
    mesh, coarse = generate_structured_mesh(dom, n, (1, 1))
    if porous:
        mesh.region[:] = 1
    return mesh, coarse


def random_rect_two_cells(rng):
    """Two triangles from a random rectangle with a random diagonal."""
    w = float(rng.uniform(0.4, 2.5))
    h = float(rng.uniform(0.4, 2.5))
    verts = np.array([[0.0, 0.0], [w, 0.0], [w, h], [0.0, h]])
    if rng.integers(2):
        cells = np.array([[0, 1, 2], [0, 2, 3]])
    else:
        cells = np.array([[0, 1, 3], [1, 2, 3]])
    region = rng.integers(0, 2, size=2).astype(np.int8)
    mesh = TriMesh(verts, cells, region, np.zeros(2, dtype=int), (0, 0, w, h))
    coarse = CoarseGrid(1, 1, mesh.bbox, mesh)
    return mesh, coarse


def perturbed_grid_mesh(rng, n=3):
    """Structured n x n mesh with interior vertices randomly displaced."""
    dom = DomainSpec(bbox=(0.0, 0.0, 1.0, 1.0))
    mesh, coarse = generate_structured_mesh(dom, n, (1, 1))
    h = 1.0 / n
    interior = (
        (mesh.verts[:, 0] > 1e-9)
        & (mesh.verts[:, 0] < 1 - 1e-9)
        & (mesh.verts[:, 1] > 1e-9)
        & (mesh.verts[:, 1] < 1 - 1e-9)
    )
    shift = rng.uniform(-0.2 * h, 0.2 * h, size=(interior.sum(), 2))
    verts = mesh.verts.copy()
    verts[interior] += shift
    region = rng.integers(0, 2, size=mesh.n_cells).astype(np.int8)
    new = TriMesh(verts, mesh.cells, region, mesh.coarse_id, mesh.bbox)
    return new, CoarseGrid(1, 1, new.bbox, new)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def desk_domain():
    """The four-inclusion domain of configs/desk_test1.cfg, which the desk
    probes and perfbench read too."""
    return parse_config(str(DESK_CONFIG), mode="fine").domain


def tiny_heterogeneous(n=2, coarse=(2, 2), radius=0.2):
    dom = DomainSpec(bbox=(0, 0, 1, 1), inclusions=[CircleInclusion(0.5, 0.5, radius)])
    return generate_structured_mesh(dom, n, coarse)


def assert_same_bases(got, want):
    """Two lists of cell bases hold the same cells, rows and eigenvalues, bit
    for bit."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.cell_index == b.cell_index
        for name in ("target_cells", "rows", "eigenvalues"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y)
