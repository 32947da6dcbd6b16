"""Cell patches: the assembly unit shared by the global problem and the
local snapshot problems.

A patch is a set of fine cells with a local DOF numbering (6 velocity DOFs
and 1 pressure DOF per cell), its interior edges, and its Dirichlet boundary
edges.  For the full mesh the Dirichlet edges are the velocity-boundary
sides; the outflow side is natural and carries only the optional traction.
For a coarse-cell patch every bounding edge is Dirichlet, which is what the
snapshot problems need.

Every edge integral reads the traces of the cells on its edges through one
EdgeSide record per side: plus and minus on interior edges, dirichlet and
natural on boundary edges.
"""

import numpy as np

from .geometry import INTERIOR, DIRICHLET_SIDES, oversample_region
from .quadrature import EDGE_G2_S


class EdgeSide:
    """One side of an edge list: the patch-local cell on each edge and that
    cell's P1 traces lam (ne, q, 3) at the edge Gauss points."""

    def __init__(self, patch, edges, cells):
        ends = patch.mesh.edge_verts[edges]
        # hit[e, j, a]: endpoint j of edge e is local vertex a of its cell
        hit = patch.mesh.cells[cells][:, None, :] == ends[:, :, None]
        if not np.all(hit.any(axis=2)):
            raise ValueError("edge endpoint is not a vertex of the adjacent cell")
        s = EDGE_G2_S
        self.cell = patch.local_of[cells]
        self.lam = hit[:, 0, None, :] * (1.0 - s)[:, None] + hit[:, 1, None, :] * s[:, None]


class Patch:
    def __init__(self, mesh, cells, dirichlet_edges, interior_edges, natural_edges=()):
        self.mesh = mesh
        self.cells = np.asarray(cells, dtype=np.int64)
        if len(self.cells) == 0:
            raise ValueError("empty cell patch")
        self.local_of = np.full(mesh.n_cells, -1, dtype=np.int64)
        self.local_of[self.cells] = np.arange(len(self.cells))
        self.interior_edges = ie = np.asarray(interior_edges, dtype=np.int64)
        self.dirichlet_edges = de = np.asarray(dirichlet_edges, dtype=np.int64)
        self.natural_edges = ng = np.asarray(natural_edges, dtype=np.int64)
        self.area = float(mesh.area[self.cells].sum())

        self.int_len = mesh.edge_length[ie]
        self.int_normal = mesh.edge_normal[ie]
        self.plus = EdgeSide(self, ie, mesh.edge_cells[ie, 0])
        self.minus = EdgeSide(self, ie, mesh.edge_cells[ie, 1])

        # The inside cell of a Dirichlet edge is whichever adjacent cell
        # belongs to the patch; orient the stored normal outward from it.
        # Boundary edges of the global mesh already point outward from their
        # only cell; interior edges point K+ -> K-.
        c0, c1 = mesh.edge_cells[de, 0], mesh.edge_cells[de, 1]
        in0 = self.local_of[c0] >= 0
        sign = np.where(c1 < 0, 1.0, np.where(in0, 1.0, -1.0))
        self.dir_len = mesh.edge_length[de]
        self.dir_normal = mesh.edge_normal[de] * sign[:, None]
        self.dir_side = mesh.edge_side[de]
        self.dirichlet = EdgeSide(self, de, np.where(in0, c0, c1))

        self.nat_len = mesh.edge_length[ng]
        self.natural = EdgeSide(self, ng, mesh.edge_cells[ng, 0])

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def n_vdof(self):
        return 6 * self.n_cells

    @property
    def n_pdof(self):
        return self.n_cells


def bisect_cells(xy, cells, edges):
    """Split `cells` at the median of their centroids `xy[cells]` along the
    wider extent.  Returns (low, high, separator): the cells of the lower
    half that share an edge of `edges` (cell pairs) with the upper half form
    the separator, so no such edge joins `low` to `high`."""
    pts = xy[cells]
    axis = np.argmax(np.ptp(pts, axis=0))
    ranked = cells[np.argsort(pts[:, axis], kind="stable")]
    low, high = ranked[: len(cells) // 2], ranked[len(cells) // 2 :]
    in_high = np.zeros(len(xy), dtype=bool)
    in_high[high] = True
    cut = in_high[edges[:, 0]] != in_high[edges[:, 1]]
    on_cut = np.zeros(len(xy), dtype=bool)
    on_cut[edges[cut][~in_high[edges[cut]]]] = True
    return low[~on_cut[low]], high, low[on_cut[low]]


ND_LEAF_CELLS = 8


def nested_dissection_order(xy, edges, leaf):
    """Elimination order of the cells 0..len(xy)-1, with centroids xy, by
    recursive coordinate bisection over the cell graph whose edges are the
    cell pairs `edges`: each part is ordered as its lower half, its upper
    half, then the separator between them, down to parts of at most `leaf`
    cells (George, SIAM J. Numer. Anal. 1973)."""
    part = np.full(len(xy), -1, dtype=np.int64)
    order = []

    def dissect(cells, edges):
        if len(cells) <= leaf:
            order.append(cells)
            return
        low, high, separator = bisect_cells(xy, cells, edges)
        part[low], part[high], part[separator] = 0, 1, 2
        side = part[edges]  # a copy: the recursion below reuses `part`
        dissect(low, edges[(side == 0).all(axis=1)])
        dissect(high, edges[(side == 1).all(axis=1)])
        order.append(separator)

    dissect(np.arange(len(xy)), edges)
    return np.concatenate(order)


def coarse_cell_order(coarse):
    """Nested-dissection order of the coarse cells over the cells that share
    an edge, down to single cells: each coarse cell is already a dense block
    of the coarse saddle matrix, so larger leaves only add fill."""
    x0, y0, x1, y1 = coarse.bbox
    iy, ix = np.divmod(np.arange(coarse.n_cells), coarse.nx)
    xy = np.column_stack(
        [x0 + (ix + 0.5) * (x1 - x0) / coarse.nx, y0 + (iy + 0.5) * (y1 - y0) / coarse.ny]
    )
    cells = np.arange(coarse.n_cells).reshape(coarse.ny, coarse.nx)
    edges = np.concatenate(
        [
            np.column_stack([cells[:, :-1].ravel(), cells[:, 1:].ravel()]),  # side by side
            np.column_stack([cells[:-1].ravel(), cells[1:].ravel()]),  # one above the other
        ]
    )
    return nested_dissection_order(xy, edges, 1)


def edge_split(mesh, cells):
    """Classify mesh edges against a cell set.

    Returns (interior, boundary): edges with both adjacent cells in the set,
    and edges with exactly one (global boundary edges of set cells included).
    """
    # extra slot absorbs the -1 marker of global boundary edges
    inset = np.zeros(mesh.n_cells + 1, dtype=bool)
    inset[cells] = True
    c0 = mesh.edge_cells[:, 0]
    c1 = mesh.edge_cells[:, 1]
    in0 = inset[c0]
    in1 = (c1 >= 0) & inset[c1]
    both = in0 & in1
    one = in0 ^ in1
    return np.nonzero(both)[0], np.nonzero(one)[0]


def full_patch(mesh):
    """Patch covering the whole mesh: velocity sides Dirichlet, outflow natural."""
    cells = np.arange(mesh.n_cells)
    interior = np.nonzero(mesh.edge_cells[:, 1] >= 0)[0]
    boundary = mesh.edge_side != INTERIOR
    dirichlet = np.nonzero(np.isin(mesh.edge_side, DIRICHLET_SIDES))[0]
    natural = np.nonzero(boundary & ~np.isin(mesh.edge_side, DIRICHLET_SIDES))[0]
    return Patch(mesh, cells, dirichlet, interior, natural)


def coarse_cell_patch(mesh, coarse, i, oversampled=False):
    """Patch over coarse cell i (or its oversampled neighborhood); every
    bounding facet is a Dirichlet edge for the local problems."""
    if oversampled:
        ids = oversample_region(coarse, i)
        cells = np.concatenate([coarse.cell_fine[j] for j in ids])
        cells.sort()
    else:
        cells = coarse.cell_fine[int(i)]
    interior, boundary = edge_split(mesh, cells)
    return Patch(mesh, cells, boundary, interior)

