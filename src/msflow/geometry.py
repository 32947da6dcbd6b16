"""Heterogeneous domain description, fine triangulations and the coarse overlay.

The fine mesh carries per-cell region tags (fluid / porous) and a coarse-cell
id; oriented edge topology is built explicitly because the DG forms need a
fixed plus/minus convention on every interior edge.  It takes no loop over
cells or edges: one stable sort of the cells' vertex pairs groups each
edge's cells, and the rest are array expressions over the edges.
"""

import numpy as np
from dataclasses import dataclass, field

from .atomic import atomic_write
from .errors import MeshFormatError

FLUID = 0
POROUS = 1

# Boundary side codes.  The outer boundary splits into a velocity (Dirichlet)
# part on the left/bottom/top sides and a zero-stress outflow on the right.
INTERIOR = -1
LEFT, RIGHT, BOTTOM, TOP = 0, 1, 2, 3
SIDE_NAMES = {LEFT: "left", RIGHT: "right", BOTTOM: "bottom", TOP: "top"}
SIDE_CODES = {v: k for k, v in SIDE_NAMES.items()}
DIRICHLET_SIDES = (LEFT, BOTTOM, TOP)


@dataclass(frozen=True)
class CircleInclusion:
    """A circular porous inclusion with center (cx, cy) and radius r > 0."""

    cx: float
    cy: float
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"inclusion radius must be positive, got {self.radius}")

    def contains(self, pts):
        pts = np.atleast_2d(pts)
        d2 = (pts[:, 0] - self.cx) ** 2 + (pts[:, 1] - self.cy) ** 2
        return d2 <= self.radius**2


@dataclass
class DomainSpec:
    """Rectangular domain with non-overlapping circular porous inclusions."""

    bbox: tuple  # (x0, y0, x1, y1)
    inclusions: list = field(default_factory=list)

    def __post_init__(self):
        x0, y0, x1, y1 = self.bbox
        if not (x1 > x0 and y1 > y0):
            raise ValueError(f"domain bbox has no area: {self.bbox}")
        for inc in self.inclusions:
            if (
                inc.cx - inc.radius <= x0
                or inc.cx + inc.radius >= x1
                or inc.cy - inc.radius <= y0
                or inc.cy + inc.radius >= y1
            ):
                raise ValueError(
                    f"inclusion at ({inc.cx}, {inc.cy}) r={inc.radius} "
                    "is not strictly inside the domain"
                )
        for i, a in enumerate(self.inclusions):
            for b in self.inclusions[i + 1 :]:
                dist = np.hypot(a.cx - b.cx, a.cy - b.cy)
                if dist <= a.radius + b.radius:
                    raise ValueError(
                        f"inclusions at ({a.cx}, {a.cy}) and ({b.cx}, {b.cy}) overlap"
                    )

    def porous_mask(self, pts):
        """True for points inside any inclusion disk (closed)."""
        pts = np.atleast_2d(pts)
        mask = np.zeros(len(pts), dtype=bool)
        for inc in self.inclusions:
            mask |= inc.contains(pts)
        return mask


class TriMesh:
    """Fine triangulation with region tags, coarse ids and oriented edges.

    The constructor checks the cells (existing vertices, counter-clockwise)
    and builds the five edge arrays of _edge_topology; a fault raises
    MeshFormatError naming the first bad cell or edge.
    """

    def __init__(self, verts, cells, region, coarse_id, bbox):
        self.verts = np.asarray(verts, dtype=float)
        self.cells = np.asarray(cells, dtype=np.int64)
        self.region = np.asarray(region, dtype=np.int8)
        self.coarse_id = np.asarray(coarse_id, dtype=np.int64)
        self.bbox = tuple(float(v) for v in bbox)
        missing = ((self.cells < 0) | (self.cells >= len(self.verts))).any(axis=1)
        if missing.any():
            raise MeshFormatError(f"cell {int(np.argmax(missing))} references a missing vertex")
        self._compute_cell_geometry()
        edges = _edge_topology(self)
        self.edge_verts, self.edge_cells, self.edge_normal, self.edge_length, self.edge_side = edges

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def n_verts(self):
        return len(self.verts)

    @property
    def n_edges(self):
        return len(self.edge_verts)

    def _compute_cell_geometry(self):
        p = self.verts[self.cells]  # (nc, 3, 2)
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        area2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        if np.any(area2 <= 0.0):
            bad = int(np.argmax(area2 <= 0.0))
            raise MeshFormatError(f"cell {bad} is degenerate or not counter-clockwise")
        self.area = 0.5 * area2
        self.centroid = p.mean(axis=1)
        # Gradient of the barycentric function of each local vertex.
        grad = np.empty((self.n_cells, 3, 2))
        for a in range(3):
            b, c = (a + 1) % 3, (a + 2) % 3
            grad[:, a, 0] = p[:, b, 1] - p[:, c, 1]
            grad[:, a, 1] = p[:, c, 0] - p[:, b, 0]
        self.grad = grad / area2[:, None, None]

    def xi(self, porosity):
        """Per-cell permeability indicator: 1 on fluid cells, porosity on porous."""
        return np.where(self.region == POROUS, porosity, 1.0)


class CoarseGrid:
    """Structured rectangular coarse overlay of the fine triangulation.

    cell_fine[i] lists the fine cells of coarse cell i in ascending order (a
    stable sort of the coarse ids) and is read-only: patches and cell bases
    share its memory.
    """

    def __init__(self, nx, ny, bbox, mesh):
        self.nx = int(nx)
        self.ny = int(ny)
        self.bbox = tuple(float(v) for v in bbox)
        if self.nx < 1 or self.ny < 1:
            raise ValueError("coarse dimensions must be at least 1x1")
        ids = mesh.coarse_id
        off_grid = (ids < 0) | (ids >= self.n_cells)
        if off_grid.any():
            cell = int(np.argmax(off_grid))
            grid = f"{self.nx}x{self.ny}"
            raise MeshFormatError(f"fine cell {cell} has coarse id {ids[cell]} outside the {grid} grid")
        order = np.argsort(ids, kind="stable")
        bounds = np.searchsorted(ids[order], np.arange(self.n_cells + 1))
        counts = np.diff(bounds)
        if not counts.all():
            raise MeshFormatError(f"coarse cell {int(np.argmin(counts))} has no fine cells")
        order.flags.writeable = False
        self.cell_fine = [order[bounds[i] : bounds[i + 1]] for i in range(self.n_cells)]
        self.cell_area = np.array([mesh.area[f].sum() for f in self.cell_fine])

    @property
    def n_cells(self):
        return self.nx * self.ny


def grid_cell(pts, bbox, nx, ny):
    """Index iy * nx + ix of the cell of the nx x ny grid over bbox that
    contains each point; a point outside bbox goes to the nearest cell."""
    x0, y0, x1, y1 = bbox
    pts = np.atleast_2d(pts)
    ix = np.clip(np.floor((pts[:, 0] - x0) / (x1 - x0) * nx).astype(np.int64), 0, nx - 1)
    iy = np.clip(np.floor((pts[:, 1] - y0) / (y1 - y0) * ny).astype(np.int64), 0, ny - 1)
    return iy * nx + ix


def oversample_region(coarse, i):
    """Indices of the coarse cell i plus its vertex-neighbor ring, clipped
    at the domain boundary."""
    if not 0 <= i < coarse.n_cells:
        raise IndexError(f"coarse cell index {i} out of range")
    iy, ix = divmod(int(i), coarse.nx)
    out = []
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            jx, jy = ix + dx, iy + dy
            if 0 <= jx < coarse.nx and 0 <= jy < coarse.ny:
                out.append(jy * coarse.nx + jx)
    return sorted(out)


def _edge_topology(mesh):
    """The oriented edge arrays of a mesh with its cell geometry: (ne, 2)
    edge_verts, (ne, 2) edge_cells, (ne, 2) unit edge_normal, (ne,)
    edge_length and (ne,) edge_side, INTERIOR or a side code.

    Edges are numbered in the order of their (lower, higher) vertex ids.
    Interior edges store (K+, K-) with the lower cell index as K+ and the
    unit normal pointing from K+ into K-.  Boundary edges store the single
    adjacent cell (K- is -1), an outward normal and the bounding-box side
    they lie on.  An edge of more than two cells, or on the boundary but off
    every bbox side, raises MeshFormatError naming the first such edge.
    """
    # Triple 3c + a is the edge of cell c opposite its vertex a.
    ends = mesh.cells[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2)
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    key = lo * mesh.n_verts + hi
    order = np.argsort(key, kind="stable")  # cells ascending within an edge
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    count = np.diff(first, append=len(key))
    cell = order // 3

    edge_verts = np.column_stack([lo[order[first]], hi[order[first]]])
    edge_cells = np.full((len(first), 2), -1, dtype=np.int64)
    edge_cells[:, 0] = cell[first]
    inner = count > 1
    edge_cells[inner, 1] = cell[first[inner] + 1]

    pa, pb = mesh.verts[edge_verts[:, 0]], mesh.verts[edge_verts[:, 1]]
    t = pb - pa
    edge_length = np.hypot(t[:, 0], t[:, 1])
    mid = 0.5 * (pa + pb)

    x0, y0, x1, y1 = mesh.bbox
    tol = 1e-9 * max(x1 - x0, y1 - y0)
    on_side = [
        (abs(pa[:, axis] - value) < tol) & (abs(pb[:, axis] - value) < tol)
        for axis, value in ((0, x0), (0, x1), (1, y0), (1, y1))
    ]
    side = np.select(on_side, [LEFT, RIGHT, BOTTOM, TOP], default=INTERIOR)
    off_bbox = ~inner & (side == INTERIOR)
    faults = (count > 2) | off_bbox
    if faults.any():
        e = int(np.argmax(faults))
        edge = tuple(int(v) for v in edge_verts[e])
        if count[e] > 2:
            raise MeshFormatError(f"edge {edge} shared by more than two cells")
        raise MeshFormatError(f"boundary edge {edge} near {mid[e]} does not lie on a bbox side")

    normal = np.column_stack([t[:, 1], -t[:, 0]]) / edge_length[:, None]
    # Point away from K+ (or the only cell): toward K-, or the edge midpoint.
    away = np.where(inner[:, None], mesh.centroid[edge_cells[:, 1]], mid)
    away = away - mesh.centroid[edge_cells[:, 0]]
    flip = normal[:, 0] * away[:, 0] + normal[:, 1] * away[:, 1] < 0.0

    side = np.where(inner, INTERIOR, side).astype(np.int8)
    return edge_verts, edge_cells, np.where(flip[:, None], -normal, normal), edge_length, side


def generate_structured_mesh(domain, n_per_coarse, coarse_dims):
    """Uniform triangulation conforming to a structured coarse grid.

    Each coarse cell splits into n_per_coarse x n_per_coarse squares and each
    square into two triangles.  Cells are tagged porous when their centroid
    lies inside an inclusion disk, so circle boundaries are resolved only to
    O(h); use load_mesh for externally fitted meshes.
    """
    nx, ny = coarse_dims
    n = int(n_per_coarse)
    if n < 1 or nx < 1 or ny < 1:
        raise ValueError("n_per_coarse and coarse dimensions must be >= 1")
    x0, y0, x1, y1 = domain.bbox
    ax, ay = nx * n, ny * n

    xs = np.linspace(x0, x1, ax + 1)
    ys = np.linspace(y0, y1, ay + 1)
    xx, yy = np.meshgrid(xs, ys, indexing="xy")
    verts = np.column_stack([xx.ravel(), yy.ravel()])

    # Square (i, j), row by row, splits into cells 2k and 2k + 1, k = j ax + i.
    j, i = np.divmod(np.arange(ax * ay), ax)
    v00 = j * (ax + 1) + i
    v10, v01 = v00 + 1, v00 + ax + 1
    v11 = v01 + 1
    cells = np.empty((2 * ax * ay, 3), dtype=np.int64)
    cells[0::2] = np.column_stack([v00, v10, v11])
    cells[1::2] = np.column_stack([v00, v11, v01])

    centroids = verts[cells].mean(axis=1)
    region = np.where(domain.porous_mask(centroids), POROUS, FLUID)
    mesh = TriMesh(verts, cells, region, grid_cell(centroids, domain.bbox, nx, ny), domain.bbox)
    coarse = CoarseGrid(nx, ny, domain.bbox, mesh)
    return mesh, coarse


REGION_NAMES = {FLUID: "fluid", POROUS: "porous"}
REGION_CODES = {v: k for k, v in REGION_NAMES.items()}


def save_mesh(path, mesh, coarse):
    """Write the line-oriented mesh text format (header `msflow-mesh v1`)."""
    lines = ["msflow-mesh v1", f"coarse {coarse.nx} {coarse.ny}"]
    lines.append(f"vertices {mesh.n_verts}")
    for i, (x, y) in enumerate(mesh.verts):
        lines.append(f"{i} {float(x)!r} {float(y)!r}")
    lines.append(f"cells {mesh.n_cells}")
    for c in range(mesh.n_cells):
        v = mesh.cells[c]
        lines.append(
            f"{c} {v[0]} {v[1]} {v[2]} "
            f"{REGION_NAMES[int(mesh.region[c])]} {mesh.coarse_id[c]}"
        )
    boundary = np.nonzero(mesh.edge_side != INTERIOR)[0]
    lines.append(f"boundary {len(boundary)}")
    for e in boundary:
        va, vb = mesh.edge_verts[e]
        lines.append(f"{va} {vb} {SIDE_NAMES[int(mesh.edge_side[e])]}")
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh(path):
    """Read the mesh text format and rebuild topology.

    The coarse overlay comes from the file's `coarse nx ny` line; each
    cell's coarse id must be the grid cell of its centroid.  Every
    MeshFormatError starts with the file's path.
    """
    with open(path, errors="replace") as fh:
        raw = fh.read().splitlines()

    def fail(lineno, msg):
        raise MeshFormatError(f"{path}:{lineno + 1}: {msg}")

    def number(lineno, kind, text):
        try:
            value = kind(text)
        except ValueError:
            fail(lineno, f"{text!r} is not {'an integer' if kind is int else 'a number'}")
        if not np.isfinite(value):
            fail(lineno, f"{text!r} is not finite")
        return value

    def section(i, what):
        """(line index, tokens) of each row of the section headed at line i;
        rows starting with an id come in id order, and the ids must run over
        0..count-1, each exactly once."""
        head = raw[i].split()
        if len(head) != 2 or not head[1].isdecimal():
            fail(i, f"expected '{head[0]} <count>'")
        count = int(head[1])
        if i + count >= len(raw):
            fail(len(raw) - 1, f"{head[0]} section ends after {len(raw) - 1 - i} of {count} rows")
        rows = [(n, raw[n].split()) for n in range(i + 1, i + 1 + count)]
        for n, t in rows:
            if len(t) != len(what.split()):
                fail(n, f"expected '{what}'")
        if not what.startswith("id "):
            return rows
        by_id = [None] * count
        for n, t in rows:
            c = number(n, int, t[0])
            if not 0 <= c < count:
                fail(n, f"id {c} outside 0..{count - 1}")
            if by_id[c] is not None:
                fail(n, f"id {c} already given on line {by_id[c][0] + 1}")
            by_id[c] = (n, t)
        return by_id

    if not raw or raw[0].strip() != "msflow-mesh v1":
        fail(0, "missing 'msflow-mesh v1' header")

    verts = cells = region = coarse_id = dims = None
    boundary_labels = {}
    i = 1
    while i < len(raw):
        line = raw[i].strip()
        if not line or line.startswith("#"):
            i += 1
            continue
        tok = line.split()
        rows = []
        if tok[0] == "coarse":
            if len(tok) != 3:
                fail(i, "expected 'coarse nx ny'")
            dims = (number(i, int, tok[1]), number(i, int, tok[2]))
            if min(dims) < 1:
                fail(i, "coarse dimensions must be at least 1")
        elif tok[0] == "vertices":
            rows = section(i, "id x y")
            verts = np.array([[number(n, float, v) for v in t[1:]] for n, t in rows])
        elif tok[0] == "cells":
            rows = section(i, "id v0 v1 v2 region coarse_id")
            for n, t in rows:
                if t[4] not in REGION_CODES:
                    fail(n, f"unknown region tag {t[4]!r}")
            cells = np.array([[number(n, int, v) for v in t[1:4]] for n, t in rows], dtype=np.int64)
            region = np.array([REGION_CODES[t[4]] for _, t in rows], dtype=np.int8)
            coarse_id = np.array([number(n, int, t[5]) for n, t in rows], dtype=np.int64)
        elif tok[0] == "boundary":
            rows = section(i, "v0 v1 side")
            for n, t in rows:
                if t[2] not in SIDE_CODES:
                    fail(n, "expected 'v0 v1 side'")
                va, vb = number(n, int, t[0]), number(n, int, t[1])
                boundary_labels[(min(va, vb), max(va, vb))] = SIDE_CODES[t[2]]
        else:
            fail(i, f"unknown section {tok[0]!r}")
        i += 1 + len(rows)

    if verts is None or cells is None or not len(verts) or not len(cells):
        raise MeshFormatError(f"{path}: missing or empty vertices or cells section")
    if dims is None:
        raise MeshFormatError(f"{path}: no 'coarse nx ny' line")

    bbox = (verts[:, 0].min(), verts[:, 1].min(), verts[:, 0].max(), verts[:, 1].max())
    try:
        mesh = TriMesh(verts, cells, region, coarse_id, bbox)
        for key, side in boundary_labels.items():
            e = np.flatnonzero(np.all(mesh.edge_verts == key, axis=1))
            if len(e) != 1 or mesh.edge_side[e[0]] == INTERIOR:
                raise MeshFormatError(f"listed boundary edge {key} is not a boundary edge")
            if mesh.edge_side[e[0]] != side:
                lies = SIDE_NAMES[int(mesh.edge_side[e[0]])]
                message = f"boundary edge {key} labelled {SIDE_NAMES[side]} but lies on {lies}"
                raise MeshFormatError(message)
        coarse = CoarseGrid(dims[0], dims[1], bbox, mesh)
        expect = grid_cell(mesh.centroid, bbox, *dims)
        if np.any(expect != coarse_id):
            bad = int(np.argmax(expect != coarse_id))
            raise MeshFormatError(
                f"cell {bad}: coarse id {coarse_id[bad]} does not match "
                f"its centroid location {expect[bad]}"
            )
    except MeshFormatError as exc:
        raise MeshFormatError(f"{path}: {exc}") from exc
    return mesh, coarse
