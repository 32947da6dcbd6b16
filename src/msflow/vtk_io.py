"""Legacy ASCII VTK export of mesh and fields, plus a reader for the files
this package writes (round-trips the discontinuous velocity bit-exactly)."""

import numpy as np

from .atomic import atomic_write
from .errors import MeshFormatError
from .parameters import DGState


def vertex_averaged_velocity(mesh, state):
    """Average the discontinuous vertex values over adjacent cells, for
    visualization only.  Each vertex sums its cells' values in the order
    (cell vertex a, then cell), one bincount over both components."""
    order = mesh.cells.T.ravel()  # cells[:, 0], then cells[:, 1], then cells[:, 2]
    coefs = state.velocity.reshape(mesh.n_cells, 3, 2).transpose(1, 0, 2).ravel()
    bins = (2 * order[:, None] + np.arange(2)).ravel()
    out = np.bincount(bins, weights=coefs, minlength=2 * mesh.n_verts).reshape(-1, 2)
    count = np.bincount(order, minlength=mesh.n_verts).astype(float)
    count[count == 0] = 1.0
    return out / count[:, None]


# Rows formatted per write: a block's Python values are all that is alive.
WRITE_BLOCK = 4096


def _write_rows(fh, line, array):
    """Write line.format(*row) for every row of a 2-D array, from tolist()
    values, WRITE_BLOCK rows at a time."""
    for start in range(0, len(array), WRITE_BLOCK):
        fh.write("".join(line.format(*row) for row in array[start : start + WRITE_BLOCK].tolist()))


def export_vtk(mesh, state, path, title="msflow fields"):
    """Write an unstructured-grid VTK file with cell pressure, region tags,
    the raw 6-coefficient DG velocity as cell data and a vertex-averaged
    velocity as point data.  Every float is written as the repr of a Python
    float, which round-trips exactly; the re-import relies on that."""
    state.validate(mesh.n_cells)
    n, n_verts = mesh.n_cells, mesh.n_verts
    with atomic_write(path) as fh:
        fh.write(f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {n_verts} double\n")
        _write_rows(fh, "{!r} {!r} 0.0\n", mesh.verts.astype(float, copy=False))
        fh.write(f"CELLS {n} {4 * n}\n")
        _write_rows(fh, "3 {} {} {}\n", mesh.cells)
        fh.write(f"CELL_TYPES {n}\n" + "5\n" * n)
        fh.write(f"CELL_DATA {n}\nSCALARS pressure double 1\nLOOKUP_TABLE default\n")
        _write_rows(fh, "{!r}\n", state.pressure.astype(float, copy=False)[:, None])
        fh.write("SCALARS region int 1\nLOOKUP_TABLE default\n")
        _write_rows(fh, "{}\n", mesh.region[:, None])
        fh.write(f"FIELD dgdata 1\nvelocity_dg 6 {n} double\n")
        _write_rows(fh, " ".join(["{!r}"] * 6) + "\n", state.velocity.astype(float, copy=False).reshape(n, 6))
        fh.write(f"POINT_DATA {n_verts}\nVECTORS velocity double\n")
        _write_rows(fh, "{!r} {!r} 0.0\n", vertex_averaged_velocity(mesh, state))


def read_vtk_state(path):
    """Read back a file written by export_vtk.

    Returns (points, cells, DGState, region).
    """
    with open(path, errors="replace") as fh:
        lines = [(n, ln.strip()) for n, ln in enumerate(fh, 1) if ln.strip()]
    lines.append(("eof", "<eof>"))
    idx = 0

    def fail(msg):
        raise MeshFormatError(f"{path}:{lines[idx][0]}: {msg}")

    def expect(prefix, counted=False):
        """Step over the next line, which must start with prefix and, when
        counted, give a row count as its second word; returns that count."""
        nonlocal idx
        tok = lines[idx][1].split()
        if lines[idx][0] == "eof" or not lines[idx][1].startswith(prefix) or (
            counted and not (len(tok) > 1 and tok[1].isdecimal())
        ):
            fail(f"expected {prefix + (' <count>' if counted else '')!r}, got {lines[idx][1]!r}")
        idx += 1
        return int(tok[1]) if counted else None

    def rows(n_rows, width, kind):
        """The next n_rows lines as an (n_rows, width) array of kind."""
        nonlocal idx
        out = np.empty((n_rows, width), dtype=kind)
        for k in range(n_rows):
            tok = lines[idx][1].split()
            if lines[idx][0] == "eof" or len(tok) != width:
                fail(f"expected a row of {width} values, got {lines[idx][1]!r}")
            try:
                out[k] = [kind(v) for v in tok]
            except ValueError as exc:
                fail(str(exc))
            idx += 1
        return out

    expect("# vtk DataFile Version")
    expect("")  # title
    expect("ASCII")
    expect("DATASET UNSTRUCTURED_GRID")
    points = rows(expect("POINTS", counted=True), 3, float)[:, :2]
    n_cells = expect("CELLS", counted=True)
    cells = rows(n_cells, 4, int)[:, 1:].astype(np.int64)
    expect("CELL_TYPES")
    rows(n_cells, 1, int)
    expect("CELL_DATA")
    expect("SCALARS pressure")
    expect("LOOKUP_TABLE")
    pressure = rows(n_cells, 1, float)[:, 0]
    expect("SCALARS region")
    expect("LOOKUP_TABLE")
    region = rows(n_cells, 1, int)[:, 0].astype(np.int8)
    expect("FIELD")
    expect("velocity_dg")
    velocity = rows(n_cells, 6, float).ravel()
    return points, cells, DGState(velocity, pressure), region
