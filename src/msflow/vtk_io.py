"""Legacy ASCII VTK export of mesh and fields, plus a reader for the files
this package writes (round-trips the discontinuous velocity bit-exactly)."""

import numpy as np

from .atomic import atomic_write
from .errors import MeshFormatError
from .parameters import DGState


def _fmt(x):
    # repr of a Python float round-trips exactly, which the re-import relies on
    return repr(float(x))


def vertex_averaged_velocity(mesh, state):
    """Average the discontinuous vertex values over adjacent cells, for
    visualization only."""
    out = np.zeros((mesh.n_verts, 2))
    count = np.zeros(mesh.n_verts)
    coefs = state.velocity.reshape(mesh.n_cells, 3, 2)
    for a in range(3):
        np.add.at(out, mesh.cells[:, a], coefs[:, a, :])
        np.add.at(count, mesh.cells[:, a], 1.0)
    count[count == 0] = 1.0
    return out / count[:, None]


def export_vtk(mesh, state, path, title="msflow fields"):
    """Write an unstructured-grid VTK file with cell pressure, region tags,
    the raw 6-coefficient DG velocity as cell data and a vertex-averaged
    velocity as point data."""
    state.validate(mesh.n_cells)
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_verts} double",
    ]
    for x, y in mesh.verts:
        lines.append(f"{_fmt(x)} {_fmt(y)} 0.0")
    lines.append(f"CELLS {mesh.n_cells} {4 * mesh.n_cells}")
    for v in mesh.cells:
        lines.append(f"3 {v[0]} {v[1]} {v[2]}")
    lines.append(f"CELL_TYPES {mesh.n_cells}")
    lines.extend(["5"] * mesh.n_cells)

    lines.append(f"CELL_DATA {mesh.n_cells}")
    lines.append("SCALARS pressure double 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(_fmt(p) for p in state.pressure)
    lines.append("SCALARS region int 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(str(int(r)) for r in mesh.region)
    lines.append("FIELD dgdata 1")
    lines.append(f"velocity_dg 6 {mesh.n_cells} double")
    coefs = state.velocity.reshape(mesh.n_cells, 6)
    for row in coefs:
        lines.append(" ".join(_fmt(v) for v in row))

    lines.append(f"POINT_DATA {mesh.n_verts}")
    lines.append("VECTORS velocity double")
    for vx, vy in vertex_averaged_velocity(mesh, state):
        lines.append(f"{_fmt(vx)} {_fmt(vy)} 0.0")
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


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
