import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from msflow.errors import SingularSystemError
from msflow.fine_solver import StepOperators
from msflow.geometry import generate_structured_mesh
from msflow.parameters import BoundaryData
from msflow.saddle import (
    RESIDUAL_TOL,
    SaddleSolver,
    SaddleSystem,
    relative_residual,
    solve_saddle,
)

from conftest import desk_domain, make_params, tiny_heterogeneous


def toy_system(n=4, rng=None):
    rng = rng or np.random.default_rng(0)
    eye = sp.identity(n, format="csr")
    zero = sp.csr_matrix((n, n))
    b = sp.identity(n, format="csr")
    f_u = rng.standard_normal(n)
    f_p = rng.standard_normal(n)
    return SaddleSystem(eye, zero, zero, b, f_u, f_p)


def test_identity_blocks():
    # [[I, I], [I, 0]]: velocity equals the continuity data, pressure the rest
    system = toy_system()
    u, p = solve_saddle(system)
    assert np.allclose(u, system.f_p, atol=1e-12)
    assert np.allclose(p, system.f_u - system.f_p, atol=1e-12)


def test_empty_pressure_reduces_to_velocity_solve():
    rng = np.random.default_rng(3)
    n = 12
    raw = rng.standard_normal((n, n))
    spd = raw @ raw.T + n * np.eye(n)
    zero = sp.csr_matrix((n, n))
    system = SaddleSystem(
        sp.csr_matrix(spd), zero, zero, sp.csr_matrix((0, n)),
        rng.standard_normal(n), np.zeros(0),
    )
    u, p = solve_saddle(system)
    assert p.size == 0
    expected = np.linalg.solve(spd, system.f_u)
    assert np.max(np.abs(u - expected)) < 1e-11 * np.max(np.abs(expected))


def test_block_transpose_consistency():
    rng = np.random.default_rng(5)
    nu, npr = 10, 3
    raw = rng.standard_normal((nu, nu))
    spd = sp.csr_matrix(raw @ raw.T + nu * np.eye(nu))
    b = sp.csr_matrix(rng.standard_normal((npr, nu)))
    zero = sp.csr_matrix((nu, nu))
    system = SaddleSystem(spd, zero, zero, b, rng.standard_normal(nu), rng.standard_normal(npr))
    u, p = solve_saddle(system)
    # momentum row uses B^T, continuity row uses B
    upper = system.velocity_block()
    assert np.max(np.abs(upper @ u + b.T @ p - system.f_u)) < 1e-9
    assert np.max(np.abs(b @ u - system.f_p)) < 1e-9


def test_singular_system_reported():
    n = 3
    zero = sp.csr_matrix((n, n))
    singular = sp.csr_matrix(np.zeros((n, n)))
    system = SaddleSystem(singular, zero, zero, sp.csr_matrix((0, n)), np.ones(n), np.zeros(0))
    with pytest.raises(SingularSystemError):
        solve_saddle(system)


def test_nan_rhs_rejected():
    system = toy_system()
    solver = SaddleSolver(system)
    bad = system.f_u.copy()
    bad[0] = np.nan
    with pytest.raises(SingularSystemError, match="non-finite"):
        solver.solve(bad, system.f_p)


def test_shape_validation():
    n = 4
    eye = sp.identity(n, format="csr")
    with pytest.raises(ValueError):
        SaddleSystem(eye, eye, sp.identity(n + 1, format="csr"),
                     sp.csr_matrix((2, n)), np.zeros(n), np.zeros(2))


def test_mass_symmetry_check():
    n = 4
    skew = sp.csr_matrix(np.triu(np.ones((n, n)), 1))
    zero = sp.csr_matrix((n, n))
    system = SaddleSystem(skew, zero, zero, sp.csr_matrix((0, n)), np.zeros(n), np.zeros(0))
    with pytest.raises(ValueError, match="asymmetry"):
        system.check_mass_symmetry()


def test_batch_solve_matches_single():
    rng = np.random.default_rng(11)
    system = toy_system(rng=rng)
    solver = SaddleSolver(system)
    rhs_u = rng.standard_normal((4, 5))
    rhs_p = rng.standard_normal((4, 5))
    us, ps, res = solver.solve_many(rhs_u, rhs_p)
    assert np.all(res < 1e-12)
    for j in range(5):
        u, p = solver.solve(rhs_u[:, j], rhs_p[:, j])
        assert np.allclose(us[:, j], u)
        assert np.allclose(ps[:, j], p)


def test_relative_residual_is_per_column():
    rng = np.random.default_rng(12)
    matrix = sp.csr_matrix(rng.standard_normal((6, 6)))
    x = rng.standard_normal((6, 3))
    rhs = rng.standard_normal((6, 3))
    rel = relative_residual(matrix, x, rhs, 2.0)
    assert rel.shape == (3,)
    for j in range(3):
        one = relative_residual(matrix, x[:, j], rhs[:, j], 2.0)
        expect = np.linalg.norm(matrix @ x[:, j] - rhs[:, j]) / max(
            np.linalg.norm(rhs[:, j]), 2.0 * np.linalg.norm(x[:, j])
        )
        assert one == pytest.approx(rel[j], rel=1e-14)
        assert one == pytest.approx(expect, rel=1e-14)
    assert relative_residual(matrix, np.zeros(6), np.zeros(6), 1.0) == 0.0


def _step_system(mesh, params):
    """The step-2 system of a nonlinear fine run (convection and drag
    linearized at the step-1 velocity) and its right-hand side."""
    bc = BoundaryData.inflow((1.0, 0.0))
    ops = StepOperators(mesh, params, bc)
    u1, _ = SaddleSolver(ops.system(np.zeros(ops.patch.n_vdof))).solve()
    system = ops.system(u1)
    return system, ops.mass @ u1 + ops.f_u


@pytest.mark.parametrize("case", ["tiny_heterogeneous", "desk"])
def test_cell_ordered_solve_matches_colamd_with_less_fill(case):
    if case == "desk":
        mesh, _ = generate_structured_mesh(desk_domain(), 8, (4, 4))
    else:
        mesh, _ = tiny_heterogeneous()
    system, rhs_u = _step_system(mesh, make_params(tau=2e-4))
    assert system.cell_order is not None
    ordered = SaddleSolver(system)
    colamd = SaddleSolver(dataclasses.replace(system, cell_order=None))
    assert ordered.perm is not None and colamd.perm is None
    x_ord = np.concatenate(ordered.solve(rhs_u, system.f_p))
    x_col = np.concatenate(colamd.solve(rhs_u, system.f_p))
    assert np.linalg.norm(x_ord - x_col) <= 1e-12 * np.linalg.norm(x_col)
    _, _, rel = ordered.solve_many(rhs_u[:, None], system.f_p[:, None])
    assert rel[0] <= RESIDUAL_TOL
    fill = lambda s: s.lu.L.nnz + s.lu.U.nnz
    assert fill(ordered) < fill(colamd)


def test_pinned_system_ignores_cell_order():
    mesh, _ = tiny_heterogeneous()
    system, rhs_u = _step_system(mesh, make_params())
    pinned = SaddleSolver(system, pin_pressure=True)
    plain = SaddleSolver(dataclasses.replace(system, cell_order=None), pin_pressure=True)
    assert pinned.perm is None
    for a, b in zip(
        pinned.solve_many(rhs_u[:, None], system.f_p[:, None]),
        plain.solve_many(rhs_u[:, None], system.f_p[:, None]),
    ):
        assert np.array_equal(a, b)


def test_cell_order_must_permute_the_cells():
    mesh, _ = tiny_heterogeneous()
    system, _ = _step_system(mesh, make_params())
    order = system.cell_order.copy()
    order[0] = order[1]
    with pytest.raises(ValueError, match="cell_order"):
        dataclasses.replace(system, cell_order=order)
