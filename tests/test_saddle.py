import dataclasses
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from msflow import analysis, forms, gmsfem, saddle
from msflow.config import parse_config
from msflow.errors import SingularSystemError
from msflow.fine_solver import StepOperators
from msflow.geometry import generate_structured_mesh
from msflow.parameters import BoundaryData, preset_parameters
from msflow.saddle import (
    KEPT_MAX,
    KEPT_MIN,
    REFINE_TARGET,
    RESIDUAL_TOL,
    SINGLE_MIN,
    CellOrderedSaddle,
    SaddleSolver,
    SaddleSystem,
    column_residuals,
)

from conftest import desk_domain, linearized_matrices, make_params, tiny_heterogeneous
from oracles import saddle_matrix

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
ORDERED = dict(permc_spec="NATURAL", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))


def toy_system(n=4, rng=None):
    rng = rng or np.random.default_rng(0)
    eye = sp.identity(n, format="csr")
    f_u = rng.standard_normal(n)
    f_p = rng.standard_normal(n)
    return SaddleSystem(saddle_matrix(eye, eye), f_u, f_p)


def test_identity_blocks():
    # [[I, I], [I, 0]]: velocity equals the continuity data, pressure the rest
    system = toy_system()
    u, p = SaddleSolver(system).solve()
    assert np.allclose(u, system.f_p, atol=1e-12)
    assert np.allclose(p, system.f_u - system.f_p, atol=1e-12)


def test_empty_pressure_reduces_to_velocity_solve():
    rng = np.random.default_rng(3)
    n = 12
    raw = rng.standard_normal((n, n))
    spd = raw @ raw.T + n * np.eye(n)
    matrix = saddle_matrix(sp.csr_matrix(spd), sp.csr_matrix((0, n)))
    system = SaddleSystem(matrix, rng.standard_normal(n), np.zeros(0))
    u, p = SaddleSolver(system).solve()
    assert p.size == 0
    expected = np.linalg.solve(spd, system.f_u)
    assert np.max(np.abs(u - expected)) < 1e-11 * np.max(np.abs(expected))


def test_block_transpose_consistency():
    rng = np.random.default_rng(5)
    nu, npr = 10, 3
    raw = rng.standard_normal((nu, nu))
    spd = sp.csr_matrix(raw @ raw.T + nu * np.eye(nu))
    b = sp.csr_matrix(rng.standard_normal((npr, nu)))
    matrix = saddle_matrix(spd, b)
    system = SaddleSystem(matrix, rng.standard_normal(nu), rng.standard_normal(npr))
    u, p = SaddleSolver(system).solve()
    # momentum row uses B^T, continuity row uses B
    assert np.max(np.abs(spd @ u + b.T @ p - system.f_u)) < 1e-9
    assert np.max(np.abs(b @ u - system.f_p)) < 1e-9


def test_singular_system_reported():
    n = 3
    singular = sp.csr_matrix(np.zeros((n, n)))
    matrix = saddle_matrix(singular, sp.csr_matrix((0, n)))
    system = SaddleSystem(matrix, np.ones(n), np.zeros(0))
    with pytest.raises(SingularSystemError):
        SaddleSolver(system).solve()


def test_singular_system_reported_after_the_float32_factor(monkeypatch):
    # a saddle of at least SINGLE_MIN unknowns with a singular static matrix
    # keeps no float32 factor, and its system fails its float64 one
    monkeypatch.setattr(saddle, "SINGLE_MIN", 1)
    monkeypatch.setattr(saddle, "KEPT_MIN", 1)
    n = 3
    diagonal = np.arange(n)
    zeros = sp.csr_matrix((np.zeros(n), (diagonal, diagonal)), shape=(n, n))  # stored
    ordered = CellOrderedSaddle(zeros, sp.csr_matrix((1, n)), np.arange(1), diagonal, diagonal)
    assert ordered.kept_lu is None
    system = ordered.system(np.zeros(n), np.ones(n), np.zeros(1))
    with pytest.raises(SingularSystemError, match="factorization failed"):
        SaddleSolver(system)


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
    with pytest.raises(ValueError):  # the divergence does not fit the velocity block
        saddle_matrix(eye, sp.csr_matrix((2, n + 1)))
    with pytest.raises(ValueError):
        saddle.permuted_saddle(eye, sp.csr_matrix((2, n + 1)), np.arange(n + 2))
    with pytest.raises(ValueError, match="matrix shape"):
        SaddleSystem(saddle_matrix(eye, sp.csr_matrix((2, n))), np.zeros(n), np.zeros(3))


def test_batch_solve_matches_single():
    rng = np.random.default_rng(11)
    system = toy_system(rng=rng)
    solver = SaddleSolver(system)
    rhs = rng.standard_normal((8, 5))  # stacked [rhs_u; rhs_p], one column each
    x, res = solver.solve_stacked(rhs)
    assert x.shape == rhs.shape and res.shape == (5,)
    assert np.all(res < 1e-12)
    for j in range(5):
        u, p = solver.solve(rhs[:4, j], rhs[4:, j])
        assert np.allclose(x[:4, j], u)
        assert np.allclose(x[4:, j], p)


def test_relative_residual_is_per_column():
    rng = np.random.default_rng(12)
    matrix = sp.csr_matrix(rng.standard_normal((6, 6)))
    x = rng.standard_normal((6, 3))
    rhs = rng.standard_normal((6, 3))
    rel = column_residuals(matrix, x, rhs, 2.0)
    assert rel.shape == (3,)
    for j in range(3):
        one = column_residuals(matrix, x[:, j], rhs[:, j], 2.0)
        expect = np.linalg.norm(matrix @ x[:, j] - rhs[:, j]) / max(
            np.linalg.norm(rhs[:, j]), 2.0 * np.linalg.norm(x[:, j])
        )
        assert np.ndim(one) == 0
        assert one == pytest.approx(rel[j], rel=1e-14)
        assert one == pytest.approx(expect, rel=1e-14)
    assert column_residuals(matrix, np.zeros(6), np.zeros(6), 1.0) == 0.0


# Values at the edges of float64: zeros, subnormals, magnitudes whose
# squares overflow or underflow, and the non-finite ones.
EDGE_VALUES = [0.0, -0.0, 5e-324, -2.5e-310, 1e-300, 1e-160, 1e160, -1e300, 1e300, np.inf, -np.inf, np.nan]


@given(
    x=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=12),
        elements=st.one_of(st.floats(), st.sampled_from(EDGE_VALUES)),
    )
)
@settings(max_examples=300, deadline=None)
def test_column_norms_equal_numpy_norms_bit_for_bit(x):
    # the residual ratios take their column norms through this helper; it
    # must equal np.linalg.norm(x, axis=0) in every bit, also on the
    # column slices and transposes that the batch residuals pass
    with np.errstate(all="ignore"):
        for view in (x, x[..., ::2], x.T):
            got, want = saddle._column_norms(view), np.linalg.norm(view, axis=0)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("case", ["stored_entries", "new_entries", "desk_fine", "coarse_m16"])
def test_static_pattern_keeps_values_and_locates_step_entries(case):
    # a saddle keeps the static matrix as its pattern and points pos at its
    # step entries; an entry the static matrix does not store is an error.
    # A random 9x9 velocity block, the desk fine step saddle and a coarse one
    if case in ("desk_fine", "coarse_m16"):
        ordered, record = _step_saddle(case)
        _assert_pos_points_at(ordered, *record.step_entries())
        return
    rng = np.random.default_rng(4)
    n_u, n_p = 9, 3
    upper = sp.random(n_u, n_u, density=0.3, format="csc", random_state=rng)
    div = sp.random(n_p, n_u, density=0.4, format="csr", random_state=rng)
    order = rng.permutation(n_p)
    static = saddle_matrix(upper, div).toarray()
    rows, cols = np.nonzero(upper.toarray())
    if case == "new_entries":
        missing = np.argwhere(static[:n_u, :n_u] == 0)[:4]
        rows = np.concatenate([rows, missing[:, 0], missing[:1, 0]])  # one asked twice
        cols = np.concatenate([cols, missing[:, 1], missing[:1, 1]])
        with pytest.raises(ValueError, match="^5 step entries are not stored"):
            CellOrderedSaddle(upper, div, order, rows, cols)
        return
    ordered = CellOrderedSaddle(upper, div, order, rows, cols)
    pattern, perm = ordered.pattern, ordered.perm
    assert pattern.has_canonical_format
    assert np.array_equal(pattern.toarray(), static[perm][:, perm])
    _assert_pos_points_at(ordered, rows, cols)
    assert np.array_equal(ordered.static, static[rows, cols])


def _assert_pos_points_at(ordered, rows, cols):
    """pos holds, in the broadcast shape of rows and cols, the data position
    of each entry (rows, cols) of the unpermuted numbering."""
    pattern, perm = ordered.pattern, ordered.perm
    keys = np.repeat(np.arange(len(perm)), np.diff(pattern.indptr)) * len(perm) + pattern.indices
    position = np.empty_like(perm)
    position[perm] = np.arange(len(perm))
    want = position[cols] * len(perm) + position[rows]
    assert ordered.pos.dtype == np.intp and ordered.pos.shape == want.shape
    assert np.array_equal(keys[ordered.pos], want)


@pytest.mark.parametrize("fmt", ["csr", "csc"])
def test_permuted_saddle_equals_the_permuted_saddle_matrix(fmt):
    # an unsymmetric upper and a div with explicit zeros, which stay stored;
    # pinned, row 0 of div leaves the velocity columns, its zeros too.  At
    # the identity position and at a random one, plain and pinned.
    rng = np.random.default_rng(7)
    n_u, n_p = 12, 5
    upper = sp.random(n_u, n_u, density=0.3, format=fmt, random_state=rng)
    div = sp.random(n_p, n_u, density=0.4, format="csr", random_state=rng)
    div.data[::3] = 0.0
    assert not div[0].data.all()  # the pinned row stores a zero
    for perm in (np.arange(n_u + n_p), rng.permutation(n_u + n_p)):
        position = np.empty_like(perm)
        position[perm] = np.arange(len(perm))
        for pin in (False, True):
            got = saddle.permuted_saddle(upper, div, position, pin=pin)
            want = saddle_matrix(upper, div, pin=pin)[perm][:, perm]
            want.sort_indices()
            assert got.format == "csc" and got.has_canonical_format
            assert got.nnz == upper.nnz + 2 * div.nnz - pin * (div[0].nnz - 1)
            for part in ("data", "indices", "indptr"):
                a, b = getattr(got, part), getattr(want, part)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (part, pin)


def _step_system(mesh, params):
    """The step operators and the step-1 velocity of a nonlinear fine run;
    step 2 is linearized at that velocity."""
    ops = StepOperators(mesh, params, BoundaryData.inflow((1.0, 0.0)))
    u1, _ = SaddleSolver(ops.system(np.zeros(ops.patch.n_vdof))).solve()
    return ops, u1


def _block_upper(ops, u_lin):
    """The velocity block of the step linearized at u_lin, summed from the
    CSR blocks in another association than ops.upper's."""
    patch, params = ops.patch, ops.params
    conv, forch = linearized_matrices(patch, params, u_lin)
    viscous, darcy = forms.viscous_block(patch, params), forms.darcy_block(patch, params)
    return ops.mass + (viscous + conv) + (darcy + forch)


@pytest.mark.parametrize("case", ["tiny_heterogeneous", "desk"])
def test_cell_ordered_solve_matches_colamd_with_less_fill(case, monkeypatch):
    monkeypatch.setattr(saddle, "DENSE_MAX", 0)  # the tiny step's SuperLU factor and fill
    if case == "desk":
        mesh, _ = generate_structured_mesh(desk_domain(), 8, (4, 4))
    else:
        mesh, _ = tiny_heterogeneous()
    ops, u1 = _step_system(mesh, make_params(tau=2e-4))
    system = ops.system(u1)
    rhs_u = ops.mass @ u1 + ops.f_u
    _, perm = oracles.block_step_matrix(ops, u1)
    assert np.array_equal(system.perm, perm)
    ordered = SaddleSolver(system)
    block = saddle_matrix(_block_upper(ops, u1), ops.div)
    colamd = SaddleSolver(SaddleSystem(block, ops.f_u, ops.f_p))
    assert ordered.perm is system.perm and colamd.perm is None
    # the desk step (14,336 unknowns) is refined from the kept float32
    # factor, the tiny one (224, from KEPT_MIN on) from a kept float64
    # factor; every COLAMD system is factored in float64
    assert KEPT_MIN <= system.matrix.shape[0] and ordered.kept and not colamd.kept
    single = system.matrix.shape[0] >= SINGLE_MIN
    assert single == (case == "desk") and ordered.lu is system.kept_lu
    assert ordered.lu.U.dtype == (np.float32 if single else np.float64)
    x_ord = np.concatenate(ordered.solve(rhs_u, system.f_p))
    x_col = np.concatenate(colamd.solve(rhs_u, system.f_p))
    assert ordered.kept and colamd.corrections == 0 < ordered.corrections
    assert np.linalg.norm(x_ord - x_col) <= 1e-12 * np.linalg.norm(x_col)
    assert np.array_equal(x_ord, np.concatenate(oracles.block_step_solve(ops, u1, rhs_u)))
    rhs = np.concatenate([rhs_u, system.f_p])[:, None]
    assert np.array_equal(x_col, spla.splu(block, permc_spec="COLAMD").solve(rhs)[:, 0])
    _, rel = ordered.solve_stacked(np.concatenate([rhs_u, system.f_p]))
    assert rel <= RESIDUAL_TOL
    fill = lambda s: s.lu.L.nnz + s.lu.U.nnz
    assert fill(ordered) < fill(colamd)


@pytest.mark.parametrize("path", ["kept", "colamd", "dense"])
def test_a_vector_solves_as_its_one_column_batch(path):
    # solve() hands solve_stacked a vector: solution, corrections and
    # residual are those of the same right-hand side as an (n, 1) batch, on
    # the refined desk step, on the COLAMD linear step and on the tiny step
    # refined from its dense factor
    if path == "dense":
        mesh, _ = tiny_heterogeneous()
    else:
        mesh, _ = generate_structured_mesh(desk_domain(), 8, (4, 4))
    ops, u1 = _step_system(mesh, make_params(tau=2e-4))
    system = ops.system(None) if path == "colamd" else ops.system(u1)
    assert isinstance(system.kept_lu, saddle.DenseLU) == (path == "dense")
    rhs = np.concatenate([ops.mass @ u1 + ops.f_u, ops.f_p])
    vector, column = SaddleSolver(system), SaddleSolver(system)
    x, rel = vector.solve_stacked(rhs)
    x_col, rel_col = column.solve_stacked(rhs[:, None])
    assert vector.kept == column.kept == (path != "colamd")
    assert vector.corrections == column.corrections
    assert x.shape == rhs.shape and np.array_equal(x, x_col[:, 0])
    assert np.ndim(rel) == 0 and rel.tobytes() == rel_col[0].tobytes()
    u, p = SaddleSolver(system).solve(rhs[: ops.patch.n_vdof], ops.f_p)
    assert np.array_equal(np.concatenate([u, p]), x)


def _snapshot_batch():
    """The pinned oversampled snapshot system of a tiny coarse cell, its
    solver and the stacked loads, from the oracle's two load arrays."""
    mesh, coarse = tiny_heterogeneous(n=4)
    u_lin = np.random.default_rng(3).standard_normal(6 * mesh.n_cells)
    patch, matrix, f_u, f_p = oracles.snapshot_problem(mesh, coarse, make_params(), 0, True, u_lin)
    system = SaddleSystem(matrix, np.zeros(patch.n_vdof), np.zeros(patch.n_pdof))
    return SaddleSolver(system), np.vstack([f_u, f_p])


@pytest.mark.parametrize("block", [saddle.RESIDUAL_BLOCK, 3])
def test_column_residuals_equal_the_per_column_residuals(block, monkeypatch):
    # a batch's residual, taken block columns at a time, equals each
    # column's own residual to roundoff and passes the same gates; the 64
    # columns make four full blocks of 16, and 21 blocks of 3 and a last
    # block of one
    monkeypatch.setattr(saddle, "RESIDUAL_BLOCK", block)
    solver, rhs = _snapshot_batch()
    assert rhs.shape[1] == 64
    x, rel = solver.solve_stacked(rhs)
    per = np.array(
        [column_residuals(solver.matrix, x[:, j], rhs[:, j], solver.scale) for j in range(rhs.shape[1])]
    )
    assert rel.shape == per.shape and np.all(per > 0.0)
    assert np.allclose(rel, per, rtol=1e-12, atol=0.0)
    for gate in np.concatenate([per * (1.0 - 1e-6), per * (1.0 + 1e-6), [RESIDUAL_TOL]]):
        assert np.array_equal(rel <= gate, per <= gate)


def test_scale_is_the_row_sum_of_a_bincount():
    # the largest absolute row sum that a solver sums itself, in storage
    # order on the matrix's own indices, has the bits of np.bincount over
    # the entries, on a desk fine step system without a carried scale and
    # on a pinned snapshot system; the desk step's carried scale is within
    # a few ulps of it
    mesh, _ = generate_structured_mesh(desk_domain(), 8, (4, 4))
    ops, u1 = _step_system(mesh, make_params(tau=2e-4))
    step = ops.system(u1)
    for solver in (SaddleSolver(dataclasses.replace(step, scale=None)), _snapshot_batch()[0]):
        matrix = solver.matrix
        want = np.bincount(matrix.indices, np.abs(matrix.data), matrix.shape[0]).max()
        assert solver.scale.tobytes() == want.tobytes()
        if matrix is step.matrix:
            assert abs(step.scale - want) <= 4 * np.spacing(want)


def _step_saddle(case):
    """A new step saddle and its Steps record: the desk fine step's, or
    (coarse_m16) the coarse one of a plain M=16 space on a 4x4 coarse grid
    of 32 fine cells each (272 unknowns, as desk's)."""
    if case == "desk_fine":
        mesh, _ = generate_structured_mesh(desk_domain(), 8, (4, 4))
        ops = StepOperators(mesh, make_params(tau=2e-4), BoundaryData.inflow((1.0, 0.0)))
        return ops.step_saddle(), ops
    mesh, coarse = generate_structured_mesh(desk_domain(), 4, (4, 4))
    params, bc = make_params(n_steps=1), BoundaryData.inflow((1.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # snapshot rank drops
        space = gmsfem.build_multiscale_space(mesh, coarse, params, bc, m=16)
    online = gmsfem._online_operators(space, mesh, coarse, params, StepOperators(mesh, params, bc))
    ordered = online.step_saddle()
    assert len(ordered.perm) == 17 * coarse.n_cells
    return ordered, online


def test_an_ordered_run_writes_every_step_into_one_matrix():
    # ordered_step makes its run's matrix once, on the pattern's own indices
    # and indptr, and each step writes its step entries into it: after two
    # steps at different fields it equals a new system's matrix bit for
    # bit, with no entry left from the first step, and the pattern keeps
    # its static values
    mesh, _ = generate_structured_mesh(desk_domain(), 8, (4, 4))
    ops = StepOperators(mesh, make_params(tau=2e-4), BoundaryData.inflow((1.0, 0.0)))
    ordered = ops.step_saddle()
    step_solve = saddle.ordered_step(ordered, ops.step_blocks, ops.f_p)
    rng = np.random.default_rng(8)
    systems = []
    for _ in range(2):
        u = rng.uniform(0.0, 2.0, ops.patch.n_vdof)
        systems.append(step_solve(u, ops.mass @ u + ops.f_u)[2].system)
    first, second = systems
    assert second.matrix is first.matrix and first.kept_lu is ordered.kept_lu
    pattern, run = ordered.pattern, second.matrix
    assert np.shares_memory(run.indices, pattern.indices) and np.shares_memory(run.indptr, pattern.indptr)
    assert not np.shares_memory(run.data, pattern.data)
    assert np.array_equal(pattern.data[ordered.pos], ordered.static)
    values = ordered.static + ops.step_blocks(second.u_lin)
    assert not np.array_equal(values, ordered.static + ops.step_blocks(first.u_lin))
    fresh = ordered.system(values, ops.f_u, ops.f_p).matrix
    for part in ("data", "indices", "indptr"):
        assert getattr(run, part).tobytes() == getattr(fresh, part).tobytes(), part


@pytest.mark.parametrize("case", ["desk_fine", "coarse_m16"])
def test_a_system_carries_the_largest_absolute_row_sum(case):
    # the static row sums corrected at the step entries: within a few ulps
    # of the largest absolute row sum of the system's matrix, also when
    # every step value of the largest rows cancels its static value; the
    # solver takes the carried scale as it is
    rng = np.random.default_rng(9)
    ordered, record = _step_saddle(case)
    blocks = record.step_blocks
    n, n_p = len(ordered.perm), len(ordered.static)  # one pressure per cell
    values = ordered.static + blocks(rng.uniform(0.0, 2.0, n - n_p))
    largest = []
    for cancel in (False, True):
        if cancel:
            sums = np.bincount(matrix.indices, np.abs(matrix.data), n)
            # static + block = 0 at every step entry of the largest rows
            values[np.isin(ordered.pattern.indices[ordered.pos], np.flatnonzero(sums == sums.max()))] = 0.0
        system = ordered.system(values, np.zeros(n - n_p), np.zeros(n_p))
        matrix = system.matrix
        want = np.bincount(matrix.indices, np.abs(matrix.data), n).max()
        assert abs(system.scale - want) <= 4 * np.spacing(want)
        assert SaddleSolver(system).scale is system.scale
        largest.append(want)
    assert largest[1] < largest[0]  # the cancelled rows were the largest


@pytest.mark.parametrize("where", ["step", "static"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_value_raises_before_any_factor(where, bad, monkeypatch):
    # a saddle checks its static values once and each step's values, and a
    # non-finite one raises before the kept factor, or any other, is made
    ops, u1 = _step_system(tiny_heterogeneous()[0], make_params())
    if where == "step":
        ordered = ops.step_saddle()

        def blocks(u):
            out = ops.step_blocks(u)
            out[3, 0, 1, 2] = bad
            return out

    else:
        upper = ops.upper.copy()
        upper.data[7] = bad
        velocity = np.arange(ops.patch.n_vdof)
        ordered = CellOrderedSaddle(upper, ops.div, ops.cell_order, velocity, velocity)
        blocks = lambda u: 0.0
    factored = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda a, **kw: factored.append(a) or splu(a, **kw))
    step_solve = saddle.ordered_step(ordered, blocks, ops.f_p)
    with pytest.raises(SingularSystemError, match="non-finite entries"):
        step_solve(u1, ops.mass @ u1 + ops.f_u)
    assert factored == [] and "kept_lu" not in vars(ordered)


def test_pinned_system_ignores_cell_order():
    # the pinned matrix replaces the first continuity row by p_0; it has no
    # perm, so SaddleSolver orders it by COLAMD
    mesh, _ = tiny_heterogeneous()
    ops, u1 = _step_system(mesh, make_params())
    upper = _block_upper(ops, u1)
    matrix = saddle_matrix(upper, ops.div, pin=True)
    nu, npr = ops.div.shape[1], ops.div.shape[0]
    dense = np.zeros((nu + npr, nu + npr))
    dense[:nu, :nu] = upper.toarray()
    dense[:nu, nu:] = ops.div.T.toarray()
    dense[nu + 1 :, :nu] = ops.div.toarray()[1:]
    dense[nu, nu] = 1.0
    assert np.array_equal(matrix.toarray(), dense)
    rhs_u = ops.mass @ u1 + ops.f_u
    rhs_p = ops.f_p.copy()
    rhs_p[0] = 0.0
    pinned = SaddleSolver(SaddleSystem(matrix, rhs_u, rhs_p))
    assert pinned.perm is None
    want = spla.splu(matrix, permc_spec="COLAMD").solve(np.concatenate([rhs_u, rhs_p])[:, None])
    x, _ = pinned.solve_stacked(np.concatenate([rhs_u, rhs_p])[:, None])
    assert np.array_equal(x, want)


def test_program_saddles_equal_the_block_saddle_matrix(monkeypatch):
    # the desk linear-run matrix and the pinned snapshot matrices of coarse
    # cells 0 (a corner) and 5 (interior), plain and oversampled, are the
    # sp.bmat reference's bit for bit: every explicit zero of the
    # divergence stays stored, since COLAMD orders them on their pattern
    mesh, coarse = generate_structured_mesh(desk_domain(), 8, (4, 4))
    params = preset_parameters("test1", 1e-3)
    ops = StepOperators(mesh, params, BoundaryData.inflow((1.0, 0.0)))
    pairs = [(ops.system(None).matrix, saddle_matrix(ops.upper, ops.div))]

    class Built(Exception):
        """Carries a snapshot matrix out of build_snapshots before its solve."""

    def stop(system):
        raise Built(system.matrix)

    monkeypatch.setattr(gmsfem, "SaddleSolver", stop)
    u_lin = np.random.default_rng(2).standard_normal(6 * mesh.n_cells)
    for i in (0, 5):
        for oversampled in (False, True):
            with pytest.raises(Built) as built:
                gmsfem.build_snapshots(mesh, coarse, params, i, oversampled, u_lin)
            _, want, _, _ = oracles.snapshot_problem(mesh, coarse, params, i, oversampled, u_lin)
            pairs.append((built.value.args[0], want))
    for got, want in pairs:
        assert got.format == want.format == "csc" and got.shape == want.shape
        for part in ("data", "indices", "indptr"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part


def test_cell_order_must_permute_the_cells():
    # the saddle checks its perm once, where it builds it from the order;
    # its systems carry that perm unchecked
    mesh, _ = tiny_heterogeneous()
    ops, _ = _step_system(mesh, make_params())
    velocity = np.arange(ops.patch.n_vdof)
    order = ops.cell_order.copy()
    CellOrderedSaddle(ops.upper, ops.div, order, velocity, velocity)
    for bad in (np.append(order[:-1], order[0]), order[:-1], np.append(order, 0)):
        with pytest.raises(ValueError, match="perm is not a permutation"):
            CellOrderedSaddle(ops.upper, ops.div, bad, velocity, velocity)


def _ordered_direct(matrix, perm, rhs):
    """The solution of a float64 factor of the ordered matrix."""
    x = np.empty_like(rhs)
    x[perm] = spla.splu(matrix, **ORDERED).solve(rhs[perm])
    return x


def test_large_ordered_step_is_refined_from_a_float32_factor():
    # the step is refined from the saddle's kept float32 factor of its
    # static matrix and makes no factor of its own
    mesh, _ = generate_structured_mesh(desk_domain(), 8, (4, 4))
    ops, u1 = _step_system(mesh, make_params(tau=2e-4))
    system = ops.system(u1)
    assert system.matrix.shape[0] >= SINGLE_MIN
    assert system.kept_lu is ops.system(np.zeros(ops.patch.n_vdof)).kept_lu  # one per saddle
    solver = SaddleSolver(system)
    assert solver.kept and solver.lu is system.kept_lu
    assert solver.lu.U.dtype == np.float32
    rhs_u = ops.mass @ u1 + ops.f_u
    got, rel = solver.solve_stacked(np.concatenate([rhs_u, system.f_p]))
    assert solver.kept and solver.lu is system.kept_lu
    assert 1 <= solver.corrections <= 6
    assert rel <= 1e-16
    want = _ordered_direct(system.matrix, system.perm, np.concatenate([rhs_u, system.f_p]))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_a_step_refined_from_its_linearization_point_takes_fewer_corrections():
    # desk test1 at Da=1e-3, step 20: the layers differ by one time step's
    # change by then, so the refinement that starts from (u_lin, 0) takes
    # fewer corrections than the same system refined from LU^-1 rhs; both
    # answers are the float64 direct one
    mesh, _ = generate_structured_mesh(desk_domain(), 8, (4, 4))
    ops = StepOperators(mesh, preset_parameters("test1", 1e-3), BoundaryData.inflow((1.0, 0.0)))
    u = np.zeros(ops.patch.n_vdof)
    for _ in range(20):
        u, _ = SaddleSolver(ops.system(u)).solve(ops.mass @ u + ops.f_u, ops.f_p)
    system = ops.system(u)
    assert system.u_lin is u and system.matrix.shape[0] >= SINGLE_MIN
    rhs = np.concatenate([ops.mass @ u + ops.f_u, ops.f_p])
    want = _ordered_direct(system.matrix, system.perm, rhs)
    solvers = [SaddleSolver(system), SaddleSolver(dataclasses.replace(system, u_lin=None))]
    for solver in solvers:
        got, rel = solver.solve_stacked(rhs)
        assert solver.kept and rel <= REFINE_TARGET
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert solvers[0].corrections < solvers[1].corrections


def test_kept_factor_miss_takes_the_system_own_chain(monkeypatch):
    # a step far from the static matrix: the kept refinement stalls, and
    # the solve then equals that of the same system without a kept factor,
    # from a float64 SuperLU factor
    monkeypatch.setattr(saddle, "SINGLE_MIN", 1)
    monkeypatch.setattr(saddle, "DENSE_MAX", 0)
    ops, u1 = _step_system(tiny_heterogeneous()[0], make_params())
    velocity = np.arange(ops.patch.n_vdof)
    ordered = CellOrderedSaddle(ops.upper, ops.div, ops.cell_order, velocity, velocity)
    rhs_u = ops.mass @ u1 + ops.f_u
    system = ordered.system(3.0 * ordered.static, rhs_u, ops.f_p)
    assert system.kept_lu is not None and system.kept_lu is ordered.kept_lu
    solver = SaddleSolver(system)
    assert solver.kept and solver.lu is system.kept_lu
    rhs = np.concatenate([rhs_u, system.f_p])
    x, rel = solver.solve_stacked(rhs)
    assert not solver.kept and solver.lu.U.dtype == np.float64
    own = SaddleSolver(dataclasses.replace(system, kept_lu=None))
    assert not own.kept and own.lu.U.dtype == np.float64
    x_own, rel_own = own.solve_stacked(rhs)
    assert np.array_equal(x, x_own)
    assert rel == rel_own and rel <= RESIDUAL_TOL
    # the kept refinement stopped at a correction that did not halve the
    # residual, before KEPT_MAX
    assert own.corrections == 0 < solver.corrections < KEPT_MAX


def test_a_lowered_single_min_keeps_the_float32_superlu_factor(monkeypatch):
    # the float32 factor takes precedence over the dense rule: with
    # SINGLE_MIN lowered below the tiny step's 224 unknowns, which are at
    # most DENSE_MAX, the saddle keeps SuperLU's float32 factor, while the
    # system's own float64 factor is LAPACK's; both answers agree
    monkeypatch.setattr(saddle, "SINGLE_MIN", 1)
    ops, u1 = _step_system(tiny_heterogeneous()[0], make_params())
    ordered = ops.step_saddle()
    assert len(ordered.perm) <= saddle.DENSE_MAX
    assert isinstance(ordered.kept_lu, spla.SuperLU) and ordered.kept_lu.U.dtype == np.float32
    values = ordered.static + ops.step_blocks(u1)
    system = ordered.system(values, ops.mass @ u1 + ops.f_u, ops.f_p, u1)
    kept = SaddleSolver(system)
    x_kept = np.concatenate(kept.solve())
    assert kept.kept and kept.lu is ordered.kept_lu
    own = SaddleSolver(dataclasses.replace(system, kept_lu=None))
    x_own = np.concatenate(own.solve())
    assert isinstance(own.lu, saddle.DenseLU) and own.lu.lu.dtype == np.float64
    assert np.linalg.norm(x_kept - x_own) <= 1e-12 * np.linalg.norm(x_own)


def test_refined_steps_match_a_float64_solve_on_the_hardest_bundle():
    # desk test3 (Re=100) at Da=1e-4 takes the most corrections from the
    # kept factor; the answer is checked on the inputs, not on stored
    # statistics
    mesh, _ = generate_structured_mesh(desk_domain(), 8, (4, 4))
    params = preset_parameters("test3", 1e-4)
    ops = StepOperators(mesh, params, BoundaryData.inflow((1.0, 0.0)))
    u = np.zeros(ops.patch.n_vdof)
    for _ in range(10):
        system = ops.system(u)
        rhs_u = ops.mass @ u + ops.f_u
        solver = SaddleSolver(system)
        got, rel = solver.solve_stacked(np.concatenate([rhs_u, system.f_p]))
        assert system.kept_lu is not None and solver.kept and solver.lu is system.kept_lu
        assert rel <= RESIDUAL_TOL
        want = _ordered_direct(system.matrix, system.perm, np.concatenate([rhs_u, system.f_p]))
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        u = got[: ops.patch.n_vdof]


def _traced(call):
    """call()'s result and its tracemalloc peak above the memory traced at
    its start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


def test_step_saddle_and_its_kept_factor_stay_lean():
    # the desk step (14,336 unknowns, above SINGLE_MIN).  step_saddle()
    # copies each column of the static matrix straight from the blocks, at
    # most 2.5 times what it keeps (3.1 times with the saddle's triplets
    # and a permuted copy).  The float32 factor shares the pattern's indices
    # and indptr, and the first system() makes it before it copies the
    # float64 values, so only those values are alive at once: a copy of the
    # indices, or the float64 values held through the factor, breaks a bound.
    mesh, _ = generate_structured_mesh(desk_domain(), 8, (4, 4))
    ops = StepOperators(mesh, make_params(tau=2e-4), BoundaryData.inflow((1.0, 0.0)))
    ops.cell_order
    ordered, peak = _traced(ops.step_saddle)
    pattern = ordered.pattern
    held = sum(a.nbytes for a in (pattern.data, pattern.indices, pattern.indptr, ordered.pos, ordered.perm))
    assert len(ordered.perm) >= SINGLE_MIN and peak <= 2.5 * held
    values = ordered.static + ops.step_blocks(np.zeros(ops.patch.n_vdof))
    system, peak = _traced(lambda: ordered.system(values, ops.f_u, ops.f_p))
    assert system.kept_lu is ordered.kept_lu is not None
    assert peak <= 8 * pattern.nnz + 2**19
    fresh = ops.step_saddle()
    _, peak = _traced(lambda: fresh.kept_lu)
    assert peak <= 4 * pattern.nnz + 2**16


def _scaled_saddle_system(scale):
    """A system of the tiny fine step's saddle with its matrix and loads
    scaled; the saddle keeps no float32 factor."""
    ops, u1 = _step_system(tiny_heterogeneous()[0], make_params())
    velocity = np.arange(ops.patch.n_vdof)
    upper = scale * ops.upper
    ordered = CellOrderedSaddle(upper, scale * ops.div, ops.cell_order, velocity, velocity)
    assert ordered.kept_lu is None
    rhs_u = scale * (ops.mass @ u1 + ops.f_u)
    return ordered.system(ordered.static, rhs_u, scale * ops.f_p)


def _near_singular():
    # float32 rounds the 1 + 1.75e-7 to 1 + 1.19e-7: the first correction
    # from the float32 factor takes the residual only from 2.0e-8 to 1.7e-8
    matrix = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + 1.75e-7]]))
    kept_lu = spla.splu(matrix.astype(np.float32), **ORDERED)
    return SaddleSystem(matrix, np.ones(1), np.zeros(1), np.arange(2), kept_lu)


@pytest.mark.parametrize(
    "make, when",
    [
        (lambda: _scaled_saddle_system(1e40), "factor"),  # entries beyond float32 range
        (lambda: _scaled_saddle_system(1e-50), "factor"),  # entries that underflow to zero
        (_near_singular, "solve"),  # refinement that misses its target
    ],
    ids=["overflow", "underflow", "refinement"],
)
def test_float32_failure_falls_back_to_the_float64_answer(make, when, monkeypatch):
    monkeypatch.setattr(saddle, "SINGLE_MIN", 1)
    monkeypatch.setattr(saddle, "DENSE_MAX", 0)  # the float64 fallback is SuperLU's
    system = make()
    solver = SaddleSolver(system)
    assert (system.kept_lu is None) == (when == "factor") and solver.kept == (when == "solve")
    x, rel = solver.solve_stacked(np.concatenate([system.f_u, system.f_p])[:, None])
    assert not solver.kept
    # a kept refinement stopped at a correction that did not halve the
    # residual, before KEPT_MAX; a system without kept_lu refines nothing
    assert solver.corrections < KEPT_MAX and (solver.corrections > 0) == (when == "solve")
    assert solver.lu.U.dtype == np.float64
    rhs = np.concatenate([system.f_u, system.f_p])
    want = _ordered_direct(system.matrix, system.perm, rhs[:, None])
    assert np.array_equal(x, want)
    assert rel[0] <= RESIDUAL_TOL
    assert np.array_equal(np.concatenate(solver.solve()), want[:, 0])


class _PlantingFactor:
    """A kept factor whose solves are 0.9 times its factor's, so each
    correction leaves a tenth of the error, and whose third solve plants
    value at position where of its answer."""

    def __init__(self, lu, value, where):
        self.lu, self.value, self.where, self.calls = lu, value, where, 0

    def solve(self, rhs):
        self.calls += 1
        x = 0.9 * self.lu.solve(rhs)
        if self.calls == 3:
            x[self.where] = self.value
        return x


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_a_non_finite_iterate_is_a_miss(bad, monkeypatch):
    # the second correction makes the iterate non-finite: the refinement
    # misses without a warning, and the solve gives the float64 SuperLU
    # answer.  The value goes to an unknown whose matrix column stores no
    # zero, so an inf leaves the residual infinite, not NaN: its ratio is
    # inf / inf
    monkeypatch.setattr(saddle, "DENSE_MAX", 0)
    ops, u1 = _step_system(tiny_heterogeneous()[0], make_params())
    velocity = np.arange(ops.patch.n_vdof)
    ordered = CellOrderedSaddle(ops.upper, ops.div, ops.cell_order, velocity, velocity)
    rhs_u = ops.mass @ u1 + ops.f_u
    system = ordered.system(ordered.static, rhs_u, ops.f_p)
    assert system.kept_lu is not None and system.kept_lu.U.dtype == np.float64
    matrix = system.matrix
    assert matrix.format == "csc"
    columns = np.split(matrix.data, matrix.indptr[1:-1])
    where = next(j for j, column in enumerate(columns) if len(column) and np.all(column != 0))
    planted = _PlantingFactor(system.kept_lu, bad, where)
    solver = SaddleSolver(dataclasses.replace(system, kept_lu=planted))
    rhs = np.concatenate([rhs_u, system.f_p])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, rel = solver.solve_stacked(rhs)
    assert planted.calls == 3 and not solver.kept and 0 < solver.corrections < KEPT_MAX
    assert solver.lu.U.dtype == np.float64
    assert np.array_equal(x, _ordered_direct(system.matrix, system.perm, rhs))
    assert rel <= RESIDUAL_TOL


def test_large_ordered_system_without_a_kept_factor_is_factored_once_in_float64(monkeypatch):
    # SaddleSolver makes no float32 factor of its own: a desk step without
    # the kept factor is factored once, in float64, and solved directly
    mesh, _ = generate_structured_mesh(desk_domain(), 8, (4, 4))
    ops, u1 = _step_system(mesh, make_params(tau=2e-4))
    system = dataclasses.replace(ops.system(u1), kept_lu=None)
    assert system.matrix.shape[0] >= SINGLE_MIN
    factored = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda a, **kw: factored.append(a.dtype) or splu(a, **kw))
    solver = SaddleSolver(system)
    rhs_u = ops.mass @ u1 + ops.f_u
    rhs = np.concatenate([rhs_u, system.f_p])
    x, rel = solver.solve_stacked(rhs)
    assert factored == [np.float64]
    assert not solver.kept and solver.corrections == 0 and solver.lu.U.dtype == np.float64
    assert rel <= RESIDUAL_TOL
    want = np.empty_like(rhs)
    want[system.perm] = splu(system.matrix, **ORDERED).solve(rhs[system.perm])
    assert np.array_equal(x, want)


@pytest.mark.parametrize("config", ["desk_test1", "paper_like"])
def test_single_precision_takes_the_fine_steps_and_no_coarse_system(config):
    # the precision follows the system size: every coarse online system of a
    # committed config stays in float64, every fine step goes to float32
    spec = parse_config(str(CONFIGS / f"{config}.cfg"), mode="sweep")
    n_coarse = spec.nx * spec.ny
    n_fine = 2 * n_coarse * spec.n_per_coarse**2
    coarse = analysis.dof_multiscale(n_coarse, max(spec.m_list))
    assert coarse < SINGLE_MIN <= analysis.dof_fine(n_fine)
