import dataclasses
import gc
import io
import os
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import oracles
from msflow import analysis, forms, gmsfem, saddle
from msflow.errors import ConfigError, MsflowError, SingularSystemError
from msflow.fine_solver import StepOperators, march, run_fine
from msflow.geometry import DomainSpec, generate_structured_mesh
from msflow.parameters import BoundaryData, ModelParameters
from msflow.patches import coarse_cell_order, coarse_cell_patch, full_patch
from msflow.quadrature import EDGE_G2_W
from msflow.saddle import (
    SaddleSolver,
    SaddleSystem,
    column_residuals,
    ordered_step,
)

from conftest import (
    WiderParameters,
    assert_same_bases,
    desk_domain,
    layers,
    linearized_matrices,
    make_params,
    tiny_heterogeneous,
)


def coarse_saddle(upper, b_h, order):
    """The step saddle of a coarse step record of upper and b_h; upper is
    stored with every entry of its dense m x m cell blocks, as
    gmsfem._project_blocks stores it."""
    m = upper.shape[0] // len(order)
    upper = sp.bsr_matrix(upper, blocksize=(m, m)).tocsr()
    return gmsfem._OnlineOperators(None, upper, b_h, None, None, None, order).step_saddle()


class TestLinearizationField:
    def test_zero_data_gives_zero_field(self):
        mesh, coarse = tiny_heterogeneous()
        params = make_params(n_steps=3)
        u = gmsfem.compute_linearization_field(mesh, params, BoundaryData())
        assert np.all(u == 0.0)

    def test_satisfies_linear_system_at_final_step(self):
        mesh, coarse = tiny_heterogeneous()
        params = make_params(n_steps=3)
        bc = BoundaryData.inflow((1.0, 0.0))
        states = []
        traj = run_fine(mesh, params, bc, linear=True, observe=layers(states))
        ops = StepOperators(mesh, params, bc)
        u_prev = states[-2].velocity
        u, p = traj.final.velocity, traj.final.pressure
        r_u = ops.upper @ u + ops.div.T @ p - (ops.mass @ u_prev + ops.f_u)
        r_p = ops.div @ u - ops.f_p
        scale = max(np.linalg.norm(ops.mass @ u_prev + ops.f_u), 1e-300)
        assert np.linalg.norm(np.concatenate([r_u, r_p])) <= 1e-9 * scale

    def test_matches_linear_run_final_velocity(self):
        mesh, coarse = tiny_heterogeneous()
        params = make_params(n_steps=2)
        bc = BoundaryData.inflow((1.0, 0.0))
        u1 = gmsfem.compute_linearization_field(mesh, params, bc)
        u2 = run_fine(mesh, params, bc, linear=True).final.velocity
        assert np.array_equal(u1, u2)


def local_upper(params, patch, u_lin):
    """The velocity block of a snapshot problem linearized at u_lin."""
    conv, drag = linearized_matrices(patch, params, u_lin)
    return (forms.viscous_block(patch, params) + conv) + (forms.darcy_block(patch, params) + drag)


def local_system(params, patch, u_lin):
    """The pinned snapshot system of a patch with zero loads; the caller
    zeroes the pinned row of every continuity load it solves for."""
    b = forms.assemble_divergence(patch)
    matrix = oracles.saddle_matrix(local_upper(params, patch, u_lin), b, pin=True)
    return SaddleSystem(matrix, np.zeros(patch.n_vdof), np.zeros(patch.n_pdof))


def pinned_loads(patch, params):
    """The unit-delta loads of a patch with the pinned row zeroed, as
    momentum and continuity rows."""
    rhs = gmsfem._delta_rhs_batch(patch, params)
    rhs[patch.n_vdof] = 0.0
    return rhs[: patch.n_vdof], rhs[patch.n_vdof :]


class TestSnapshots:
    def test_zero_data_zero_solution(self):
        mesh, coarse = tiny_heterogeneous()
        params = make_params()
        patch = coarse_cell_patch(mesh, coarse, 0)
        system = local_system(params, patch, np.zeros(6 * mesh.n_cells))
        u, p = SaddleSolver(system).solve()
        assert np.all(u == 0.0) and np.all(p == 0.0)

    def test_counts_and_shapes(self):
        mesh, coarse = tiny_heterogeneous(n=2)
        params = make_params()
        ulin = np.zeros(6 * mesh.n_cells)
        snap = gmsfem.build_snapshots(mesh, coarse, params, 0, False, ulin)
        patch = coarse_cell_patch(mesh, coarse, 0)
        assert snap.n_snapshots == 2 * len(patch.dirichlet_edges)
        assert snap.rows.shape[1] == 6 * len(coarse.cell_fine[0])
        plus = coarse_cell_patch(mesh, coarse, 0, oversampled=True)
        snap_os = gmsfem.build_snapshots(mesh, coarse, params, 0, True, ulin)
        assert snap_os.n_snapshots == 2 * len(plus.dirichlet_edges)
        assert snap_os.rows.shape[1] == snap.rows.shape[1]

    def test_matches_dense_oracle_on_two_cell_patch(self):
        dom = DomainSpec(bbox=(0, 0, 1, 1))
        mesh, coarse = generate_structured_mesh(dom, 1, (1, 1))
        params = make_params(porosity=1.0)
        ulin = np.zeros(6 * mesh.n_cells)
        snap = gmsfem.build_snapshots(mesh, coarse, params, 0, False, ulin)
        patch = coarse_cell_patch(mesh, coarse, 0)
        loads = gmsfem._delta_rhs_batch(patch, params)
        upper = local_upper(params, patch, ulin).toarray()
        div = forms.assemble_divergence(patch).toarray()
        nu, npr = upper.shape[0], div.shape[0]
        dense = np.zeros((nu + npr, nu + npr))
        dense[:nu, :nu] = upper
        dense[:nu, nu:] = div.T
        pinned = div.copy()
        pinned[0, :] = 0.0
        dense[nu:, :nu] = pinned
        dense[nu, nu] = 1.0
        for col in range(loads.shape[1]):
            rhs = loads[:, col].copy()
            rhs[nu] = 0.0
            x = np.linalg.solve(dense, rhs)
            scale = max(np.abs(x[:nu]).max(), 1.0)
            assert np.max(np.abs(snap.rows[col] - x[:nu])) < 1e-10 * scale

    @pytest.mark.parametrize("oversampled", [False, True])
    def test_rows_equal_the_two_part_batch_solve(self, oversampled):
        # the stacked loads change no bit: np.vstack of the momentum and the
        # continuity loads and one solve of the whole batch give the rows
        mesh, coarse = tiny_heterogeneous()
        params = make_params()
        bc = BoundaryData.inflow((1.0, 0.0))
        u_lin = gmsfem.compute_linearization_field(mesh, params, bc)
        for i in range(coarse.n_cells):
            snap = gmsfem.build_snapshots(mesh, coarse, params, i, oversampled, u_lin)
            want = oracles.two_part_snapshot_rows(mesh, coarse, params, i, oversampled, u_lin)
            assert snap.rows.shape == want.shape and np.array_equal(snap.rows, want)

    def test_first_failing_column_is_named(self, monkeypatch):
        # a gate between two columns' residuals fails some columns; the
        # error names the facet k and direction d of the first, column 2k + d
        mesh, coarse = tiny_heterogeneous()
        params = make_params()
        u_lin = gmsfem.compute_linearization_field(mesh, params, BoundaryData.inflow((1.0, 0.0)))
        patch, matrix, f_u, f_p = oracles.snapshot_problem(mesh, coarse, params, 0, True, u_lin)
        rhs = np.vstack([f_u, f_p])
        solver = SaddleSolver(SaddleSystem(matrix, np.zeros(patch.n_vdof), np.zeros(patch.n_pdof)))
        x = solver.lu.solve(rhs)
        per = np.array(
            [column_residuals(matrix, x[:, j], rhs[:, j], solver.scale) for j in range(rhs.shape[1])]
        )
        # the gate sits in the widest gap between neighbours in the middle half
        ranked = np.sort(per)
        lo, hi = len(ranked) // 4, 3 * len(ranked) // 4
        k = lo + int(np.argmax(ranked[lo + 1 : hi] / ranked[lo : hi - 1]))
        assert ranked[k + 1] > (1.0 + 1e-6) * ranked[k] > 0.0
        monkeypatch.setattr(gmsfem, "RESIDUAL_TOL", np.sqrt(ranked[k] * ranked[k + 1]))
        first = int(np.flatnonzero(per > gmsfem.RESIDUAL_TOL)[0])
        facet, d = divmod(first, 2)
        edge = patch.dirichlet_edges[facet]
        with pytest.raises(SingularSystemError, match=rf"facet {facet} \(edge {edge}\), direction {d}:"):
            gmsfem.build_snapshots(mesh, coarse, params, 0, True, u_lin)

    def test_snapshot_linearity_in_delta_scale(self):
        mesh, coarse = tiny_heterogeneous()
        params = make_params()
        patch = coarse_cell_patch(mesh, coarse, 0)
        solver = SaddleSolver(local_system(params, patch, np.zeros(6 * mesh.n_cells)))
        f_u, f_p = pinned_loads(patch, params)
        u1, p1 = solver.solve(f_u[:, 3], f_p[:, 3])
        u2, p2 = solver.solve(2.0 * f_u[:, 3], 2.0 * f_p[:, 3])
        assert np.allclose(u2, 2.0 * u1, rtol=1e-12, atol=1e-14)

    def test_oversampled_rows_leave_plain_span(self):
        mesh, coarse = tiny_heterogeneous(n=4)
        params = make_params()
        bc = BoundaryData.inflow((1.0, 0.0))
        ulin = gmsfem.compute_linearization_field(mesh, params, bc)
        plain = gmsfem.build_snapshots(mesh, coarse, params, 0, False, ulin)
        over = gmsfem.build_snapshots(mesh, coarse, params, 0, True, ulin)
        assert over.n_snapshots > plain.n_snapshots
        # at least one restricted oversampled snapshot is not reproducible
        # from the plain family
        _, residuals, *_ = np.linalg.lstsq(plain.rows.T, over.rows.T, rcond=None)[:2]
        norms = np.linalg.norm(over.rows, axis=1)
        rel = np.sqrt(np.maximum(residuals, 0.0)) / np.maximum(norms, 1e-300)
        assert rel.max() > 1e-6

    def test_restriction_is_pure_sampling(self):
        mesh, coarse = tiny_heterogeneous(n=2)
        params = make_params()
        ulin = np.zeros(6 * mesh.n_cells)
        snap = gmsfem.build_snapshots(mesh, coarse, params, 0, True, ulin)
        plus = coarse_cell_patch(mesh, coarse, 0, oversampled=True)
        solver = SaddleSolver(local_system(params, plus, ulin))
        f_u, f_p = pinned_loads(plus, params)
        col = 5
        u_full, _ = solver.solve(f_u[:, col], f_p[:, col])
        target = np.sort(coarse.cell_fine[0])
        local = plus.local_of[target]
        take = (6 * local[:, None] + np.arange(6)[None, :]).ravel()
        assert np.array_equal(snap.rows[col], u_full[take])


class TestDeltaLoads:
    """The snapshot loads are the global weak-Dirichlet load of facet data."""

    @pytest.mark.parametrize("oversampled", [False, True])
    def test_columns_combine_to_the_dirichlet_load(self, rng, oversampled):
        mesh, coarse = tiny_heterogeneous()
        params = make_params()
        for i in range(coarse.n_cells):
            patch = coarse_cell_patch(mesh, coarse, i, oversampled=oversampled)
            loads = gmsfem._delta_rhs_batch(patch, params)
            assert loads.shape == (patch.n_vdof + patch.n_pdof, 2 * len(patch.dirichlet_edges))
            f_u, f_p = loads[: patch.n_vdof], loads[patch.n_vdof :]
            g = rng.standard_normal((len(patch.dirichlet_edges), 2))
            g_quad = np.repeat(g[:, None, :], len(EDGE_G2_W), axis=1)
            load_u, load_p = forms.dirichlet_rhs_from_values(patch, params, g_quad)
            gap_u = np.linalg.norm(f_u @ g.ravel() - load_u)
            assert gap_u <= 1e-13 * np.linalg.norm(load_u)
            source = (load_p.sum() / patch.area) * mesh.area[patch.cells]
            gap_p = np.linalg.norm(f_p @ g.ravel() - (load_p - source))
            assert gap_p <= 1e-13 * np.linalg.norm(load_p)
            col_scale = np.abs(f_p).max(axis=0)
            assert np.all(np.abs(f_p.sum(axis=0)) <= 1e-13 * col_scale)


class TestSpectralReduce:
    def test_diagonal_pencil(self):
        w, v, _ = gmsfem.generalized_eigh(np.diag([1.0, 2.0]), np.eye(2))
        assert np.allclose(w, [1.0, 2.0])
        assert np.allclose(np.abs(v[:, 0]), [1.0, 0.0])

    def test_matches_direct_generalized_solver(self, rng):
        n = 10
        raw = rng.standard_normal((n, n))
        a = raw @ raw.T
        raw = rng.standard_normal((n, n))
        s = raw @ raw.T + n * np.eye(n)
        w, v, _ = gmsfem.generalized_eigh(a, s)
        w_ref = la.eigh(a, s, eigvals_only=True)
        assert np.allclose(w, w_ref, rtol=1e-10, atol=1e-10)
        assert np.all(np.diff(w) >= -1e-12)
        ortho = v.T @ s @ v
        assert np.max(np.abs(ortho - np.eye(n))) < 1e-10

    def test_cell_reduction_residuals(self):
        mesh, coarse = tiny_heterogeneous(n=3)
        params = make_params()
        ulin = np.zeros(6 * mesh.n_cells)
        snap = gmsfem.build_snapshots(mesh, coarse, params, 0, False, ulin)
        basis = gmsfem.spectral_reduce(snap, mesh, coarse, params, m=4)
        w, _, (a, s, z) = gmsfem.generalized_eigh(
            *gmsfem.snapshot_pencil(snap, mesh, coarse, params)
        )
        assert np.array_equal(w, basis.eigenvalues)
        scale = la.norm(a)
        for k in range(4):
            resid = la.norm(a @ z[:, k] - w[k] * (s @ z[:, k]))
            assert resid <= 1e-8 * scale
        ortho = z[:, :4].T @ s @ z[:, :4]
        assert np.max(np.abs(ortho - np.eye(4))) < 1e-10

    def test_basis_rows_are_the_smallest_modes(self):
        mesh, coarse = generate_structured_mesh(desk_domain(), 8, (4, 4))
        params = make_params()
        u_lin = gmsfem.compute_linearization_field(mesh, params, BoundaryData.inflow((1.0, 0.0)))
        m, i = 8, 5
        basis = gmsfem.spectral_reduce(
            gmsfem.build_snapshots(mesh, coarse, params, i, False, u_lin), mesh, coarse, params, m
        )
        fresh = gmsfem.build_snapshots(mesh, coarse, params, i, False, u_lin)
        a, s = gmsfem.snapshot_pencil(fresh, mesh, coarse, params)
        # snapshot coefficients of each basis row, then its Rayleigh quotient
        c = la.lstsq(fresh.rows.T, basis.rows.T)[0]
        quotient = np.einsum("ik,ij,jk->k", c, a, c) / np.einsum("ik,ij,jk->k", c, s, c)
        w = basis.eigenvalues
        assert np.all(np.diff(w) >= 0)
        assert np.allclose(quotient, w[:m], rtol=1e-10, atol=0)

    def test_m_out_of_range(self):
        mesh, coarse = tiny_heterogeneous(n=2)
        params = make_params()
        snap = gmsfem.build_snapshots(mesh, coarse, params, 0, False, np.zeros(6 * mesh.n_cells))
        with pytest.raises(ValueError, match="outside"):
            gmsfem.spectral_reduce(snap, mesh, coarse, params, m=snap.n_snapshots + 1)


class TestProjection:
    def test_row_support_structure(self):
        mesh, coarse = tiny_heterogeneous(n=2)
        params = make_params()
        bc = BoundaryData.inflow((1.0, 0.0))
        space = gmsfem.build_multiscale_space(mesh, coarse, params, bc, m=3)
        r_u = space.r_u.tocsr()
        for i in range(coarse.n_cells):
            allowed = set(
                (6 * np.sort(coarse.cell_fine[i])[:, None] + np.arange(6)[None, :]).ravel()
            )
            for k in range(3):
                row = r_u.getrow(3 * i + k)
                assert set(row.indices).issubset(allowed)
        assert space.r_u.shape == (3 * coarse.n_cells, 6 * mesh.n_cells)
        assert space.r_p.shape == (coarse.n_cells, mesh.n_cells)
        # pressure rows are coarse-cell indicators
        for i in range(coarse.n_cells):
            row = space.r_p.getrow(i)
            assert np.array_equal(np.sort(row.indices), np.sort(coarse.cell_fine[i]))
            assert np.all(row.data == 1.0)

    def test_reconstruction_gram_identity(self, rng):
        mesh, coarse = tiny_heterogeneous(n=2)
        params = make_params()
        bc = BoundaryData.inflow((1.0, 0.0))
        space = gmsfem.build_multiscale_space(mesh, coarse, params, bc, m=3)
        n_u = space.r_u.shape[0]
        w = rng.standard_normal(n_u)
        gram = (space.r_u @ space.r_u.T).toarray()
        explicit = np.array(
            [
                [space.r_u.getrow(i).toarray().ravel() @ space.r_u.getrow(j).toarray().ravel()
                 for j in range(n_u)]
                for i in range(n_u)
            ]
        )
        assert np.allclose(gram, explicit, atol=1e-12)
        assert np.allclose(space.r_u @ (space.r_u.T @ w), explicit @ w, atol=1e-10)


class TestRunMultiscale:
    def test_zero_data_zero_trajectory(self):
        mesh, coarse = tiny_heterogeneous(n=2)
        params = make_params(n_steps=2)
        bc = BoundaryData()
        space = gmsfem.build_multiscale_space(mesh, coarse, params, bc, m=2)
        traj, fine_state = gmsfem.run_multiscale(mesh, coarse, params, bc, space)
        assert np.all(traj.final.velocity == 0.0)
        assert np.all(fine_state.velocity == 0.0)

    def test_coarse_mass_conservation(self):
        mesh, coarse = tiny_heterogeneous(n=3)
        params = make_params(n_steps=3)
        bc = BoundaryData.inflow((1.0, 0.0))
        space = gmsfem.build_multiscale_space(mesh, coarse, params, bc, m=6)
        traj, _ = gmsfem.run_multiscale(mesh, coarse, params, bc, space)
        assert traj.div_residuals.max() <= 1e-9

    def test_resize_reuses_bases(self):
        mesh, coarse = tiny_heterogeneous(n=2)
        params = make_params(n_steps=1)
        bc = BoundaryData.inflow((1.0, 0.0))
        space = gmsfem.build_multiscale_space(mesh, coarse, params, bc, m=5)
        small = gmsfem.resize_space(space, mesh, coarse, 2)
        assert small.m == 2
        assert small.r_u.shape[0] == 2 * coarse.n_cells
        full_rows = space.r_u.toarray()
        small_rows = small.r_u.toarray()
        for i in range(coarse.n_cells):
            assert np.array_equal(small_rows[2 * i : 2 * i + 2], full_rows[5 * i : 5 * i + 2])

    @pytest.mark.parametrize("oversampled", [False, True])
    def test_resize_slice_equals_the_built_projection(self, oversampled):
        mesh, coarse = tiny_heterogeneous(n=2)
        params = make_params(n_steps=1)
        bc = BoundaryData.inflow((1.0, 0.0))
        space = gmsfem.build_multiscale_space(
            mesh, coarse, params, bc, m=5, oversampled=oversampled
        )
        for m in (1, 2, 4, 5):
            small = gmsfem.resize_space(space, mesh, coarse, m)
            r_u, r_p = gmsfem.build_projection(space.cell_bases, mesh, coarse, m)
            for got, want in ((small.r_u, r_u), (small.r_p, r_p)):
                for name in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(got, name), getattr(want, name))
        with pytest.raises(ValueError, match="basis size 6"):
            gmsfem.resize_space(space, mesh, coarse, 6)

    def test_loaded_space_resizes(self, tmp_path):
        mesh, coarse = tiny_heterogeneous(n=2)
        params = make_params(n_steps=1)
        bc = BoundaryData.inflow((1.0, 0.0))
        space = gmsfem.build_multiscale_space(mesh, coarse, params, bc, m=4)
        gmsfem.save_space(tmp_path, mesh, params, bc, space)
        loaded = gmsfem.load_space(tmp_path, mesh, coarse, params, bc, 4, False)
        small = gmsfem.resize_space(loaded, mesh, coarse, 2)
        want = gmsfem.resize_space(space, mesh, coarse, 2)
        assert small.m == 2
        assert np.array_equal(small.r_u.toarray(), want.r_u.toarray())
        assert np.array_equal(small.r_p.toarray(), want.r_p.toarray())


class TestOnlineStage:
    @staticmethod
    def _check_cell_blocks(rng, m_built, m, oversampled, forchheimer=1.0):
        mesh, coarse = tiny_heterogeneous(n=2)
        params = make_params(forchheimer=forchheimer)
        bc = BoundaryData.inflow((1.0, 0.0))
        space = gmsfem.build_multiscale_space(
            mesh, coarse, params, bc, m=m_built, oversampled=oversampled
        )
        if m != m_built:
            space = gmsfem.resize_space(space, mesh, coarse, m)
        r_u = space.r_u
        u_h = rng.standard_normal(r_u.shape[0])
        u_rec = r_u.T @ u_h
        patch = full_patch(mesh)
        conv, drag = linearized_matrices(patch, params, u_rec)
        fine = conv + drag
        want = (r_u @ fine @ r_u.T).toarray()
        ops = StepOperators(mesh, params, bc)
        online = gmsfem._online_operators(space, mesh, coarse, params, ops)
        got = la.block_diag(*online.step_blocks(u_h))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("m", [2, 5])
    @pytest.mark.parametrize("oversampled", [False, True])
    def test_cell_blocks_equal_projected_fine_blocks(self, rng, m, oversampled):
        self._check_cell_blocks(rng, m, m, oversampled)

    @pytest.mark.parametrize("oversampled", [False, True])
    def test_sliced_cell_blocks_equal_projected_fine_blocks(self, rng, oversampled):
        self._check_cell_blocks(rng, 5, 2, oversampled)

    @pytest.mark.parametrize("oversampled", [False, True])
    def test_cell_blocks_without_drag_cells(self, rng, oversampled):
        # forchheimer = 0 leaves no drag cells: the blocks are the convection alone
        self._check_cell_blocks(rng, 5, 5, oversampled, forchheimer=0.0)

    @pytest.mark.parametrize("oversampled", [False, True])
    def test_sliced_static_blocks_equal_the_sliced_products(self, oversampled):
        mesh, coarse = tiny_heterogeneous(n=2)
        params = make_params()
        bc = BoundaryData.inflow((1.0, 0.0))
        ops = StepOperators(mesh, params, bc)
        space = gmsfem.build_multiscale_space(
            mesh, coarse, params, bc, m=5, oversampled=oversampled
        )
        small = gmsfem.resize_space(space, mesh, coarse, 2)
        online = gmsfem._online_operators(small, mesh, coarse, params, ops)
        r_u, r_p = small.r_u, small.r_p
        # the root record projects in BSR blocks, a coarse cell's rows by a
        # fine cell's six velocity DOFs; its slice equals that projection of
        # the sliced space bit for bit
        blocks = r_u.tobsr((2, 6))

        def projected(matrix):
            product = (blocks @ matrix.tobsr((6, 6)) @ blocks.T).tocsr()
            product.sort_indices()
            return product

        mass = projected(ops.mass)
        upper = projected(ops.upper)
        div = (r_p @ ops.div @ r_u.T).tocsr()
        for got, want in ((online.mass, mass), (online.upper, upper), (online.div, div)):
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
        assert np.array_equal(online.f_u, r_u @ ops.f_u)
        assert np.array_equal(online.f_p, r_p @ ops.f_p)
        # and it is the CSR triple products up to roundoff
        csr_mass = r_u @ ops.mass @ r_u.T
        viscous, darcy = forms.viscous_block(ops.patch, params), forms.darcy_block(ops.patch, params)
        csr_upper = csr_mass + r_u @ viscous @ r_u.T + r_u @ darcy @ r_u.T
        for got, want in ((online.mass, csr_mass), (online.upper, csr_upper)):
            want = want.toarray()
            assert np.abs(got.toarray() - want).max() <= 1e-14 * np.abs(want).max()

    def test_cached_space_runs_like_the_built_space(self, tmp_path):
        mesh, coarse = tiny_heterogeneous(n=2)
        params = make_params(n_steps=3)
        bc = BoundaryData.inflow((1.0, 0.0))
        space = gmsfem.build_multiscale_space(mesh, coarse, params, bc, m=4)
        gmsfem.save_space(tmp_path, mesh, params, bc, space)
        loaded = gmsfem.load_space(tmp_path, mesh, coarse, params, bc, 4, False)
        assert_same_bases(loaded.cell_bases, space.cell_bases)
        ops = StepOperators(mesh, params, bc)
        built_traj, built = gmsfem.run_multiscale(mesh, coarse, params, bc, space=space, ops=ops)
        cached_traj, cached = gmsfem.run_multiscale(mesh, coarse, params, bc, space=loaded, ops=ops)
        assert np.array_equal(built.velocity, cached.velocity)
        assert np.array_equal(built.pressure, cached.pressure)
        assert np.array_equal(built_traj.div_residuals, cached_traj.div_residuals)

    def test_singular_coarse_system_raises_without_warning(self):
        upper = sp.diags([1.0, 0.0, 2.0])  # second velocity mode decoupled
        b_h = sp.csr_matrix(np.array([[1.0, 0.0, 1.0]]))
        saddle = coarse_saddle(upper, b_h, np.array([0]))
        steps = iter(range(10))

        def step_solve(u_h, rhs_u):
            # the nonlinear block couples the second mode until step 7
            blocks = np.eye(3)[None] * (next(steps) < 7)
            solver = SaddleSolver(saddle.system(saddle.static + blocks, rhs_u, np.ones(1)))
            return (*solver.solve(), solver)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError, match="^online step 7: "):
                march(
                    step_solve, sp.identity(3), np.ones(3), lambda u_h: 0.0,
                    make_params(n_steps=10), "online step",
                )

    @pytest.mark.parametrize("singular", ["static", "step"])
    def test_singular_system_from_a_kept_factor_raises_without_warning(self, singular, monkeypatch):
        # from KEPT_MIN unknowns on, the coarse run refines from a float64
        # factor of the static matrix: LAPACK's dense LU up to DENSE_MAX
        # unknowns, SuperLU's above.  A singular static matrix keeps none,
        # so the run factors every step; a step singular only itself misses
        # its refinement.  Either way step 7 fails its own factor, with
        # either kind of factor.
        monkeypatch.setattr("msflow.saddle.KEPT_MIN", 1)
        upper = sp.diags([1.0, 0.0 if singular == "static" else 1.0, 2.0])
        b_h = sp.csr_matrix(np.array([[1.0, 0.0, 1.0]]))
        for dense_max, kind in ((saddle.DENSE_MAX, saddle.DenseLU), (0, spla.SuperLU)):
            monkeypatch.setattr("msflow.saddle.DENSE_MAX", dense_max)
            ordered = coarse_saddle(upper, b_h, np.array([0]))
            assert (ordered.kept_lu is None) == (singular == "static")
            assert singular == "static" or isinstance(ordered.kept_lu, kind)
            steps = iter(range(10))
            paths = []

            def blocks(u_h):
                # static: the block couples the second mode until step 7;
                # step: from step 7 on it cancels the second mode's diagonal
                late = next(steps) >= 7
                if singular == "static":
                    return np.eye(3)[None] * (not late)
                return -np.diag([0.0, 1.0, 0.0])[None] * late

            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SingularSystemError, match="^online step 7: factorization failed"):
                    march(
                        ordered_step(ordered, blocks, np.ones(1)), sp.identity(3), np.ones(3),
                        lambda u_h: 0.0, make_params(n_steps=10), "online step",
                        lambda step, state, solver: paths.append((solver.kept, type(solver.lu))),
                    )
            assert paths == [(singular == "step", kind)] * 7


def _run(mesh, coarse, params, bc, space, ops):
    return gmsfem.run_multiscale(mesh, coarse, params, bc, space=space, ops=ops)[1]


def _fresh(space):
    """The same bases in a new root space, so nothing is reused."""
    return gmsfem.MultiscaleSpace(
        m=space.m, oversampled=space.oversampled, cell_bases=space.cell_bases,
        r_u=space.r_u, r_p=space.r_p,
    )


def _assert_close(got, want, rel):
    for a, b in ((got.velocity, want.velocity), (got.pressure, want.pressure)):
        assert np.abs(a - b).max() <= rel * np.abs(b).max()


class TestFamilyRecord:
    """The online operators built once per root space and read as prefixes."""

    @pytest.fixture(params=[False, True], ids=["plain", "oversampled"])
    def setting(self, request):
        mesh, coarse = tiny_heterogeneous(n=2)
        params = make_params(n_steps=3)
        bc = BoundaryData.inflow((1.0, 0.0))
        ops = StepOperators(mesh, params, bc)
        space = gmsfem.build_multiscale_space(
            mesh, coarse, params, bc, m=5, oversampled=request.param
        )
        return mesh, coarse, params, bc, ops, space

    def test_slice_runs_like_a_space_built_at_its_size(self, setting):
        mesh, coarse, params, bc, ops, space = setting
        _run(mesh, coarse, params, bc, space, ops)  # builds the record at m = 5
        small = gmsfem.resize_space(space, mesh, coarse, 2)
        assert small.root is space and space.root is None
        direct = gmsfem.build_multiscale_space(
            mesh, coarse, params, bc, m=2, oversampled=space.oversampled
        )
        want = _run(mesh, coarse, params, bc, direct, ops)
        _assert_close(_run(mesh, coarse, params, bc, small, ops), want, 1e-12)

    def test_slice_of_a_slice_runs_like_a_direct_slice(self, setting):
        mesh, coarse, params, bc, ops, space = setting
        twice = gmsfem.resize_space(gmsfem.resize_space(space, mesh, coarse, 4), mesh, coarse, 2)
        direct = gmsfem.resize_space(space, mesh, coarse, 2)
        assert twice.root is direct.root is space
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(twice.r_u, name), getattr(direct.r_u, name))
        got = _run(mesh, coarse, params, bc, twice, ops)
        want = _run(mesh, coarse, params, bc, direct, ops)
        assert np.array_equal(got.velocity, want.velocity)
        assert np.array_equal(got.pressure, want.pressure)

    def test_built_space_is_freed_without_the_cycle_collector(self, setting):
        # the root keeps the record and names no space, so a run on a slice
        # leaves no reference cycle: the space goes with its last name
        mesh, coarse, params, bc, ops, space = setting
        enabled = gc.isenabled()
        gc.disable()
        try:
            root = _fresh(space)
            small = gmsfem.resize_space(root, mesh, coarse, 2)
            _run(mesh, coarse, params, bc, small, ops)
            assert root.online is not None and small.online is None
            ref = weakref.ref(root)
            del root, small
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_loaded_family_runs_like_the_built_family(self, setting, tmp_path):
        mesh, coarse, params, bc, ops, space = setting
        gmsfem.save_space(tmp_path, mesh, params, bc, space)
        loaded = gmsfem.load_space(tmp_path, mesh, coarse, params, bc, 5, space.oversampled)
        for m in (5, 2):
            want = _run(mesh, coarse, params, bc, gmsfem.resize_space(space, mesh, coarse, m), ops)
            got = _run(mesh, coarse, params, bc, gmsfem.resize_space(loaded, mesh, coarse, m), ops)
            assert np.array_equal(got.velocity, want.velocity)
            assert np.array_equal(got.pressure, want.pressure)

    def test_other_step_operators_rebuild_the_record(self, setting):
        mesh, coarse, params, bc, ops, space = setting
        small = gmsfem.resize_space(space, mesh, coarse, 2)
        _run(mesh, coarse, params, bc, small, ops)
        other_bc = BoundaryData.inflow((0.5, 0.25))
        other_ops = StepOperators(mesh, params, other_bc)
        got = _run(mesh, coarse, params, other_bc, small, other_ops)
        want = _run(mesh, coarse, params, other_bc, _fresh(small), other_ops)
        assert np.array_equal(got.velocity, want.velocity)
        assert np.array_equal(got.pressure, want.pressure)
        stale = _run(mesh, coarse, params, bc, _fresh(small), ops)
        assert not np.allclose(got.velocity, stale.velocity)

    def test_the_record_orders_and_converts_once(self, setting, monkeypatch):
        # runs on a root at its size and on two of its slices order the
        # coarse cells once and convert r_u to blocks once: both static
        # projections of the record get the same r.  A second root, or the
        # same root with other step operators, builds a new record
        mesh, coarse, params, bc, ops, space = setting

        def family(root):
            return [root] + [gmsfem.resize_space(root, mesh, coarse, m) for m in (4, 2)]

        want = [_run(mesh, coarse, params, bc, s, ops) for s in family(_fresh(space))]
        orders, forms_of_r = [], []
        order, project = gmsfem.coarse_cell_order, gmsfem._project_blocks
        monkeypatch.setattr(gmsfem, "coarse_cell_order", lambda c: orders.append(c) or order(c))
        monkeypatch.setattr(
            gmsfem, "_project_blocks",
            lambda r, r_t, matrix: forms_of_r.append((r, r_t)) or project(r, r_t, matrix),
        )
        root = _fresh(space)
        got = [_run(mesh, coarse, params, bc, s, ops) for s in family(root)]
        assert len(orders) == 1 and len(forms_of_r) == 2
        (r, r_t), (r_again, r_t_again) = forms_of_r
        assert r is r_again and r_t is r_t_again
        for a, b in zip(got, want):
            assert np.array_equal(a.velocity, b.velocity)
            assert np.array_equal(a.pressure, b.pressure)
        _run(mesh, coarse, params, bc, _fresh(space), ops)
        assert len(orders) == 2 and len(forms_of_r) == 4
        _run(mesh, coarse, params, bc, family(root)[2], StepOperators(mesh, params, bc))
        assert len(orders) == 3 and len(forms_of_r) == 6

    def test_coarse_pattern_is_built_once_per_size(self, setting):
        # each run builds the coarse pattern of its size; a rerun of the same
        # space, built or sliced, repeats the first run bit for bit
        mesh, coarse, params, bc, ops, space = setting
        for s in (space, gmsfem.resize_space(space, mesh, coarse, 2)):
            states_a, states_b = [], []
            _, fine_a = gmsfem.run_multiscale(
                mesh, coarse, params, bc, space=s, ops=ops, observe=layers(states_a)
            )
            _, fine_b = gmsfem.run_multiscale(
                mesh, coarse, params, bc, space=s, ops=ops, observe=layers(states_b)
            )
            assert len(states_a) == len(states_b) == params.n_steps
            for a, b in zip(states_a, states_b):
                assert np.array_equal(a.velocity, b.velocity)
                assert np.array_equal(a.pressure, b.pressure)
            assert np.array_equal(fine_a.velocity, fine_b.velocity)
            assert np.array_equal(fine_a.pressure, fine_b.pressure)

    def test_ordered_coarse_matrix_equals_the_permuted_blocks(self, setting):
        mesh, coarse, params, bc, ops, space = setting
        rng = np.random.default_rng(5)
        for m in (5, 2):
            sized = gmsfem.resize_space(space, mesh, coarse, m)
            online = gmsfem._online_operators(sized, mesh, coarse, params, ops)
            u_h = rng.standard_normal(m * coarse.n_cells)
            upper = online.upper + sp.block_diag(online.step_blocks(u_h))
            saddle = sp.bmat([[upper, online.div.T], [online.div, None]], format="csc")
            system = online.system(u_h)
            want, got = saddle[system.perm][:, system.perm], system.matrix
            # a small coarse system is factored and solved in float64 by
            # LAPACK's dense LU, in its order
            solver = SaddleSolver(system)
            stacked, _ = solver.solve_stacked(np.concatenate([online.f_u, online.f_p])[:, None])
            assert system.kept_lu is None and not solver.kept and solver.corrections == 0
            lu, piv, info = la.lapack.dgetrf(got.toarray())
            assert info == 0
            x = np.empty((len(system.perm), 1))
            rhs = np.concatenate([online.f_u, online.f_p])[system.perm, None]
            x[system.perm] = la.lapack.dgetrs(lu, piv, rhs)[0]
            assert np.array_equal(stacked, x)
            for x in (got, want):
                x.eliminate_zeros()  # the fixed pattern may store zeros
                x.sort_indices()
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_drag_blocks_equal_the_repeated_weight_formula(self, setting):
        mesh, coarse, params, bc, ops, space = setting
        rng = np.random.default_rng(9)
        for m in (5, 2):
            sized = gmsfem.resize_space(space, mesh, coarse, m)
            nonlinear = gmsfem._online_operators(sized, mesh, coarse, params, ops).step_blocks
            assert nonlinear.spans  # the porous cells carry drag
            for _ in range(3):
                u_h = rng.standard_normal(m * coarse.n_cells)
                want = oracles.repeated_weight_blocks(nonlinear, u_h)
                assert np.array_equal(nonlinear(u_h), want)

    def test_other_parameters_rebuild_the_record(self, setting):
        mesh, coarse, params, bc, ops, space = setting
        _run(mesh, coarse, params, bc, space, ops)
        porous = make_params(n_steps=3, porosity=0.6)
        small = gmsfem.resize_space(space, mesh, coarse, 2)
        got = _run(mesh, coarse, porous, bc, small, ops)
        want = _run(mesh, coarse, porous, bc, _fresh(small), ops)
        assert np.array_equal(got.velocity, want.velocity)
        assert np.array_equal(got.pressure, want.pressure)
        stale = _run(mesh, coarse, params, bc, _fresh(small), ops)
        assert not np.allclose(got.velocity, stale.velocity)


@pytest.mark.parametrize(
    "shape, separator", [((4, 4), [1, 5, 9, 13]), ((3, 5), [4, 5, 6])], ids=["4x4", "3x5"]
)
def test_coarse_order_puts_each_cell_pressure_after_its_velocity(shape, separator):
    mesh, coarse = generate_structured_mesh(desk_domain(), 1, shape)
    n, m = coarse.n_cells, 3
    order = coarse_cell_order(coarse)
    assert np.array_equal(np.sort(order), np.arange(n))
    # the first cut splits the wider side; the cells next to it come last
    assert np.array_equal(np.sort(order[-len(separator) :]), separator)
    upper, b_h = sp.identity(m * n, format="csr"), sp.csr_matrix((n, m * n))
    perm = coarse_saddle(upper, b_h, order).perm
    assert np.array_equal(np.sort(perm), np.arange((m + 1) * n))
    unknowns = perm.reshape(n, m + 1)  # one row per cell in elimination order
    assert np.array_equal(unknowns[:, :m], m * order[:, None] + np.arange(m))
    assert np.array_equal(unknowns[:, m], m * n + order)


class TestThreadCount:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("MSFLOW_THREADS", raising=False)
        assert gmsfem.default_thread_count() == 1

    @pytest.mark.parametrize("value", ["abc", "2.5", "0", "-3"])
    def test_invalid_values_are_config_errors(self, monkeypatch, value):
        monkeypatch.setenv("MSFLOW_THREADS", value)
        with pytest.raises(ConfigError, match="MSFLOW_THREADS"):
            gmsfem.default_thread_count()

    def test_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(gmsfem.os, "cpu_count", lambda: 3)
        monkeypatch.setenv("MSFLOW_THREADS", "1000000")
        assert gmsfem.default_thread_count() == 3
        monkeypatch.setenv("MSFLOW_THREADS", "2")
        assert gmsfem.default_thread_count() == 2


class TestProjectedOperators:
    def test_projected_mass_symmetric_psd_and_dof_exact(self, rng):
        mesh, coarse = tiny_heterogeneous(n=2)
        params = make_params()
        bc = BoundaryData.inflow((1.0, 0.0))
        m = 4
        space = gmsfem.build_multiscale_space(mesh, coarse, params, bc, m=m)
        n_dof = space.r_u.shape[0] + space.r_p.shape[0]
        assert n_dof == analysis.dof_multiscale(coarse.n_cells, m)
        mass = forms.assemble_mass(full_patch(mesh), params)
        m_h = (space.r_u @ mass @ space.r_u.T).toarray()
        assert np.max(np.abs(m_h - m_h.T)) < 1e-12 * np.abs(m_h).max()
        assert np.linalg.eigvalsh(m_h).min() > -1e-12 * np.abs(m_h).max()


class TestConcurrency:
    def test_threaded_build_matches_serial(self, monkeypatch):
        mesh, coarse = tiny_heterogeneous(n=2)
        params = make_params()
        bc = BoundaryData.inflow((1.0, 0.0))
        monkeypatch.setattr(gmsfem.os, "cpu_count", lambda: 4)
        monkeypatch.setenv("MSFLOW_THREADS", "1")
        serial = gmsfem.build_multiscale_space(mesh, coarse, params, bc, m=3)
        monkeypatch.setenv("MSFLOW_THREADS", "4")
        assert gmsfem.default_thread_count() == 4
        threaded = gmsfem.build_multiscale_space(mesh, coarse, params, bc, m=3)
        assert serial.r_u.shape == threaded.r_u.shape
        for field in ("data", "indices", "indptr"):
            a, b = getattr(serial.r_u, field), getattr(threaded.r_u, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
        assert len(serial.cell_bases) == len(threaded.cell_bases) == coarse.n_cells
        for a, b in zip(serial.cell_bases, threaded.cell_bases):
            assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()


class TestBasisCache:
    def test_save_and_load_round_trip(self, tmp_path):
        mesh, coarse = tiny_heterogeneous(n=2)
        params = make_params(n_steps=1)
        bc = BoundaryData.inflow((1.0, 0.0))
        space = gmsfem.build_multiscale_space(mesh, coarse, params, bc, m=4)
        gmsfem.save_space(tmp_path, mesh, params, bc, space)
        loaded = gmsfem.load_space(tmp_path, mesh, coarse, params, bc, 3, False)
        assert loaded is not None
        expect = gmsfem.resize_space(space, mesh, coarse, 3)
        assert np.allclose((loaded.r_u - expect.r_u).toarray(), 0.0)
        # different parameters miss the cache
        other = params.with_darcy(params.darcy * 10)
        assert gmsfem.load_space(tmp_path, mesh, coarse, other, bc, 3, False) is None

    def test_changed_inflow_misses_the_cache(self, tmp_path):
        mesh, coarse = tiny_heterogeneous(n=2)
        params = make_params(n_steps=1)
        bc = BoundaryData.inflow((1.0, 0.0))
        space = gmsfem.build_multiscale_space(mesh, coarse, params, bc, m=3)
        gmsfem.save_space(tmp_path, mesh, params, bc, space)
        same = BoundaryData.inflow((1.0, 0.0))
        assert gmsfem.load_space(tmp_path, mesh, coarse, params, same, 3, False) is not None
        other = BoundaryData.inflow((1.0, 1.0))
        assert gmsfem.load_space(tmp_path, mesh, coarse, params, other, 3, False) is None

    def test_every_parameter_field_and_the_flag_change_the_key(self):
        mesh, _ = tiny_heterogeneous(n=2)
        params = make_params(n_steps=1, penalty=5.0)
        bc = BoundaryData.inflow((1.0, 0.0))
        keys = [gmsfem._space_key(mesh, params, bc, False), gmsfem._space_key(mesh, params, bc, True)]
        for f in dataclasses.fields(ModelParameters):
            if f.name == "t_max":
                continue  # derived, tau * n_steps: it moves only with them
            changed = dataclasses.replace(params, **{f.name: 2 * getattr(params, f.name), "t_max": None})
            keys.append(gmsfem._space_key(mesh, changed, bc, False))
        assert len(set(keys)) == len(keys)

    def test_a_field_of_a_subclass_changes_the_key(self):
        mesh, _ = tiny_heterogeneous(n=2)
        bc = BoundaryData.inflow((1.0, 0.0))
        fields = dataclasses.asdict(make_params(n_steps=1))
        keys = {gmsfem._space_key(mesh, WiderParameters(**fields, extra=v), bc, False) for v in (0.0, 1.0)}
        assert len(keys) == 2

    def test_file_saved_under_another_basis_version_misses(self, tmp_path, monkeypatch):
        _, args = self._saved(tmp_path)
        assert gmsfem.load_space(*args) is not None
        monkeypatch.setattr(gmsfem, "BASIS_VERSION", gmsfem.BASIS_VERSION + 1)
        assert gmsfem.load_space(*args) is None

    def test_callable_boundary_data_cannot_key_the_cache(self, tmp_path):
        mesh, coarse = tiny_heterogeneous(n=2)
        params = make_params(n_steps=1)
        bc = BoundaryData(velocity=lambda x: np.ones((len(x), 2)))
        with pytest.raises(ValueError, match="callables"):
            gmsfem.load_space(tmp_path, mesh, coarse, params, bc, 3, False)

    def test_unwritable_cache_names_the_file(self, tmp_path):
        mesh, coarse = tiny_heterogeneous(n=2)
        params = make_params(n_steps=1)
        bc = BoundaryData.inflow((1.0, 0.0))
        space = gmsfem.build_multiscale_space(mesh, coarse, params, bc, m=3)
        blocker = tmp_path / "cache"
        blocker.write_text("a file, not a directory\n")
        name = rf"{blocker}/basis_\w+_m3\.npz"
        with pytest.raises(MsflowError, match=f"basis cache file {name} not saved"):
            gmsfem.save_space(blocker, mesh, params, bc, space)
        assert not any(tmp_path.glob("**/*.npz*"))

    @staticmethod
    def _saved(tmp_path):
        mesh, coarse = tiny_heterogeneous(n=2)
        params = make_params(n_steps=1)
        bc = BoundaryData.inflow((1.0, 0.0))
        space = gmsfem.build_multiscale_space(mesh, coarse, params, bc, m=3)
        path = gmsfem.save_space(tmp_path, mesh, params, bc, space)
        return path, (tmp_path, mesh, coarse, params, bc, 3, False)

    def test_garbage_file_is_a_warned_miss(self, tmp_path):
        path, args = self._saved(tmp_path)
        with np.load(path) as data:
            payload = dict(data)
        older = io.BytesIO()  # the format before the eigenvalues were stored
        np.savez_compressed(older, **{k: v for k, v in payload.items() if not k.startswith("eig_")})
        payload["eig_1"] = payload["eig_1"].copy()
        payload["eig_1"][0] = np.nan
        non_finite = io.BytesIO()
        np.savez_compressed(non_finite, **payload)
        for body in (b"not a basis cache" * 10, older.getvalue(), non_finite.getvalue()):
            with open(path, "wb") as fh:
                fh.write(body)
            with pytest.warns(RuntimeWarning, match=os.path.basename(path)):
                assert gmsfem.load_space(*args) is None

    def test_altered_cell_ids_are_a_warned_miss(self, tmp_path):
        path, args = self._saved(tmp_path)
        with np.load(path) as data:
            payload = dict(data)
        payload["cells_1"] = payload["cells_1"].copy()
        payload["cells_1"][0] = payload["cells_0"][0]
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **payload)
        with pytest.warns(RuntimeWarning, match="coarse cell 1"):
            assert gmsfem.load_space(*args) is None

    def test_file_with_eigenvalues_and_metadata_loads_unchanged(self, tmp_path):
        # files that also carry the size and flag keys of an earlier format load
        path, args = self._saved(tmp_path)
        current = gmsfem.load_space(*args)
        with np.load(path) as data:
            payload = dict(data)
        n_coarse = args[2].n_cells
        assert all(f"eig_{i}" in payload for i in range(n_coarse))
        assert not any(k in ("m", "oversampled") for k in payload)
        payload.update(m=np.array([3]), oversampled=np.array([0]))
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            older = gmsfem.load_space(*args)
        for name in ("r_u", "r_p"):
            a, b = getattr(older, name), getattr(current, name)
            assert np.array_equal(a.toarray(), b.toarray())
        assert_same_bases(older.cell_bases, current.cell_bases)

    def test_malformed_size_in_the_name_is_a_warned_miss(self, tmp_path):
        path, args = self._saved(tmp_path)
        bad = path.replace("_m3.npz", "_m3x.npz")
        os.replace(path, bad)
        with pytest.warns(RuntimeWarning, match=os.path.basename(bad)):
            assert gmsfem.load_space(*args) is None
