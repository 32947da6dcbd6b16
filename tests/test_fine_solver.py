import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import oracles
from msflow import forms, gmsfem, saddle
from msflow.errors import SingularSystemError
from msflow.fine_solver import StepOperators, march, run_fine
from msflow.geometry import POROUS, DomainSpec, generate_structured_mesh
from msflow.parameters import BoundaryData, DGState, ModelParameters, preset_parameters
from msflow.patches import ND_LEAF_CELLS, bisect_cells, full_patch, nested_dissection_order
from msflow.saddle import KEPT_MIN, REFRESH_AFTER, SINGLE_MIN, SaddleSolver, ordered_step

from conftest import desk_domain, layers, make_params, tiny_heterogeneous


def small_channel(n=2, nx=2, ny=2, **overrides):
    dom = DomainSpec(bbox=(0, 0, 1, 1))
    mesh, coarse = generate_structured_mesh(dom, n, (nx, ny))
    params = make_params(porosity=1.0, forchheimer=0.0, **overrides)
    return mesh, coarse, params


def test_zero_data_zero_trajectory():
    mesh, _, params = small_channel(n=2, **{"n_steps": 3})
    bc = BoundaryData()
    states = []
    traj = run_fine(mesh, params, bc, observe=layers(states))
    for state in states:
        assert np.all(state.velocity == 0.0)
        assert np.all(state.pressure == 0.0)
    assert len(states) == params.n_steps
    assert traj.final is states[-1]


def step(ops, state, u_lin):
    """One implicit step from state, linearized at u_lin."""
    rhs_u = ops.mass @ state.velocity + ops.f_u
    return DGState(*SaddleSolver(ops.system(u_lin)).solve(rhs_u, ops.f_p))


def test_single_step_equals_run_with_one_step():
    mesh, _, params = small_channel(n=2, **{"n_steps": 1})
    bc = BoundaryData.inflow((1.0, 0.0))
    traj = run_fine(mesh, params, bc)
    ops = StepOperators(mesh, params, bc)
    zero = DGState.zeros(mesh.n_cells)
    state = step(ops, zero, zero.velocity)
    assert np.allclose(traj.final.velocity, state.velocity)
    assert np.allclose(traj.final.pressure, state.pressure)


def test_stokes_step_matches_dense_oracle():
    dom = DomainSpec(bbox=(0, 0, 1, 1))
    mesh, _ = generate_structured_mesh(dom, 1, (1, 1))
    params = make_params(porosity=1.0, forchheimer=0.0)
    bc = BoundaryData.inflow((1.0, 0.0))
    ops = StepOperators(mesh, params, bc)
    zero = DGState.zeros(mesh.n_cells)
    state = step(ops, zero, zero.velocity)
    # dense solve of the same assembled block system
    upper = ops.upper.toarray()
    b = ops.div.toarray()
    n_u, n_p = upper.shape[0], b.shape[0]
    full = np.zeros((n_u + n_p, n_u + n_p))
    full[:n_u, :n_u] = upper
    full[:n_u, n_u:] = b.T
    full[n_u:, :n_u] = b
    rhs = np.concatenate([ops.f_u, ops.f_p])
    x = np.linalg.solve(full, rhs)
    assert np.max(np.abs(state.velocity - x[:n_u])) < 1e-10 * max(1.0, np.abs(x).max())
    assert np.max(np.abs(state.pressure - x[n_u:])) < 1e-10 * max(1.0, np.abs(x).max())


@pytest.mark.parametrize("linear", [True, False], ids=["linear", "nonlinear"])
def test_failed_step_names_the_fine_step(linear):
    mesh, _, params = small_channel(n=2, **{"n_steps": 3})
    bc = BoundaryData.inflow((1.0, 0.0))
    ops = StepOperators(mesh, params, bc)
    ops.f_u[0] = np.nan
    with pytest.raises(SingularSystemError, match="^fine step 0: non-finite right-hand side"):
        run_fine(mesh, params, bc, linear=linear, ops=ops)


def test_divergence_residual_recorded():
    mesh, _, params = small_channel(n=3, **{"n_steps": 4})
    bc = BoundaryData.inflow((1.0, 0.0))
    traj = run_fine(mesh, params, bc)
    assert traj.div_residuals.shape == (4,)
    assert traj.div_residuals.max() < 1e-9


def test_time_self_convergence():
    # first-order scheme: halving the step roughly halves the difference
    dom = desk_domain()
    mesh, _ = generate_structured_mesh(dom, 3, (2, 2))
    bc = BoundaryData.inflow((1.0, 0.0))
    t_max = 0.02
    finals = []
    for n_steps in (4, 8, 16):
        params = ModelParameters(
            reynolds=1.0, darcy=1e-3, forchheimer=1.0, porosity=0.3,
            tau=t_max / n_steps, n_steps=n_steps,
        )
        finals.append(run_fine(mesh, params, bc).final.velocity)
    e1 = np.linalg.norm(finals[0] - finals[1])
    e2 = np.linalg.norm(finals[1] - finals[2])
    order = np.log2(e1 / e2)
    assert order >= 0.8


def test_energy_dissipation_linear_regime():
    # no forcing, no convection, no quadratic drag: the weighted kinetic
    # energy of a free state cannot grow
    mesh, _, params = small_channel(n=3, **{"n_steps": 1})
    bc = BoundaryData()
    ops = StepOperators(mesh, params, bc)
    rng = np.random.default_rng(7)
    state = DGState(rng.standard_normal(6 * mesh.n_cells), np.zeros(mesh.n_cells))
    energies = []
    for _ in range(5):
        energies.append(state.velocity @ (ops.mass @ state.velocity))
        state = step(ops, state, np.zeros(6 * mesh.n_cells))
    energies.append(state.velocity @ (ops.mass @ state.velocity))
    assert all(b <= a * (1 + 1e-12) for a, b in zip(energies, energies[1:]))


def test_determinism():
    mesh, _, params = small_channel(n=2, **{"n_steps": 3})
    bc = BoundaryData.inflow((1.0, 0.0))
    t1 = run_fine(mesh, params, bc)
    t2 = run_fine(mesh, params, bc)
    assert np.array_equal(t1.final.velocity, t2.final.velocity)
    assert np.array_equal(t1.final.pressure, t2.final.pressure)


def test_boundary_trace_convergence():
    # weakly imposed Poiseuille inflow (force-free exact Stokes solution):
    # the L2 boundary mismatch decays at first order or better
    from msflow.quadrature import EDGE_G2_S, EDGE_G2_W
    from msflow.saddle import SaddleSolver, SaddleSystem

    def profile(p):
        p = np.atleast_2d(p)
        return np.stack([4.0 * p[:, 1] * (1.0 - p[:, 1]), np.zeros(len(p))], axis=-1)

    bc = BoundaryData(velocity=profile)
    mismatch = []
    for n in (4, 8, 16):
        mesh, _, params = small_channel(n=n, nx=1, ny=1)
        patch = full_patch(mesh)
        matrix = oracles.saddle_matrix(forms.viscous_block(patch, params), forms.assemble_divergence(patch))
        f_u, f_p = forms.assemble_rhs(patch, params, bc)
        u, _ = SaddleSolver(SaddleSystem(matrix, f_u, f_p)).solve()
        coefs = u.reshape(mesh.n_cells, 3, 2)
        total = 0.0
        for k, (va, vb) in enumerate(mesh.edge_verts[patch.dirichlet_edges]):
            c = patch.dirichlet.cell[k]
            pa = mesh.verts[va]
            pb = mesh.verts[vb]
            pts = pa[None, :] * (1 - EDGE_G2_S)[:, None] + pb[None, :] * EDGE_G2_S[:, None]
            ia = list(mesh.cells[patch.cells[c]]).index(va)
            ib = list(mesh.cells[patch.cells[c]]).index(vb)
            trace = (
                coefs[patch.cells[c], ia][None, :] * (1 - EDGE_G2_S)[:, None]
                + coefs[patch.cells[c], ib][None, :] * EDGE_G2_S[:, None]
            )
            gap = trace - profile(pts)
            total += patch.dir_len[k] * np.dot(EDGE_G2_W, np.sum(gap**2, axis=1))
        mismatch.append(np.sqrt(total))
    orders = np.log2(np.array(mismatch[:-1]) / np.array(mismatch[1:]))
    assert mismatch[2] < mismatch[1] < mismatch[0]
    assert orders.min() >= 1.0


def test_benchmark_scaled_down_qualitative():
    # 50-step low-Reynolds run: coarse-row pressure averages fall from inlet
    # to outlet, and the porous inclusions slow the flow down
    dom = desk_domain()
    mesh, coarse = generate_structured_mesh(dom, 6, (4, 4))
    params = ModelParameters(
        reynolds=1.0, darcy=1e-3, forchheimer=1.0, porosity=0.3,
        tau=0.01 / 50, n_steps=50,
    )
    bc = BoundaryData.inflow((1.0, 0.0))
    traj = run_fine(mesh, params, bc)
    from msflow.analysis import coarse_average, field_statistics

    pbar = coarse_average(traj.final.pressure, mesh, coarse)
    row = pbar.reshape(coarse.ny, coarse.nx)[coarse.ny // 2]
    assert np.all(np.diff(row) < 0)
    stats = field_statistics(traj.final, mesh)
    assert stats.porous.mean_speed < stats.fluid.mean_speed


def _desk_patch():
    mesh, _ = generate_structured_mesh(desk_domain(), 8, (4, 4))
    return full_patch(mesh)


def test_nested_dissection_order_is_a_permutation():
    for mesh in (_desk_patch().mesh, tiny_heterogeneous()[0]):
        order = StepOperators(mesh, make_params(), BoundaryData.inflow((1.0, 0.0))).cell_order
        assert np.array_equal(np.sort(order), np.arange(mesh.n_cells))
        # the generalized recursion keeps the fine-step order bit for bit
        assert np.array_equal(order, oracles.patch_nested_dissection(full_patch(mesh)))


def test_separator_splits_the_interior_edge_graph():
    patch = _desk_patch()
    xy = patch.mesh.centroid[patch.cells]
    edges = np.column_stack([patch.plus.cell, patch.minus.cell])
    cells = np.arange(patch.n_cells)
    low, high, separator = bisect_cells(xy, cells, edges)
    assert np.array_equal(np.sort(np.concatenate([low, high, separator])), cells)
    assert len(separator) < 0.1 * patch.n_cells
    side = np.full(patch.n_cells, -1)
    side[low], side[high] = 0, 1
    s = side[edges]
    assert not np.any((s[:, 0] == 0) & (s[:, 1] == 1) | (s[:, 0] == 1) & (s[:, 1] == 0))
    # the whole order is: lower part, upper part, then the separator
    order = nested_dissection_order(xy, edges, ND_LEAF_CELLS)
    assert np.array_equal(order[len(order) - len(separator) :], separator)
    assert np.array_equal(np.sort(order[: len(low)]), np.sort(low))


@pytest.mark.parametrize("case", ["tiny_heterogeneous", "desk"])
def test_step_blocks_store_no_zeros_and_keep_their_assembled_values(case):
    # forms._kron2 writes the zero cross-component entries of each cell
    # block; mass drops them and keeps every other value's bits, and upper,
    # mass + viscous + Darcy summed once, stores none.  It equals the sum of
    # the zero-free blocks bit for bit.  The divergence keeps its explicit
    # zeros: COLAMD orders the linear run's system on its pattern.
    if case == "desk":
        mesh, _ = generate_structured_mesh(desk_domain(), 8, (4, 4))
    else:
        mesh, _ = tiny_heterogeneous()
    params = make_params()
    ops = StepOperators(mesh, params, BoundaryData.inflow((1.0, 0.0)))
    assert not any(hasattr(ops, name) for name in ("viscous", "darcy", "mesh"))
    blocks = [
        forms.assemble_mass(ops.patch, params),
        forms.viscous_block(ops.patch, params),
        forms.darcy_block(ops.patch, params),
    ]
    for block in blocks:
        assert np.any(block.data == 0)
        block.eliminate_zeros()
    mass, viscous, darcy = blocks
    for name, want in (("mass", mass), ("upper", mass + viscous + darcy)):
        got = getattr(ops, name)
        assert got.nnz and np.all(got.data != 0), name
        for part in ("data", "indices", "indptr"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, part)
    want = forms.assemble_divergence(ops.patch)
    assert np.any(ops.div.data == 0)
    for part in ("data", "indices", "indptr"):
        assert getattr(ops.div, part).tobytes() == getattr(want, part).tobytes()


def test_step_systems_carry_the_order_and_the_linear_system_does_not():
    mesh, _ = tiny_heterogeneous()
    ops = StepOperators(mesh, make_params(), BoundaryData.inflow((1.0, 0.0)))
    assert ops.system(None).perm is None
    zero = np.zeros(ops.patch.n_vdof)
    first = ops.system(zero)
    assert np.array_equal(first.perm, oracles.block_step_matrix(ops, zero)[1])
    second = ops.system(np.ones(ops.patch.n_vdof))
    assert second.perm is first.perm  # the ordered pattern is built once
    assert np.shares_memory(second.matrix.indices, first.matrix.indices)
    assert ops.system(None).perm is None


@pytest.fixture(params=[1.0, 0.0], ids=["forchheimer", "no_forchheimer"])
def tiny_step(request):
    mesh, _ = tiny_heterogeneous()
    assert np.any(mesh.region == POROUS)
    params = make_params(forchheimer=request.param, n_steps=4)
    bc = BoundaryData.inflow((1.0, 0.0))
    return mesh, params, bc, StepOperators(mesh, params, bc)


def test_ordered_step_matrix_equals_the_permuted_blocks(tiny_step):
    _, _, _, ops = tiny_step
    n = ops.patch.n_vdof
    u1, _ = oracles.block_step_solve(ops, np.zeros(n), ops.f_u)
    fields = (np.zeros(n), u1, np.random.default_rng(3).standard_normal(n))
    for u_lin in fields:  # step 0, step 1 and a rough field
        got = ops.system(u_lin).matrix.copy()
        got.sort_indices()
        want, _ = oracles.block_step_matrix(ops, u_lin)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


def test_run_fine_equals_the_block_assembled_loop(tiny_step, monkeypatch):
    monkeypatch.setattr(saddle, "DENSE_MAX", 0)  # the oracle's SuperLU factors
    mesh, params, bc, ops = tiny_step
    states = [DGState.zeros(mesh.n_cells)]
    run_fine(mesh, params, bc, ops=ops, observe=layers(states))
    want = oracles.block_run_fine(ops, params.n_steps)
    assert len(states) == len(want)
    for state, (u, p) in zip(states, want):
        assert np.array_equal(state.velocity, u)
        assert np.array_equal(state.pressure, p)


def test_a_run_over_the_budget_refreshes_a_factor_it_keeps_to_itself(tiny_step, monkeypatch):
    # the tiny step (224 unknowns) is refined from a float64 SuperLU factor
    # (DENSE_MAX pinned below its size, as on a fine mesh).  Step 1
    # takes more than REFRESH_AFTER corrections from the static one, so step
    # 2 is factored directly and its factor serves step 3.  That factor
    # stays with the run: two runs on one saddle, and run_fine, agree bit
    # for bit, and the saddle still holds its static factor.
    monkeypatch.setattr(saddle, "DENSE_MAX", 0)
    mesh, params, bc, ops = tiny_step
    shared = ops.step_saddle()
    static = shared.kept_lu
    assert static is not None and KEPT_MIN <= len(shared.perm) < SINGLE_MIN
    runs = []
    for run in ("shared", "shared", "run_fine"):
        steps = []

        def observe(step, state, solver):
            steps.append((state, solver.kept, solver.corrections, solver.system.kept_lu, solver.lu))

        if run == "shared":
            step_solve = ordered_step(shared, ops.step_blocks, ops.f_p)
            march(step_solve, ops.mass, ops.f_u, ops.div_residual, params, "fine step", observe)
        else:
            run_fine(mesh, params, bc, ops=ops, observe=observe)
        runs.append(steps)
        assert shared.kept_lu is static
    first = runs[0]
    assert [(kept, corrections > REFRESH_AFTER) for _, kept, corrections, _, _ in first[:3]] == [
        (True, False), (True, True), (False, False)
    ]
    assert first[0][3] is first[1][3] is static
    refreshed = first[2][4]
    assert first[2][3] is None and refreshed.U.dtype == np.float64
    assert first[3][1] and first[3][3] is first[3][4] is refreshed
    for other in runs[1:]:
        assert [step[1:3] for step in other] == [step[1:3] for step in first]
        for (got, *_), (want, *_) in zip(other, first):
            assert np.array_equal(got.velocity, want.velocity)
            assert np.array_equal(got.pressure, want.pressure)


def ordered_run(ops, params, n_steps=8):
    """The (saddle, solvers) of an ordered_step run of n_steps on a new
    step saddle of ops."""
    shared = ops.step_saddle()
    solvers = []
    march(
        ordered_step(shared, ops.step_blocks, ops.f_p), ops.mass, ops.f_u, ops.div_residual,
        dataclasses.replace(params, n_steps=n_steps, t_max=None), "fine step",
        lambda step, state, solver: solvers.append(solver),
    )
    return shared, solvers


def test_the_refresh_budget_is_read_from_saddle(tiny_step, monkeypatch):
    # with no corrections allowed, the step after any step that took one is
    # factored directly, and its factor serves the step after it
    _, params, _, ops = tiny_step
    monkeypatch.setattr(saddle, "REFRESH_AFTER", 0)
    shared, solvers = ordered_run(ops, params)
    assert KEPT_MIN <= len(shared.perm) < SINGLE_MIN
    refreshes = 0
    for before, after in zip(solvers, solvers[1:]):
        due = before.kept and before.corrections > 0
        assert (after.system.kept_lu is None) == due
        if due:
            refreshes += 1
            assert not after.kept and after.corrections == 0
        elif not before.kept:
            assert after.system.kept_lu is before.lu
    assert refreshes >= 2


def test_the_precision_floor_is_read_from_saddle(tiny_step, monkeypatch):
    # from SINGLE_MIN unknowns on nothing refreshes: every step refines from
    # the saddle's float32 factor, and no step hands its own to the next
    _, params, _, ops = tiny_step
    monkeypatch.setattr(saddle, "SINGLE_MIN", ops.patch.n_vdof + ops.patch.n_pdof)
    shared, solvers = ordered_run(ops, params)
    static = shared.kept_lu
    assert static.U.dtype == np.float32
    assert max(solver.corrections for solver in solvers) > REFRESH_AFTER
    for solver in solvers:
        assert solver.system.kept_lu is static and solver.kept and solver.lu is static


def test_a_missed_step_hands_its_factor_to_the_next_step(monkeypatch):
    # test3 (Re=100) on the tiny mesh: step 1 misses its refinement from the
    # static factor, so its own float64 factor serves step 2, which takes
    # more than REFRESH_AFTER corrections; step 3 refreshes, and step 4
    # refines from step 3's factor, and misses too.  Each solver names its
    # path and counts its kept-factor solves, a missed refinement's too.
    # The run equals the block-assembled loop under the same rule bit for
    # bit, on SuperLU factors as a fine mesh's.
    monkeypatch.setattr(saddle, "DENSE_MAX", 0)
    mesh, _ = tiny_heterogeneous()
    params = preset_parameters("test3", 1e-3, n_steps=10)
    bc = BoundaryData.inflow((1.0, 0.0))
    ops = StepOperators(mesh, params, bc)
    steps = []
    run_fine(mesh, params, bc, ops=ops, observe=lambda k, state, solver: steps.append((state, solver)))
    zero, missed, served, refresh, after = (solver for _, solver in steps[:5])
    assert zero.kept and not missed.kept and missed.corrections > 0
    assert missed.system.kept_lu is zero.lu and missed.lu.U.dtype == np.float64
    assert served.kept and served.system.kept_lu is served.lu is missed.lu
    assert served.corrections > REFRESH_AFTER
    assert not refresh.kept and refresh.system.kept_lu is None and refresh.corrections == 0
    assert after.system.kept_lu is refresh.lu
    paths = [solver.path for solver in (zero, missed, served, refresh, after)]
    assert paths == ["kept", "own", "kept", "refresh", "own"]
    assert [solver.kept_solves for solver in (missed, refresh, after)] == [
        1 + missed.corrections, 0, 1 + after.corrections
    ]
    want = oracles.block_run_fine(ops, params.n_steps)[1:]
    for (state, _), (u, p) in zip(steps, want, strict=True):
        assert np.array_equal(state.velocity, u) and np.array_equal(state.pressure, p)


def test_run_fine_equals_the_step_loop_on_the_same_operators():
    # a step's answer depends on its system and the kept static factor, not
    # on earlier steps, so run_fine (which holds its own) and a loop over
    # ops.system agree bit for bit, the second loop too, and so does the
    # solve path that the observer sees
    mesh, _ = generate_structured_mesh(desk_domain(), 8, (4, 4))
    params = make_params(tau=2e-4, n_steps=3)
    bc = BoundaryData.inflow((1.0, 0.0))
    ops = StepOperators(mesh, params, bc)
    steps = []

    def observe(step, state, solver):
        steps.append((state, solver.kept, solver.corrections))

    run_fine(mesh, params, bc, ops=ops, observe=observe)
    assert len(steps) == params.n_steps
    for _ in range(2):
        u = np.zeros(ops.patch.n_vdof)
        for state, kept, corrections in steps:
            solver = SaddleSolver(ops.system(u))
            u, p = solver.solve(ops.mass @ u + ops.f_u, ops.f_p)
            assert solver.kept and kept
            assert solver.corrections == corrections
            assert np.array_equal(u, state.velocity) and np.array_equal(p, state.pressure)


def test_a_returned_run_holds_one_state_and_the_observer_sees_every_step():
    # march keeps only the last layer, so the memory that a returned
    # trajectory holds does not grow with the number of steps
    mesh, _ = generate_structured_mesh(desk_domain(), 4, (4, 4))
    bc = BoundaryData.inflow((1.0, 0.0))
    ops = StepOperators(mesh, make_params(), bc)
    run_fine(mesh, make_params(n_steps=2), bc, ops=ops)  # first-use caches, untraced
    one_state = DGState.zeros(mesh.n_cells)
    state_bytes = one_state.velocity.nbytes + one_state.pressure.nbytes

    def held(n_steps):
        """The traced memory that a returned run of n_steps holds, the run,
        and the steps and last state its observer saw."""
        seen = {"steps": []}

        def observe(step, state, solver):
            seen["steps"].append(step)
            seen["state"] = state

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            traj = run_fine(mesh, make_params(n_steps=n_steps), bc, ops=ops, observe=observe)
            return tracemalloc.get_traced_memory()[0] - base, traj, seen
        finally:
            tracemalloc.stop()

    short, _, _ = held(2)
    long, traj, seen = held(20)
    assert long - short < state_bytes
    assert seen["steps"] == list(range(20))
    assert seen["state"] is traj.final


def test_linearization_field_keeps_the_colamd_factorization():
    # the linear run's field weights every snapshot problem, so it must not
    # change by a bit when the nonlinear steps are factored in cell order
    mesh, _ = tiny_heterogeneous()
    params = make_params(n_steps=3)
    bc = BoundaryData.inflow((1.0, 0.0))
    ops = StepOperators(mesh, params, bc)
    ops.system(np.zeros(ops.patch.n_vdof))  # the order exists on ops
    u_lin = gmsfem.compute_linearization_field(mesh, params, bc, ops=ops)

    matrix = sp.bmat([[ops.upper, ops.div.T], [ops.div, None]], format="csc")
    lu = spla.splu(matrix, permc_spec="COLAMD")
    nu = ops.patch.n_vdof
    u = np.zeros(nu)
    for _ in range(params.n_steps):
        rhs = np.concatenate([ops.mass @ u + ops.f_u, ops.f_p])
        u = lu.solve(rhs[:, None])[:nu, 0]
    assert np.array_equal(u_lin, u)
