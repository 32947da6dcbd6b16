"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The desk-scale multiscale
checks share one session-cached set of reference runs and basis spaces.
"""

import csv
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse.linalg as spla

import oracles
from msflow import analysis, forms, gmsfem, saddle
from msflow.fine_solver import StepOperators, run_fine
from msflow.geometry import FLUID, POROUS, CircleInclusion, DomainSpec, generate_structured_mesh
from msflow.parameters import BoundaryData, preset_parameters
from msflow.patches import coarse_cell_patch, full_patch
from msflow.quadrature import TRI_D4_BARY, TRI_D4_W
from msflow.saddle import REFRESH_AFTER, SaddleSolver, SaddleSystem

from conftest import desk_domain, linearized_matrices, make_params, random_rect_two_cells


def _report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} ({detail})", flush=True)
    assert passed, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------- desk rig


class DeskRig:
    """Desk-scale benchmark configuration shared by criteria 3, 4, 5, 6, 8:
    4x4 coarse grid, 2048 fine triangles, four inclusions, Test-1 parameters
    with 50 time steps."""

    M_LIST = (2, 4, 8, 16)

    def __init__(self):
        self.domain = desk_domain()
        self.mesh, self.coarse = generate_structured_mesh(self.domain, 8, (4, 4))
        self.bc = BoundaryData.inflow((1.0, 0.0))
        self._fine = {}
        self._ulin = {}
        self._ops = {}
        self._space = {}
        self._ms = {}

    def params(self, darcy):
        return preset_parameters("test1", darcy=darcy)

    def fine(self, darcy):
        if darcy not in self._fine:
            self._fine[darcy] = run_fine(self.mesh, self.params(darcy), self.bc)
        return self._fine[darcy]

    def ops(self, darcy):
        if darcy not in self._ops:
            self._ops[darcy] = StepOperators(self.mesh, self.params(darcy), self.bc)
        return self._ops[darcy]

    def u_lin(self, darcy):
        if darcy not in self._ulin:
            self._ulin[darcy] = gmsfem.compute_linearization_field(
                self.mesh, self.params(darcy), self.bc
            )
        return self._ulin[darcy]

    def space(self, darcy, oversampled):
        key = (darcy, oversampled)
        if key not in self._space:
            with pytest.warns(RuntimeWarning) if oversampled else nullcontext():
                self._space[key] = gmsfem.build_multiscale_space(
                    self.mesh,
                    self.coarse,
                    self.params(darcy),
                    self.bc,
                    m=max(self.M_LIST),
                    oversampled=oversampled,
                    u_lin=self.u_lin(darcy),
                )
        return self._space[key]

    def multiscale(self, darcy, oversampled, m):
        key = (darcy, oversampled, m)
        if key not in self._ms:
            space = self.space(darcy, oversampled)
            if m != space.m:
                space = gmsfem.resize_space(space, self.mesh, self.coarse, m)
            traj, fine_state = gmsfem.run_multiscale(
                self.mesh,
                self.coarse,
                self.params(darcy),
                self.bc,
                space=space,
                ops=self.ops(darcy),
            )
            ref = self.fine(darcy).final
            e_u = analysis.error_velocity(ref.velocity, fine_state.velocity, self.mesh)
            self._ms[key] = {
                "e_u": e_u,
                "div_residual": float(traj.div_residuals.max()),
            }
        return self._ms[key]



@pytest.fixture(scope="session")
def rig():
    return DeskRig()


# ---------------------------------------------------------------- criteria


def test_criterion_1_dof_accounting():
    fine_ok = analysis.dof_fine(12504) == 87528
    table = {m: analysis.dof_multiscale(100, m) for m in (5, 10, 15, 20, 25)}
    table_ok = list(table.values()) == [600, 1100, 1600, 2100, 2600]
    _report(
        1,
        fine_ok and table_ok,
        f"dof_fine(12504)={analysis.dof_fine(12504)}, coarse column={list(table.values())}",
    )


# Criterion 2's exact field, shared with the porous-step MMS below: a
# divergence-free velocity and a pressure on the unit square.


def mms_velocity(x):
    x = np.atleast_2d(x)
    return np.stack(
        [
            np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]),
            np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1]),
        ],
        axis=-1,
    )


def mms_grad(x):
    """The velocity gradient, g[:, d, m] = d u_d / d x_m."""
    x = np.atleast_2d(x)
    sx, cx = np.sin(np.pi * x[:, 0]), np.cos(np.pi * x[:, 0])
    sy, cy = np.sin(np.pi * x[:, 1]), np.cos(np.pi * x[:, 1])
    g = np.empty(x.shape[:1] + (2, 2))
    g[:, 0, 0] = np.pi * cx * sy
    g[:, 0, 1] = np.pi * sx * cy
    g[:, 1, 0] = -np.pi * sx * cy
    g[:, 1, 1] = -np.pi * cx * sy
    return g


def mms_pressure(x):
    x = np.atleast_2d(x)
    return np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])


def mms_pressure_grad(x):
    x = np.atleast_2d(x)
    return np.stack(
        [
            np.pi * np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1]),
            -np.pi * np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]),
        ],
        axis=-1,
    )


def mms_fluid_forcing(reynolds, convection=False):
    """The forcing hook of the fluid terms -lap(u)/Re + grad(p), plus
    (u . grad) u with convection."""

    def forcing(x):
        x = np.atleast_2d(x)
        f = (2.0 * np.pi * np.pi / reynolds) * mms_velocity(x) + mms_pressure_grad(x)
        if convection:
            f += np.einsum("ndm,nm->nd", mms_grad(x), mms_velocity(x))
        return f

    return forcing


def mms_boundary(reynolds):
    """Dirichlet data of the exact field, and its traction on the outflow
    side x = 1, n = (1, 0): the discrete natural flux is
    (1/Re) grad(u) n - p n, built from the analytic boundary gradient.

    The analytic gradient enters through the outflow traction; feeding it
    to the Dirichlet-side boundary-gradient flux term instead adds an O(1)
    consistency error and caps the observed L2 order near 1.5."""

    def traction(x):
        x = np.atleast_2d(x)
        n = np.array([1.0, 0.0])
        return (1.0 / reynolds) * np.einsum("ndm,m->nd", mms_grad(x), n) - mms_pressure(x)[:, None] * n

    return BoundaryData(velocity=mms_velocity, traction=traction)


def mms_errors(mesh, u, velocity=mms_velocity, grad=mms_grad):
    """The velocity error of u against an exact field (criterion 2's by
    default) in L2 and in the broken H1 seminorm, by the degree-4 rule."""
    verts = mesh.verts[mesh.cells]
    xq = np.einsum("qa,nad->nqd", TRI_D4_BARY, verts)
    uq = np.einsum("qa,nad->nqd", TRI_D4_BARY, u.reshape(-1, 3, 2))
    gap = uq - velocity(xq.reshape(-1, 2)).reshape(uq.shape)
    l2 = np.sqrt(np.einsum("n,q,nqd->", mesh.area, TRI_D4_W, gap**2))
    gh = np.einsum("nad,nam->ndm", u.reshape(-1, 3, 2), mesh.grad)
    ggap = gh[:, None, :, :] - grad(xq.reshape(-1, 2)).reshape(xq.shape[0], xq.shape[1], 2, 2)
    h1 = np.sqrt(np.einsum("n,q,nqdm->", mesh.area, TRI_D4_W, ggap**2))
    return l2, h1


def test_criterion_2_manufactured_convergence():
    reynolds = 1.0
    bc = mms_boundary(reynolds)
    params = make_params(reynolds=reynolds, porosity=1.0, forchheimer=0.0)
    errs_l2, errs_h1 = [], []
    for n in (4, 8, 16, 32):
        dom = DomainSpec(bbox=(0, 0, 1, 1))
        mesh, _ = generate_structured_mesh(dom, n, (1, 1))
        patch = full_patch(mesh)
        matrix = oracles.saddle_matrix(forms.viscous_block(patch, params), forms.assemble_divergence(patch))
        f_u, f_p = forms.assemble_rhs(patch, params, bc, forcing=mms_fluid_forcing(reynolds))
        u, _ = SaddleSolver(SaddleSystem(matrix, f_u, f_p)).solve()
        l2, h1 = mms_errors(mesh, u)
        errs_l2.append(l2)
        errs_h1.append(h1)
    order_l2 = np.log2(errs_l2[-2] / errs_l2[-1])
    order_h1 = np.log2(errs_h1[-2] / errs_h1[-1])
    _report(
        2,
        order_l2 >= 1.8 and order_h1 >= 0.9,
        f"velocity L2 order {order_l2:.2f} (need >= 1.8), "
        f"broken-H1 order {order_h1:.2f} (need >= 0.9)",
    )


def porous_load(mesh, params, velocity=mms_velocity):
    """The momentum load of an exact field's (criterion 2's by default)
    Darcy and Forchheimer drag, u / (Re Da) + (C / sqrt(Da)) |u| u, on the
    porous cells only, by the degree-4 rule.  The forcing hook sees points,
    not cells, so it cannot carry this load."""
    porous = np.flatnonzero(mesh.region == POROUS)
    xq = np.einsum("qa,nad->nqd", TRI_D4_BARY, mesh.verts[mesh.cells[porous]])
    uq = velocity(xq.reshape(-1, 2)).reshape(xq.shape)
    speed = np.linalg.norm(uq, axis=2, keepdims=True)
    drag = 1.0 / (params.reynolds * params.darcy) + params.forchheimer / np.sqrt(params.darcy) * speed
    contrib = mesh.area[porous, None, None] * np.einsum("q,qa,nqd->nad", TRI_D4_W, TRI_D4_BARY, drag * uq)
    load = np.zeros(6 * mesh.n_cells)
    np.add.at(load, forms.cell_dofs(porous).ravel(), contrib.ravel())
    return load


@pytest.mark.parametrize("reynolds, forchheimer", [(1.0, 1.0), (10.0, 10.0)])
def test_fine_step_converges_to_a_manufactured_solution_with_porous_terms(reynolds, forchheimer):
    # One fine step with Darcy, Forchheimer and convection against criterion
    # 2's exact field, one inclusion tagged by cell centroid, porosity 1 (no
    # jump in the viscous flux).  tau = 1e12 leaves a mass term 1e-12 of the
    # rest, and ops.system(u_I) freezes convection and the drag at u_I, the
    # vertex interpolant of the exact field, an O(h^2) perturbation.
    params = make_params(reynolds=reynolds, darcy=1e-3, forchheimer=forchheimer, porosity=1.0, tau=1e12)
    bc = mms_boundary(reynolds)
    domain = DomainSpec(bbox=(0, 0, 1, 1), inclusions=[CircleInclusion(0.5, 0.5, 0.27)])
    errs_l2, errs_h1 = [], []
    for n in (8, 16, 32):
        mesh, _ = generate_structured_mesh(domain, n, (1, 1))
        ops = StepOperators(mesh, params, bc, forcing=mms_fluid_forcing(reynolds, convection=True))
        u_interp = mms_velocity(mesh.verts[mesh.cells].reshape(-1, 2)).ravel()
        solver = SaddleSolver(ops.system(u_interp))
        u, _ = solver.solve(ops.f_u + porous_load(mesh, params), ops.f_p)
        l2, h1 = mms_errors(mesh, u)
        errs_l2.append(l2)
        errs_h1.append(h1)
    # the porous load matters: without it the n=32 error is far larger
    bare_l2, _ = mms_errors(mesh, solver.solve(ops.f_u, ops.f_p)[0])
    orders_l2 = np.log2(np.divide(errs_l2[:-1], errs_l2[1:]))
    orders_h1 = np.log2(np.divide(errs_h1[:-1], errs_h1[1:]))
    detail = (
        f"Re={reynolds:g}, C={forchheimer:g}: L2 orders {np.round(orders_l2, 2)}, "
        f"broken-H1 orders {np.round(orders_h1, 2)}, n=32 L2 {errs_l2[-1]:.2e} "
        f"against {bare_l2:.2e} without the porous load"
    )
    print(f"[mms] {detail}", flush=True)
    assert orders_l2.min() >= 1.8 and orders_h1.min() >= 0.9, detail
    assert bare_l2 >= 100 * errs_l2[-1], detail


# A porosity-jump exact field on the unit square, porous (porosity JUMP_XI)
# for x > 1/2: the stream function psi = a(x) b(y), with
# a = 1 + JUMP_C xi(x) (x - 1/2)^2 and b = sin(pi y), gives the
# divergence-free u = (a b', -a' b).  At x = 1/2, a = 1 and a' = 0 on both
# sides, so u is continuous, and so is (1/(xi Re)) du/dx =
# (a' b', -a'' b) / (xi Re), since a' and a'' carry the factor xi.  The
# pressure is criterion 2's, smooth across the interface, and the
# convection is not zero.
JUMP_XI, JUMP_C = 0.3, 4.0


def jump_xi(x):
    return np.where(x[:, 0] > 0.5, JUMP_XI, 1.0)


def _jump_factors(x):
    """xi, (a, a', a'') and (b, b', b'', b''') at the points x."""
    x = np.atleast_2d(x)
    xi, s = jump_xi(x), x[:, 0] - 0.5
    a = (1.0 + JUMP_C * xi * s * s, 2.0 * JUMP_C * xi * s, 2.0 * JUMP_C * xi)
    sy, cy = np.sin(np.pi * x[:, 1]), np.cos(np.pi * x[:, 1])
    return xi, a, (sy, np.pi * cy, -np.pi**2 * sy, -np.pi**3 * cy)


def jump_velocity(x):
    _, (a, a1, _), (b, b1, _, _) = _jump_factors(x)
    return np.stack([a * b1, -a1 * b], axis=-1)


def jump_grad(x):
    """The velocity gradient, g[:, d, m] = d u_d / d x_m."""
    _, (a, a1, a2), (b, b1, b2, _) = _jump_factors(x)
    return np.stack([np.stack([a1 * b1, a * b2], -1), np.stack([-a2 * b, -a1 * b1], -1)], 1)


def jump_fluid_forcing(reynolds):
    """The forcing hook of the fluid terms of the porous step,
    -lap(u) / (xi Re) + (u . grad) u / xi^2 + grad(p), with the xi of each
    point's side: every quadrature point lies inside a cell."""

    def forcing(x):
        x = np.atleast_2d(x)
        xi, (a, a1, a2), (b, b1, b2, b3) = _jump_factors(x)
        laplacian = np.stack([a2 * b1 + a * b3, -a1 * b2], axis=-1)
        convection = np.einsum("ndm,nm->nd", jump_grad(x), jump_velocity(x)) / xi[:, None] ** 2
        return mms_pressure_grad(x) - laplacian / (xi * reynolds)[:, None] + convection

    return forcing


def jump_boundary(reynolds):
    """Dirichlet data of the jump field, and its traction
    (1/(xi Re)) grad(u) n - p n on the porous outflow side x = 1."""

    def traction(x):
        x = np.atleast_2d(x)
        flux = jump_grad(x)[:, :, 0] / (jump_xi(x) * reynolds)[:, None]
        return flux - mms_pressure(x)[:, None] * np.array([1.0, 0.0])

    return BoundaryData(velocity=jump_velocity, traction=traction)


@pytest.mark.parametrize("reynolds, forchheimer", [(1.0, 1.0), (10.0, 10.0)])
def test_fine_step_converges_across_a_porosity_jump(reynolds, forchheimer):
    # One fine step with Darcy, Forchheimer and convection against the jump
    # field, porous for x > 1/2: a grid line at every n, so the interface is
    # exact.  As in the test above, tau = 1e12 and ops.system(u_I) freezes
    # convection and the drag at the vertex interpolant.
    params = make_params(
        reynolds=reynolds, darcy=1e-3, forchheimer=forchheimer, porosity=JUMP_XI, tau=1e12
    )
    bc = jump_boundary(reynolds)
    errs_l2, errs_h1 = [], []
    for n in (8, 16, 32):
        mesh, _ = generate_structured_mesh(DomainSpec(bbox=(0, 0, 1, 1)), n, (1, 1))
        mesh.region = np.where(mesh.centroid[:, 0] > 0.5, POROUS, FLUID).astype(np.int8)
        ops = StepOperators(mesh, params, bc, forcing=jump_fluid_forcing(reynolds))
        u_interp = jump_velocity(mesh.verts[mesh.cells].reshape(-1, 2)).ravel()
        solver = SaddleSolver(ops.system(u_interp))
        u, _ = solver.solve(ops.f_u + porous_load(mesh, params, jump_velocity), ops.f_p)
        l2, h1 = mms_errors(mesh, u, jump_velocity, jump_grad)
        errs_l2.append(l2)
        errs_h1.append(h1)
    orders_l2 = np.log2(np.divide(errs_l2[:-1], errs_l2[1:]))
    orders_h1 = np.log2(np.divide(errs_h1[:-1], errs_h1[1:]))
    detail = (
        f"Re={reynolds:g}, C={forchheimer:g}, porosity {JUMP_XI:g} for x > 1/2: "
        f"L2 orders {np.round(orders_l2, 2)}, broken-H1 orders {np.round(orders_h1, 2)}, "
        f"n=32 L2 {errs_l2[-1]:.2e}"
    )
    print(f"[mms] {detail}", flush=True)
    assert orders_l2.min() >= 1.8 and orders_h1.min() >= 0.9, detail


def test_criterion_3_basis_refinement_trend(rig):
    darcy = 1e-3
    errors = [rig.multiscale(darcy, False, m)["e_u"] for m in rig.M_LIST]
    monotone = all(
        later <= 1.05 * earlier for earlier, later in zip(errors, errors[1:])
    )
    e_plain = rig.multiscale(darcy, False, 16)["e_u"]
    e_os = rig.multiscale(darcy, True, 16)["e_u"]
    oversampling_wins = e_os <= e_plain
    detail = (
        "e_u over M=(2,4,8,16): "
        + ", ".join(f"{100 * e:.2f}%" for e in errors)
        + f"; oversampled at M=16: {100 * e_os:.2f}% vs plain {100 * e_plain:.2f}%"
    )
    _report(3, monotone and oversampling_wins, detail)


def test_criterion_4_darcy_ordering(rig):
    e_high = rig.multiscale(1e-3, True, 16)["e_u"]
    e_low = rig.multiscale(1e-5, True, 16)["e_u"]
    _report(
        4,
        e_high <= e_low,
        f"oversampled M=16: e_u(Da=1e-3)={100 * e_high:.2f}% <= "
        f"e_u(Da=1e-5)={100 * e_low:.2f}%",
    )


def test_criterion_5_conservation(rig):
    worst_fine = max(rig.fine(da).div_residuals.max() for da in (1e-3, 1e-5))
    keys = [(1e-3, False, m) for m in rig.M_LIST] + [(1e-3, True, 16), (1e-5, True, 16)]
    worst_coarse = max(rig.multiscale(*k)["div_residual"] for k in keys)
    _report(
        5,
        worst_fine <= 1e-9 and worst_coarse <= 1e-9,
        f"max continuity residual: fine {worst_fine:.2e}, coarse {worst_coarse:.2e}",
    )


def test_committed_sweep_numbers(rig):
    """The e_u cells of results/desk_test1 agree with the desk runs that
    criteria 3 and 4 already make, to the printed digits; no extra solve."""
    results = Path(__file__).resolve().parent.parent / "results" / "desk_test1"
    keys = [(1e-3, False, m) for m in rig.M_LIST] + [(1e-3, True, 16), (1e-5, True, 16)]
    mismatches = []
    for darcy, oversampled, m in keys:
        with open(results / f"errors_da_{darcy:g}.csv") as fh:
            rows = list(csv.DictReader(fh))
        row = next(r for r in rows if int(r["M"]) == m)
        stored = row["e_u_os" if oversampled else "e_u_plain"]
        computed = f"{100 * rig.multiscale(darcy, oversampled, m)['e_u']:.6f}"
        if computed != stored:
            mismatches.append(f"Da={darcy:g} M={m} os={oversampled}: {computed} != {stored}")
    assert not mismatches, "; ".join(mismatches)


def test_online_steps_refine_from_the_static_factor(rig, monkeypatch):
    """Desk test1 at M=16 (272 coarse unknowns, from saddle.KEPT_MIN on, up
    to saddle.DENSE_MAX): every online step is refined from one dense
    float64 factor of the static matrix with at most REFRESH_AFTER
    corrections, and the run ends within 1e-12 of one that factors every
    step."""
    darcy = 1e-3
    args = (rig.mesh, rig.coarse, rig.params(darcy), rig.bc)
    steps = []
    observe = lambda step, state, solver: steps.append((solver.kept, solver.corrections, solver.lu))
    _, refined = gmsfem.run_multiscale(*args, space=rig.space(darcy, False), ops=rig.ops(darcy), observe=observe)
    static = steps[0][2]
    n = static.lu.shape[0]
    assert isinstance(static, saddle.DenseLU) and static.lu.dtype == np.float64
    assert saddle.KEPT_MIN <= n <= saddle.DENSE_MAX
    assert len(steps) == 50
    assert all(kept and corrections <= REFRESH_AFTER and lu is static for kept, corrections, lu in steps)
    monkeypatch.setattr(saddle, "KEPT_MIN", n + 1)
    steps.clear()
    _, factored = gmsfem.run_multiscale(*args, space=rig.space(darcy, False), ops=rig.ops(darcy), observe=observe)
    assert len(steps) == 50 and not any(kept or corrections for kept, corrections, _ in steps)
    for got, want in ((refined.velocity, factored.velocity), (refined.pressure, factored.pressure)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("m", [2, 16])
def test_dense_coarse_factors_end_where_superlu_ends(rig, m, monkeypatch):
    """Desk test1 online runs at M=2 (48 coarse unknowns, below KEPT_MIN:
    factored every step, its path own with no kept-factor solve) and M=16
    (272, refined from the static factor, its path kept) end within 1e-12
    of the same runs with every coarse factor SuperLU's (DENSE_MAX 0)."""
    darcy = 1e-3
    space = rig.space(darcy, False)
    space = space if m == space.m else gmsfem.resize_space(space, rig.mesh, rig.coarse, m)
    args = (rig.mesh, rig.coarse, rig.params(darcy), rig.bc)
    path = "own" if rig.coarse.n_cells * (m + 1) < saddle.KEPT_MIN else "kept"
    ends = []
    for dense_max, kind in ((saddle.DENSE_MAX, saddle.DenseLU), (0, spla.SuperLU)):
        monkeypatch.setattr(saddle, "DENSE_MAX", dense_max)
        kinds = set()
        observe = lambda step, state, solver: kinds.add(
            (type(solver.lu), solver.path, solver.kept_solves > 0)
        )
        coarse, fine = gmsfem.run_multiscale(*args, space=space, ops=rig.ops(darcy), observe=observe)
        assert kinds == {(kind, path, path == "kept")}
        ends.append((coarse.final.velocity, coarse.final.pressure, fine.velocity, fine.pressure))
    for got, want in zip(*ends):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_every_desk_saddle_stores_its_step_entries(rig):
    """A CellOrderedSaddle locates its step entries in its static matrix and
    raises for one that is not stored, so the program's saddles must store
    them all: the step saddles of the desk fine record and of the coarse
    records of the plain M=16 space and its M=8 slice."""
    darcy = 1e-3
    ops, space = rig.ops(darcy), rig.space(darcy, False)
    built = [ops.step_saddle()]
    for m in (16, 8):
        sized = space if m == space.m else gmsfem.resize_space(space, rig.mesh, rig.coarse, m)
        online = gmsfem._online_operators(sized, rig.mesh, rig.coarse, rig.params(darcy), ops)
        built.append(online.step_saddle())
    n = rig.coarse.n_cells
    assert [len(s.perm) for s in built] == [7 * rig.mesh.n_cells, 17 * n, 9 * n]


def test_criterion_6_spectral_suite(rig):
    darcy = 1e-3
    space = rig.space(darcy, False)
    params, u_lin = rig.params(darcy), rig.u_lin(darcy)
    m = space.m
    worst_order = 0.0
    worst_orth = 0.0
    worst_resid = 0.0
    assert len(space.cell_bases) == rig.coarse.n_cells
    for basis in space.cell_bases:
        # the cell's pencil, recomputed from a fresh snapshot family
        snap = gmsfem.build_snapshots(
            rig.mesh, rig.coarse, params, basis.cell_index, False, u_lin
        )
        w, _, (a, s, z) = gmsfem.generalized_eigh(
            *gmsfem.snapshot_pencil(snap, rig.mesh, rig.coarse, params)
        )
        assert np.array_equal(w, basis.eigenvalues)
        diffs = np.diff(w)
        worst_order = max(worst_order, float(-(diffs.min() if len(diffs) else 0.0)))
        gram = z[:, :m].T @ s @ z[:, :m]
        worst_orth = max(worst_orth, float(np.abs(gram - np.eye(m)).max()))
        scale = la.norm(a)
        for k in range(m):
            resid = la.norm(a @ z[:, k] - w[k] * (s @ z[:, k]))
            worst_resid = max(worst_resid, float(resid / scale))
    passed = worst_order <= 1e-12 and worst_orth <= 1e-10 and worst_resid <= 1e-8
    _report(
        6,
        passed,
        f"eigenvalue order violation {worst_order:.1e}, orthogonality defect "
        f"{worst_orth:.1e} (<= 1e-10), pencil residual {worst_resid:.1e} (<= 1e-8)",
    )


def test_criterion_7_oracle_equivalence():
    worst_form = 0.0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        mesh, _ = random_rect_two_cells(rng)
        params = make_params(
            reynolds=float(rng.uniform(0.5, 10.0)),
            darcy=float(10.0 ** rng.uniform(-5, -2)),
            forchheimer=float(rng.uniform(0.0, 4.0)),
            porosity=float(rng.uniform(0.2, 1.0)),
        )
        patch = full_patch(mesh)
        u = rng.standard_normal(12)
        v = rng.standard_normal(12)
        q = rng.standard_normal(2)
        ulin = rng.standard_normal(12)
        ulin_const = np.repeat(rng.standard_normal((2, 2)), 3, axis=0).ravel()

        def rel(a, b):
            return abs(a - b) / max(abs(a), abs(b), 1e-14)

        m = forms.assemble_mass(patch, params)
        worst_form = max(
            worst_form, rel(v @ (m @ u), oracles.mass_energy(mesh, params, u, v))
        )
        a_zero = forms.viscous_block(patch, params)
        worst_form = max(
            worst_form,
            rel(
                v @ (a_zero @ u),
                oracles.convdiff_energy(mesh, params, patch, u, v, None),
            ),
        )
        a_lin = forms.viscous_block(patch, params) + linearized_matrices(patch, params, ulin)[0]
        worst_form = max(
            worst_form,
            rel(
                v @ (a_lin @ u),
                oracles.convdiff_energy(mesh, params, patch, u, v, ulin),
            ),
        )
        mesh.region[:] = 1
        d = forms.darcy_block(patch, params) + linearized_matrices(patch, params, ulin_const)[1]
        worst_form = max(
            worst_form,
            rel(v @ (d @ u), oracles.drag_energy(mesh, params, u, v, ulin_const)),
        )
        mesh.region[:] = 0
        b = forms.assemble_divergence(patch)
        worst_form = max(
            worst_form,
            rel(q @ (b @ u), oracles.divergence_action(mesh, patch, q, u)),
        )
        bc = BoundaryData(sides={"left": (1.0, 0.5), "top": (-0.3, 0.2), "bottom": (0.1, 0.4)})
        f_u, f_p = forms.assemble_rhs(patch, params, bc)

        def g_func(p, bbox=mesh.bbox):
            out = np.zeros((len(p), 2))
            out[np.abs(p[:, 0] - bbox[0]) < 1e-12] = (1.0, 0.5)
            out[np.abs(p[:, 1] - bbox[3]) < 1e-12] = (-0.3, 0.2)
            out[np.abs(p[:, 1] - bbox[1]) < 1e-12] = (0.1, 0.4)
            return out

        f_exp, l_exp = oracles.rhs_functionals(mesh, params, patch, g_func, v, q)
        worst_form = max(worst_form, rel(v @ f_u, f_exp), rel(q @ f_p, l_exp))

    # local snapshot solves against a dense bordered solve
    dom = DomainSpec(bbox=(0, 0, 1, 1), inclusions=[CircleInclusion(0.5, 0.5, 0.3)])
    mesh, coarse = generate_structured_mesh(dom, 2, (2, 2))
    params = make_params()
    ulin = np.zeros(6 * mesh.n_cells)
    worst_snap = 0.0
    for i in range(coarse.n_cells):
        snap = gmsfem.build_snapshots(mesh, coarse, params, i, False, ulin)
        patch = coarse_cell_patch(mesh, coarse, i)
        conv, drag = linearized_matrices(patch, params, ulin)
        a = forms.viscous_block(patch, params) + conv
        d = forms.darcy_block(patch, params) + drag
        b = forms.assemble_divergence(patch)
        loads = gmsfem._delta_rhs_batch(patch, params)
        nu, npr = patch.n_vdof, patch.n_pdof
        dense = np.zeros((nu + npr, nu + npr))
        dense[:nu, :nu] = (a + d).toarray()
        dense[:nu, nu:] = b.T.toarray()
        pinned = b.toarray()
        pinned[0, :] = 0.0
        dense[nu:, :nu] = pinned
        dense[nu, nu] = 1.0
        for col in range(loads.shape[1]):
            rhs = loads[:, col].copy()
            rhs[nu] = 0.0
            x = np.linalg.solve(dense, rhs)
            gap = np.abs(snap.rows[col] - x[:nu]).max()
            worst_snap = max(worst_snap, gap / max(np.abs(x[:nu]).max(), 1e-14))
    passed = worst_form <= 1e-12 and worst_snap <= 1e-10
    _report(
        7,
        passed,
        f"form-vs-oracle max relative gap {worst_form:.1e} (<= 1e-12), "
        f"snapshot-vs-dense max gap {worst_snap:.1e} (<= 1e-10)",
    )


def test_criterion_8_porous_speed_contrast(rig):
    state = rig.fine(1e-5).final
    stats = analysis.field_statistics(state, rig.mesh)
    ratio = stats.fluid.mean_speed / max(stats.porous.mean_speed, 1e-300)
    _report(
        8,
        ratio >= 5.0,
        f"mean speed fluid {stats.fluid.mean_speed:.4f} vs porous "
        f"{stats.porous.mean_speed:.5f} (ratio {ratio:.1f}, need >= 5)",
    )
