import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from msflow import forms
from msflow.config import parse_config
from msflow.geometry import (
    POROUS,
    DomainSpec,
    generate_structured_mesh,
)
from msflow.parameters import BoundaryData
from msflow.patches import EdgeSide, Patch, coarse_cell_patch, full_patch
from msflow.quadrature import EDGE_G2_S

from conftest import (
    desk_domain,
    linearized_matrices,
    make_params,
    perturbed_grid_mesh,
    random_rect_two_cells,
    tiny_heterogeneous,
    unit_square_mesh,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def desk():
    """Parameters, mesh and coarse grid of the desk config."""
    spec = parse_config(str(CONFIGS / "desk_test1.cfg"), mode="fine")
    mesh, coarse = generate_structured_mesh(spec.domain, spec.n_per_coarse, (spec.nx, spec.ny))
    return spec.params, mesh, coarse


def single_triangle_mesh(porous=False):
    """The unit square as two cells, optionally porous; cell 0 is the right
    triangle (0, 0), (1, 0), (1, 1) of area 1/2."""
    return unit_square_mesh(porous=porous)[0]


def volume_only_patch(mesh):
    """Cell 0 alone, with no edge terms (volume contributions only)."""
    return Patch(mesh, [0], [], [])


class TestMass:
    def test_constant_field_fluid(self):
        mesh = single_triangle_mesh()
        params = make_params(tau=0.01, porosity=0.3)
        patch = volume_only_patch(mesh)
        m = forms.assemble_mass(patch, params)
        u = np.tile([1.0, 0.0], 3)
        assert u @ (m @ u) == pytest.approx(0.5 / 0.01, rel=1e-14)

    def test_porous_scaling(self):
        params = make_params(tau=0.01, porosity=0.3)
        u = np.tile([1.0, 0.0], 3)
        fluid = single_triangle_mesh(porous=False)
        porous = single_triangle_mesh(porous=True)
        m_f = forms.assemble_mass(volume_only_patch(fluid), params)
        m_p = forms.assemble_mass(volume_only_patch(porous), params)
        assert u @ (m_p @ u) == pytest.approx((u @ (m_f @ u)) / 0.3, rel=1e-14)

    def test_random_field_against_oracle(self, rng):
        mesh, _ = random_rect_two_cells(rng)
        params = make_params()
        patch = full_patch(mesh)
        m = forms.assemble_mass(patch, params)
        u = rng.standard_normal(12)
        expected = oracles.mass_energy(mesh, params, u, u)
        assert u @ (m @ u) == pytest.approx(expected, rel=1e-12)

    def test_symmetry_and_positivity(self, rng):
        mesh, _ = perturbed_grid_mesh(rng)
        params = make_params()
        m = forms.assemble_mass(full_patch(mesh), params)
        assert abs(m - m.T).max() < 1e-12 * abs(m).max()
        u = rng.standard_normal(m.shape[0])
        assert u @ (m @ u) > 0
        assert np.linalg.eigvalsh(m.toarray()).min() > 0

    def test_drag_block_symmetric(self, rng):
        mesh, _ = perturbed_grid_mesh(rng)
        mesh.region[::2] = 1
        params = make_params(forchheimer=2.0)
        ulin = rng.standard_normal(6 * mesh.n_cells)
        patch = full_patch(mesh)
        d = forms.darcy_block(patch, params) + linearized_matrices(patch, params, ulin)[1]
        assert abs(d - d.T).max() < 1e-12 * abs(d).max()


class TestConvectionDiffusion:
    def test_symmetric_without_linearization(self, rng):
        mesh, _ = perturbed_grid_mesh(rng)
        params = make_params()
        a = forms.viscous_block(full_patch(mesh), params)
        assert abs(a - a.T).max() < 1e-10 * abs(a).max()

    def test_continuous_interior_hat_energy(self):
        # nodal hat at the single interior vertex: continuous, zero on the
        # boundary, so the energy is the viscous volume term alone
        dom = DomainSpec(bbox=(0, 0, 1, 1))
        mesh, _ = generate_structured_mesh(dom, 2, (1, 1))
        params = make_params(porosity=1.0, reynolds=2.0)
        patch = full_patch(mesh)
        center = np.nonzero(
            (np.abs(mesh.verts[:, 0] - 0.5) < 1e-12)
            & (np.abs(mesh.verts[:, 1] - 0.5) < 1e-12)
        )[0][0]
        u = np.zeros(patch.n_vdof)
        coefs = u.reshape(mesh.n_cells, 3, 2)
        for c in range(mesh.n_cells):
            for a_loc in range(3):
                if mesh.cells[c, a_loc] == center:
                    coefs[c, a_loc] = (1.0, 1.0)
        a = forms.viscous_block(patch, params)
        grad_energy = 0.0
        for c in range(mesh.n_cells):
            g = np.einsum("ad,am->dm", coefs[c], mesh.grad[c])
            grad_energy += mesh.area[c] * np.sum(g * g)
        assert u @ (a @ u) == pytest.approx(grad_energy / params.reynolds, rel=1e-12)

    def test_constant_field_penalty_only(self):
        dom = DomainSpec(bbox=(0, 0, 1, 1))
        mesh, _ = generate_structured_mesh(dom, 2, (1, 1))
        params = make_params(porosity=1.0)
        patch = full_patch(mesh)
        u = np.tile([2.0, -1.0], 3 * mesh.n_cells)
        a = forms.viscous_block(patch, params)
        # constant field: gradients and jumps vanish; only the Dirichlet-side
        # penalty 2*gamma/(h Re) |c|^2 per boundary edge survives
        expected = sum(
            2.0 * params.penalty / (params.reynolds * patch.dir_len[k]) * 5.0
            * patch.dir_len[k]
            for k in range(len(patch.dirichlet_edges))
        )
        assert u @ (a @ u) == pytest.approx(expected, rel=1e-12)

    def test_against_oracle_with_convection(self, rng):
        mesh, _ = random_rect_two_cells(rng)
        params = make_params(reynolds=3.0, porosity=0.4)
        patch = full_patch(mesh)
        u = rng.standard_normal(12)
        v = rng.standard_normal(12)
        ulin = rng.standard_normal(12)
        a = forms.viscous_block(patch, params) + linearized_matrices(patch, params, ulin)[0]
        expected = oracles.convdiff_energy(mesh, params, patch, u, v, ulin)
        assert v @ (a @ u) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self, rng):
        mesh, _ = random_rect_two_cells(rng)
        with pytest.raises(ValueError):
            forms.linearized_cell_blocks(full_patch(mesh), make_params(), np.ones(7))


class TestDarcyForchheimer:
    def test_fluid_only_zero(self, rng):
        dom = DomainSpec(bbox=(0, 0, 1, 1))
        mesh, _ = generate_structured_mesh(dom, 2, (1, 1))
        params = make_params()
        d = forms.darcy_block(full_patch(mesh), params)
        assert d.nnz == 0

    def test_constant_darcy_energy(self):
        mesh = single_triangle_mesh(porous=True)
        params = make_params(forchheimer=0.0, reynolds=1.0, darcy=1e-3)
        patch = volume_only_patch(mesh)
        d = forms.darcy_block(patch, params)
        u = np.tile([1.0, 0.0], 3)
        assert u @ (d @ u) == pytest.approx(0.5 * 1000.0, rel=1e-13)

    def test_forchheimer_constant_linearization(self):
        mesh = single_triangle_mesh(porous=True)
        params = make_params(forchheimer=1.0, reynolds=7.0, darcy=1e-4)
        patch = volume_only_patch(mesh)
        ulin = np.tile([3.0, 4.0], 6)  # |u_lin| = 5 everywhere
        d = forms.darcy_block(patch, params) + linearized_matrices(patch, params, ulin)[1]
        d0 = forms.darcy_block(patch, params)
        u = np.tile([1.0, 0.0], 3)
        forch = u @ (d @ u) - u @ (d0 @ u)
        assert forch == pytest.approx(1.0 / np.sqrt(1e-4) * 5.0 * 0.5, rel=1e-13)

    def test_against_oracle(self, rng):
        # cellwise-constant linearization keeps |u_lin| polynomial, so the
        # degree-4 rule is exact and the high-order oracle must agree tightly
        mesh, _ = random_rect_two_cells(rng)
        mesh.region[:] = 1
        params = make_params(forchheimer=2.0, darcy=3e-4)
        patch = full_patch(mesh)
        u = rng.standard_normal(12)
        v = rng.standard_normal(12)
        ulin = np.repeat(rng.standard_normal((2, 2)), 3, axis=0).ravel()
        d = forms.darcy_block(patch, params) + linearized_matrices(patch, params, ulin)[1]
        expected = oracles.drag_energy(mesh, params, u, v, ulin)
        assert v @ (d @ u) == pytest.approx(expected, rel=1e-12)

    def test_pointwise_speed_weight_quadrature(self, rng):
        # P1 linearization makes |u_lin| non-polynomial; the fixed degree-4
        # rule should track the high-order oracle to quadrature accuracy
        mesh, _ = perturbed_grid_mesh(rng)
        mesh.region[:] = 1
        params = make_params(forchheimer=2.0, darcy=3e-4)
        patch = full_patch(mesh)
        u = rng.standard_normal(patch.n_vdof)
        v = rng.standard_normal(patch.n_vdof)
        ulin = rng.standard_normal(patch.n_vdof)
        d = forms.darcy_block(patch, params) + linearized_matrices(patch, params, ulin)[1]
        expected = oracles.drag_energy(mesh, params, u, v, ulin)
        # |u_lin| has kinks where the field crosses zero, so the gap is a few
        # percent on wildly oscillating data; it vanishes on smooth fields
        assert v @ (d @ u) == pytest.approx(expected, rel=5e-2)


class TestLinearizedCellBlocks:
    @pytest.mark.parametrize("oversampled", [False, True])
    def test_patch_blocks_are_the_full_patch_blocks_of_its_cells(self, oversampled):
        mesh, coarse = tiny_heterogeneous()
        field = np.random.default_rng(2).standard_normal(6 * mesh.n_cells)
        for forchheimer in (1.0, 0.0):
            params = make_params(forchheimer=forchheimer)
            conv_all, porous_all, drag_all = forms.linearized_cell_blocks(
                full_patch(mesh), params, field
            )
            n_drag = 0
            for i in range(coarse.n_cells):
                patch = coarse_cell_patch(mesh, coarse, i, oversampled=oversampled)
                conv, porous, drag = forms.linearized_cell_blocks(patch, params, field)
                assert conv.tobytes() == conv_all[patch.cells].tobytes()
                in_patch = np.flatnonzero(mesh.region[patch.cells] == POROUS)
                assert np.array_equal(porous, in_patch if forchheimer else [])
                want = drag_all[np.searchsorted(porous_all, patch.cells[porous])]
                assert drag.shape == want.shape and drag.tobytes() == want.tobytes()
                n_drag += len(porous)
            assert (n_drag > 0) == (forchheimer != 0.0)


class TestDivergence:
    def test_unit_divergence_volume_term(self):
        mesh = single_triangle_mesh()
        patch = volume_only_patch(mesh)
        b = forms.assemble_divergence(patch)
        coefs = np.zeros((1, 3, 2))
        coefs[0, :, 0] = mesh.verts[mesh.cells[0], 0]  # u = (x, 0), div u = 1
        assert (b @ coefs.ravel())[0] == pytest.approx(-0.5, rel=1e-14)

    def test_divergence_free_no_dirichlet(self, rng):
        dom = DomainSpec(bbox=(0, 0, 1, 1))
        mesh, _ = generate_structured_mesh(dom, 2, (1, 1))
        interior = np.nonzero(mesh.edge_cells[:, 1] >= 0)[0]
        patch = Patch(mesh, np.arange(mesh.n_cells), [], interior)
        b = forms.assemble_divergence(patch)
        coefs = np.zeros((mesh.n_cells, 3, 2))
        verts = mesh.verts[mesh.cells]
        coefs[:, :, 0] = verts[:, :, 0]  # u = (x, -y): continuous, div-free
        coefs[:, :, 1] = -verts[:, :, 1]
        assert np.max(np.abs(b @ coefs.ravel())) < 1e-13

    def test_per_cell_divergence_theorem(self, rng):
        mesh, _ = perturbed_grid_mesh(rng)
        patch = full_patch(mesh)
        b = forms.assemble_divergence(patch)
        v = rng.standard_normal(patch.n_vdof)
        action = b @ v
        for c in range(mesh.n_cells):
            q = np.zeros(mesh.n_cells)
            q[c] = 1.0
            expected = oracles.divergence_action(mesh, patch, q, v)
            assert action[c] == pytest.approx(expected, rel=1e-12, abs=1e-13)

    def test_no_parameter_dependence(self, rng):
        mesh, _ = random_rect_two_cells(rng)
        patch = full_patch(mesh)
        assert (
            abs(forms.assemble_divergence(patch) - forms.assemble_divergence(patch)).max()
            == 0.0
        )


class TestRhs:
    def test_zero_data(self, rng):
        mesh, _ = random_rect_two_cells(rng)
        patch = full_patch(mesh)
        f_u, f_p = forms.assemble_rhs(patch, make_params(), BoundaryData())
        assert np.all(f_u == 0.0) and np.all(f_p == 0.0)

    def test_left_inflow_flux(self):
        dom = DomainSpec(bbox=(0, 0, 1, 1))
        mesh, _ = generate_structured_mesh(dom, 1, (1, 1))
        patch = full_patch(mesh)
        bc = BoundaryData.inflow((1.0, 0.0))
        _, f_p = forms.assemble_rhs(patch, make_params(), bc)
        assert f_p.sum() == pytest.approx(-1.0, rel=1e-14)

    def test_against_oracle_smooth_data(self, rng):
        mesh, _ = perturbed_grid_mesh(rng)
        params = make_params(reynolds=2.0, porosity=0.6)
        patch = full_patch(mesh)

        def g_func(p):
            return np.stack([np.sin(p[:, 0] + p[:, 1]), np.cos(p[:, 0])], axis=-1)

        def grad_func(p):
            out = np.empty((len(p), 2, 2))
            out[:, 0, 0] = np.cos(p[:, 0] + p[:, 1])
            out[:, 0, 1] = np.cos(p[:, 0] + p[:, 1])
            out[:, 1, 0] = -np.sin(p[:, 0])
            out[:, 1, 1] = 0.0
            return out

        bc = BoundaryData(velocity=g_func, grad=grad_func)
        f_u, f_p = forms.assemble_rhs(patch, params, bc)
        v = rng.standard_normal(patch.n_vdof)
        q = rng.standard_normal(patch.n_pdof)
        # the assembly edge rule is degree-3 exact; smooth data leaves a
        # small quadrature gap against the high-order oracle
        f_exp, l_exp = oracles.rhs_functionals(
            mesh, params, patch, g_func, v, q, grad_func
        )
        assert v @ f_u == pytest.approx(f_exp, rel=1e-3, abs=1e-4)
        assert q @ f_p == pytest.approx(l_exp, rel=1e-3, abs=1e-4)

    def test_against_oracle_constant_data(self, rng):
        mesh, _ = random_rect_two_cells(rng)
        params = make_params()
        patch = full_patch(mesh)
        bc = BoundaryData(sides={"left": (1.0, 0.5), "top": (0.2, 0.0)})
        f_u, f_p = forms.assemble_rhs(patch, params, bc)
        v = rng.standard_normal(patch.n_vdof)
        q = rng.standard_normal(patch.n_pdof)

        def g_func(p):
            out = np.zeros((len(p), 2))
            bbox = mesh.bbox
            left = np.abs(p[:, 0] - bbox[0]) < 1e-12
            top = np.abs(p[:, 1] - bbox[3]) < 1e-12
            out[left] = (1.0, 0.5)
            out[top] = (0.2, 0.0)
            return out

        f_exp, l_exp = oracles.rhs_functionals(mesh, params, patch, g_func, v, q)
        assert v @ f_u == pytest.approx(f_exp, rel=1e-12)
        assert q @ f_p == pytest.approx(l_exp, rel=1e-12)


class TestJumpCalculus:
    def test_continuous_field_has_no_jump_energy(self, rng):
        mesh, _ = perturbed_grid_mesh(rng)
        params = make_params(porosity=1.0)
        patch = full_patch(mesh)
        # continuous P1 field from random vertex values
        nodal = rng.standard_normal((mesh.n_verts, 2))
        coefs = nodal[mesh.cells]
        u = coefs.ravel()
        a_full = forms.viscous_block(patch, params)
        nobnd = Patch(mesh, np.arange(mesh.n_cells), [], patch.interior_edges)
        a_nobnd = forms.viscous_block(nobnd, params)
        # interior-edge terms of a continuous field reduce to the volume term
        grad_energy = 0.0
        for c in range(mesh.n_cells):
            g = np.einsum("ad,am->dm", coefs[c], mesh.grad[c])
            grad_energy += mesh.area[c] * np.sum(g * g) / params.reynolds
        assert u @ (a_nobnd @ u) == pytest.approx(grad_energy, rel=1e-11)
        # and the full form only adds boundary-edge contributions
        boundary_part = u @ (a_full @ u) - u @ (a_nobnd @ u)
        patch_b = Patch(mesh, np.arange(mesh.n_cells), patch.dirichlet_edges, [])
        a_bonly = forms.viscous_block(patch_b, params)
        assert boundary_part == pytest.approx(
            u @ (a_bonly @ u) - grad_energy, rel=1e-10
        )


class TestLocality:
    def test_patch_assembly_matches_global_submatrix(self):
        dom = DomainSpec(bbox=(0, 0, 1, 1))
        mesh, coarse = generate_structured_mesh(dom, 2, (2, 2))
        params = make_params(porosity=1.0)
        patch = coarse_cell_patch(mesh, coarse, 0)
        # global assembly restricted to patch volume + patch-interior edges
        interior_global = [
            e for e in patch.interior_edges
        ]
        sub = Patch(mesh, np.arange(mesh.n_cells), [], interior_global)
        a_globalized = forms.viscous_block(sub, params)
        pdofs = (6 * patch.cells[:, None] + np.arange(6)[None, :]).ravel()
        a_sub = a_globalized[np.ix_(pdofs, pdofs)]
        local = Patch(mesh, patch.cells, [], patch.interior_edges)
        a_local = forms.viscous_block(local, params)
        assert abs(a_local - a_sub).max() < 1e-14 * max(abs(a_sub).max(), 1.0)


class TestEdgeSide:
    @staticmethod
    def _patch(kind):
        mesh, coarse = generate_structured_mesh(desk_domain(), 8, (4, 4))
        if kind == "full":
            return full_patch(mesh)
        return coarse_cell_patch(mesh, coarse, 5, oversampled=True)

    @pytest.mark.parametrize("kind", ["full", "oversampled"])
    def test_traces_reproduce_the_edge_points(self, kind):
        patch = self._patch(kind)
        mesh = patch.mesh
        points = {}
        for name, edges in (
            ("plus", patch.interior_edges),
            ("minus", patch.interior_edges),
            ("dirichlet", patch.dirichlet_edges),
            ("natural", patch.natural_edges),
        ):
            side = getattr(patch, name)
            assert side.lam.shape == (len(edges), len(EDGE_G2_S), 3)
            assert np.abs(side.lam.sum(axis=2) - 1.0).max(initial=0.0) <= 1e-15
            corners = mesh.verts[mesh.cells[patch.cells[side.cell]]]
            points[name] = np.einsum("nqa,nad->nqd", side.lam, corners)
            assert np.allclose(points[name], forms.edge_points(mesh, edges), rtol=0, atol=1e-15)
        assert np.array_equal(points["plus"], points["minus"])
        assert (len(patch.natural_edges) > 0) == (kind == "full")

    def test_cell_without_the_edge_is_rejected(self):
        patch = self._patch("full")
        edges = patch.dirichlet_edges[:1]
        far = np.array([patch.cells[-1]])
        with pytest.raises(ValueError, match="not a vertex"):
            EdgeSide(patch, edges, far)


class TestAssemblyOrder:
    @staticmethod
    def _assembled(patch, params, field):
        stiffness, trace_mass = forms.assemble_spectral_pair(patch, params)
        convection, forchheimer = linearized_matrices(patch, params, field)
        return {
            "mass": forms.assemble_mass(patch, params),
            "viscous": forms.viscous_block(patch, params),
            "convection": convection,
            "darcy": forms.darcy_block(patch, params),
            "forchheimer": forchheimer,
            "divergence": forms.assemble_divergence(patch),
            "stiffness": stiffness,
            "trace_mass": trace_mass,
        }

    @pytest.mark.parametrize("kind", ["full", "oversampled"])
    def test_collect_equals_the_concatenated_csr(self, desk, kind, monkeypatch):
        # same triplet order, so coo -> csr sums the duplicates alike
        params, mesh, coarse = desk
        if kind == "full":
            patch = full_patch(mesh)
        else:
            patch = coarse_cell_patch(mesh, coarse, 5, oversampled=True)
        field = np.random.default_rng(0).standard_normal(6 * mesh.n_cells)
        got = self._assembled(patch, params, field)
        monkeypatch.setattr(forms, "_collect", oracles.concatenated_csr)
        want = self._assembled(patch, params, field)
        assert want["darcy"].nnz and want["forchheimer"].nnz
        for name, expected in want.items():
            for part in ("data", "indices", "indptr"):
                a, b = getattr(got[name], part), getattr(expected, part)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, part)

    def test_viscous_block_transient_memory_is_bounded(self, desk):
        # at most 5x the returned CSR's bytes: no raveled int64 index copies
        params, mesh, _ = desk
        patch = full_patch(mesh)
        forms.viscous_block(patch, params)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            block = forms.viscous_block(patch, params)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        held = block.data.nbytes + block.indices.nbytes + block.indptr.nbytes
        assert peak <= 5 * held

    @pytest.mark.parametrize("scale", [0.0, 1e-3, 1.0, 1e3])
    def test_convection_blocks_equal_the_einsum_form(self, desk, scale):
        params, mesh, _ = desk
        cells = np.arange(mesh.n_cells)
        coefs = scale * np.random.default_rng(1).standard_normal((mesh.n_cells, 3, 2))
        got = forms.convection_cell_blocks(mesh, params, cells, coefs)
        want = oracles.einsum_convection_blocks(mesh, params, cells, coefs)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_forms_match_oracles_on_random_rectangles(seed):
    rng = np.random.default_rng(seed)
    mesh, _ = random_rect_two_cells(rng)
    params = make_params(
        reynolds=float(rng.uniform(0.5, 20.0)),
        darcy=float(10.0 ** rng.uniform(-5, -2)),
        forchheimer=float(rng.uniform(0.0, 5.0)),
        porosity=float(rng.uniform(0.2, 1.0)),
    )
    patch = full_patch(mesh)
    u = rng.standard_normal(12)
    v = rng.standard_normal(12)
    ulin = rng.standard_normal(12)

    m = forms.assemble_mass(patch, params)
    assert v @ (m @ u) == pytest.approx(
        oracles.mass_energy(mesh, params, u, v), rel=1e-12, abs=1e-13
    )
    a = forms.viscous_block(patch, params) + linearized_matrices(patch, params, ulin)[0]
    assert v @ (a @ u) == pytest.approx(
        oracles.convdiff_energy(mesh, params, patch, u, v, ulin), rel=1e-12, abs=1e-12
    )
    ulin_const = np.repeat(rng.standard_normal((2, 2)), 3, axis=0).ravel()
    d = forms.darcy_block(patch, params) + linearized_matrices(patch, params, ulin_const)[1]
    assert v @ (d @ u) == pytest.approx(
        oracles.drag_energy(mesh, params, u, v, ulin_const), rel=1e-12, abs=1e-12
    )
    b = forms.assemble_divergence(patch)
    q = rng.standard_normal(patch.n_pdof)
    assert q @ (b @ u) == pytest.approx(
        oracles.divergence_action(mesh, patch, q, u), rel=1e-12, abs=1e-13
    )
