import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msflow import analysis
from msflow.geometry import DomainSpec, generate_structured_mesh
from msflow.parameters import DGState

import oracles
from conftest import desk_domain, make_params, perturbed_grid_mesh


def small_mesh(n=2, coarse=(2, 2)):
    dom = DomainSpec(bbox=(0, 0, 1, 1))
    return generate_structured_mesh(dom, n, coarse)


class TestVelocityError:
    def test_identical_fields(self, rng):
        mesh, _ = small_mesh()
        u = rng.standard_normal(6 * mesh.n_cells)
        assert analysis.error_velocity(u, u, mesh) == 0.0

    def test_zero_approximation(self, rng):
        mesh, _ = small_mesh()
        u = rng.standard_normal(6 * mesh.n_cells)
        assert analysis.error_velocity(u, np.zeros_like(u), mesh) == pytest.approx(1.0)

    def test_zero_reference_rejected(self, rng):
        mesh, _ = small_mesh()
        with pytest.raises(ValueError, match="reference"):
            analysis.error_velocity(
                np.zeros(6 * mesh.n_cells), rng.standard_normal(6 * mesh.n_cells), mesh
            )

    def test_matches_quadrature_oracle(self, rng):
        mesh, _ = perturbed_grid_mesh(rng, n=2)
        u = rng.standard_normal(6 * mesh.n_cells)
        v = rng.standard_normal(6 * mesh.n_cells)
        uf = oracles.cell_fields(mesh, u)
        df = oracles.cell_fields(mesh, u - v)
        num = sum(
            oracles.tri_integrate(
                lambda p, c=c: np.einsum("nd,nd->n", df[c](p), df[c](p)),
                mesh.verts[mesh.cells[c]],
            )
            for c in range(mesh.n_cells)
        )
        den = sum(
            oracles.tri_integrate(
                lambda p, c=c: np.einsum("nd,nd->n", uf[c](p), uf[c](p)),
                mesh.verts[mesh.cells[c]],
            )
            for c in range(mesh.n_cells)
        )
        assert analysis.error_velocity(u, v, mesh) == pytest.approx(
            np.sqrt(num / den), rel=1e-12
        )


class TestStressError:
    def test_identical(self, rng):
        mesh, _ = small_mesh()
        u = rng.standard_normal(6 * mesh.n_cells)
        assert analysis.error_stress(u, u, mesh) == 0.0

    def test_pure_strain_against_zero(self):
        mesh, _ = small_mesh()
        coefs = np.zeros((mesh.n_cells, 3, 2))
        verts = mesh.verts[mesh.cells]
        coefs[:, :, 0] = verts[:, :, 0]
        coefs[:, :, 1] = -verts[:, :, 1]  # u = (x, -y), eps = diag(1, -1)
        u = coefs.ravel()
        assert analysis.error_stress(u, np.zeros_like(u), mesh) == pytest.approx(1.0)

    def test_rigid_rotation_flagged(self):
        mesh, _ = small_mesh()
        coefs = np.zeros((mesh.n_cells, 3, 2))
        verts = mesh.verts[mesh.cells]
        coefs[:, :, 0] = -verts[:, :, 1]
        coefs[:, :, 1] = verts[:, :, 0]  # u = (-y, x): zero strain
        with pytest.raises(ValueError, match="rigid"):
            analysis.error_stress(coefs.ravel(), coefs.ravel(), mesh)


class TestPressureError:
    def test_exact_average_is_zero_error(self, rng):
        mesh, coarse = small_mesh()
        p = rng.standard_normal(mesh.n_cells)
        pbar = analysis.coarse_average(p, mesh, coarse)
        assert analysis.error_pressure(p, pbar, mesh, coarse) == pytest.approx(0.0, abs=1e-14)

    def test_constant_against_zero(self):
        mesh, coarse = small_mesh()
        p = np.ones(mesh.n_cells)
        assert analysis.error_pressure(
            p, np.zeros(coarse.n_cells), mesh, coarse
        ) == pytest.approx(1.0)

    def test_average_matches_per_cell_oracle(self, rng):
        mesh, coarse = small_mesh(n=3, coarse=(2, 2))
        p = rng.standard_normal(mesh.n_cells)
        pbar = analysis.coarse_average(p, mesh, coarse)
        for i in range(coarse.n_cells):
            cells = coarse.cell_fine[i]
            expect = float(np.sum(mesh.area[cells] * p[cells]) / np.sum(mesh.area[cells]))
            assert pbar[i] == pytest.approx(expect, rel=1e-14)

    def test_averaging_is_projection(self, rng):
        mesh, coarse = small_mesh()
        coarse_vals = rng.standard_normal(coarse.n_cells)
        p = np.empty(mesh.n_cells)
        for i in range(coarse.n_cells):
            p[coarse.cell_fine[i]] = coarse_vals[i]
        assert np.allclose(analysis.coarse_average(p, mesh, coarse), coarse_vals)


class TestDofCounts:
    def test_paper_scale_fine(self):
        assert analysis.dof_fine(12504) == 87528

    def test_table_column(self):
        for m, expect in [(5, 600), (10, 1100), (15, 1600), (20, 2100), (25, 2600)]:
            assert analysis.dof_multiscale(100, m) == expect

    def test_two_cells(self):
        assert analysis.dof_fine(2) == 14

    def test_mesh_variant(self):
        mesh, coarse = small_mesh()
        assert analysis.dof_fine(mesh.n_cells) == 7 * mesh.n_cells
        assert analysis.dof_multiscale(coarse.n_cells, 3) == 4 * coarse.n_cells


class TestFieldStatistics:
    def test_constant_field(self):
        dom = desk_domain()
        mesh, _ = generate_structured_mesh(dom, 4, (2, 2))
        state = DGState(np.tile([3.0, 4.0], 3 * mesh.n_cells), np.full(mesh.n_cells, 2.0))
        stats = analysis.field_statistics(state, mesh)
        for region in (stats.fluid, stats.porous):
            assert region.mean_speed == pytest.approx(5.0, rel=1e-12)
            assert region.mean_pressure == pytest.approx(2.0, rel=1e-12)

    def test_region_indicator_field(self):
        dom = desk_domain()
        mesh, _ = generate_structured_mesh(dom, 4, (2, 2))
        vel = np.zeros((mesh.n_cells, 6))
        vel[mesh.region == 0] = np.tile([1.0, 0.0], 3)
        state = DGState(vel.ravel(), np.zeros(mesh.n_cells))
        stats = analysis.field_statistics(state, mesh)
        assert stats.fluid.mean_speed == pytest.approx(1.0, rel=1e-12)
        assert stats.porous.mean_speed == pytest.approx(0.0, abs=1e-14)

    def test_no_porous_region(self):
        mesh, _ = small_mesh()
        state = DGState.zeros(mesh.n_cells)
        stats = analysis.field_statistics(state, mesh)
        assert stats.porous is None
        assert stats.fluid.area == pytest.approx(1.0)

    def test_accumulation_oracle(self, rng):
        mesh, _ = perturbed_grid_mesh(rng, n=2)
        mesh.region[: mesh.n_cells // 2] = 1
        state = DGState(rng.standard_normal(6 * mesh.n_cells), rng.standard_normal(mesh.n_cells))
        stats = analysis.field_statistics(state, mesh)
        fields = oracles.cell_fields(mesh, state.velocity)
        for tag, region in ((0, stats.fluid), (1, stats.porous)):
            cells = np.nonzero(mesh.region == tag)[0]
            area = mesh.area[cells].sum()
            integral = sum(
                oracles.tri_integrate(
                    lambda p, c=c: np.linalg.norm(fields[c](p), axis=1),
                    mesh.verts[mesh.cells[c]],
                )
                for c in cells
            )
            # |u| of a P1 field is piecewise smooth; degree-4 rule is close
            assert region.mean_speed == pytest.approx(integral / area, rel=2e-2)


class TestErrorReport:
    def test_percent_view(self):
        report = analysis.ErrorReport(0.05, 0.1, 0.01, 700, 60, {})
        assert report.percent() == (5.0, 10.0, 1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            analysis.ErrorReport(float("nan"), 0.0, 0.0, 7, 6, {})

    def test_metadata_holds_every_parameter_field(self, rng):
        mesh, coarse = small_mesh()
        params = make_params(penalty=6.0, n_steps=3)
        ref = DGState(rng.standard_normal(6 * mesh.n_cells), rng.standard_normal(mesh.n_cells))
        report = analysis.make_report(
            ref, ref.velocity, np.zeros(coarse.n_cells), mesh, coarse, 3, True, params
        )
        meta = json.loads(json.dumps(report.metadata))
        assert meta == {**dataclasses.asdict(params), "m": 3, "oversampled": True}


@given(scale=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 100))
@settings(max_examples=20, deadline=None)
def test_velocity_error_scale_invariance(scale, seed):
    rng = np.random.default_rng(seed)
    mesh, _ = small_mesh()
    u = rng.standard_normal(6 * mesh.n_cells) + 0.1
    v = rng.standard_normal(6 * mesh.n_cells)
    base = analysis.error_velocity(u, v, mesh)
    scaled = analysis.error_velocity(scale * u, scale * v, mesh)
    assert scaled == pytest.approx(base, rel=1e-9)


@given(seed=st.integers(0, 100))
@settings(max_examples=20, deadline=None)
def test_velocity_error_triangle_bound(seed):
    rng = np.random.default_rng(seed)
    mesh, _ = small_mesh()
    u = rng.standard_normal(6 * mesh.n_cells) + 0.05
    v = rng.standard_normal(6 * mesh.n_cells)
    e = analysis.error_velocity(u, v, mesh)
    norm_u = np.sqrt(analysis._pair_l2(mesh, u, u))
    norm_v = np.sqrt(analysis._pair_l2(mesh, v, v))
    assert e <= 1.0 + norm_v / norm_u + 1e-12
