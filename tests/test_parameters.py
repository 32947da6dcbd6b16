import numpy as np
import pytest

from msflow.parameters import BoundaryData, DGState, ModelParameters, preset_parameters

from conftest import WiderParameters


class TestModelParameters:
    def test_t_max_defaults_to_product(self):
        p = ModelParameters(1.0, 1e-3, 1.0, 0.3, tau=0.01, n_steps=50)
        assert p.t_max == pytest.approx(0.5)

    def test_t_max_mismatch_rejected(self):
        with pytest.raises(ValueError, match="t_max"):
            ModelParameters(1.0, 1e-3, 1.0, 0.3, tau=0.01, n_steps=50, t_max=0.4)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("reynolds", 0.0),
            ("darcy", -1.0),
            ("forchheimer", -0.1),
            ("porosity", 1.5),
            ("porosity", 0.0),
            ("tau", 0.0),
            ("n_steps", 0),
            ("penalty", -4.0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        kwargs = dict(
            reynolds=1.0, darcy=1e-3, forchheimer=1.0, porosity=0.3,
            tau=0.01, n_steps=5,
        )
        kwargs[field] = value
        with pytest.raises(ValueError):
            ModelParameters(**kwargs)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("reynolds", np.nan),
            ("darcy", np.nan),
            ("forchheimer", np.inf),
            ("porosity", np.nan),
            ("tau", np.inf),
            ("penalty", np.nan),
            ("t_max", np.nan),
        ],
    )
    def test_non_finite_values_rejected(self, field, value):
        kwargs = dict(
            reynolds=1.0, darcy=1e-3, forchheimer=1.0, porosity=0.3,
            tau=0.01, n_steps=5,
        )
        kwargs[field] = value
        with pytest.raises(ValueError, match="finite"):
            ModelParameters(**kwargs)

    def test_with_darcy_keeps_everything_else(self):
        p = ModelParameters(2.0, 1e-3, 3.0, 0.4, tau=0.02, n_steps=10, penalty=6.0)
        q = p.with_darcy(1e-5)
        assert q.darcy == 1e-5
        assert (q.reynolds, q.forchheimer, q.porosity, q.tau, q.n_steps, q.penalty) == (
            2.0, 3.0, 0.4, 0.02, 10, 6.0,
        )

    def test_with_darcy_keeps_a_field_of_a_subclass(self):
        p = WiderParameters(2.0, 1e-3, 3.0, 0.4, tau=0.02, n_steps=10, extra=7.0)
        q = p.with_darcy(1e-5)
        assert type(q) is WiderParameters
        assert (q.darcy, q.extra, q.t_max) == (1e-5, 7.0, p.t_max)

    def test_presets(self):
        p1 = preset_parameters("test1", darcy=1e-4)
        assert (p1.reynolds, p1.forchheimer, p1.t_max) == (1.0, 1.0, 0.01)
        assert p1.n_steps == 50 and p1.porosity == 0.3
        p3 = preset_parameters("test3", darcy=1e-3)
        assert (p3.reynolds, p3.forchheimer, p3.t_max) == (100.0, 1.0, 1.0)
        with pytest.raises(KeyError):
            preset_parameters("test9", darcy=1e-3)


class TestDGState:
    def test_validate_shapes(self):
        state = DGState.zeros(3)
        state.validate(3)
        with pytest.raises(ValueError, match="velocity"):
            DGState(np.zeros(5), np.zeros(3)).validate(3)
        with pytest.raises(ValueError, match="pressure"):
            DGState(np.zeros(18), np.zeros(2)).validate(3)

    def test_validate_finiteness(self):
        state = DGState.zeros(2)
        state.velocity[3] = np.inf
        with pytest.raises(ValueError, match="finite"):
            state.validate(2)


class TestBoundaryData:
    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError, match="not a Dirichlet side"):
            BoundaryData(sides={"right": (1.0, 0.0)})

    def test_values_on_non_dirichlet_side_rejected(self):
        bc = BoundaryData.inflow()
        pts = np.zeros((1, 2, 2))
        with pytest.raises(ValueError, match="no Dirichlet data"):
            bc.values(np.array([1]), pts)  # side code 1 is the outflow

    def test_inflow_layout(self):
        bc = BoundaryData.inflow((2.0, 0.5))
        pts = np.zeros((2, 1, 2))
        vals = bc.values(np.array([0, 3]), pts)  # left and top
        assert np.allclose(vals[0, 0], (2.0, 0.5))
        assert np.allclose(vals[1, 0], (0.0, 0.0))

    def test_default_gradient_and_traction_are_zero(self):
        bc = BoundaryData.inflow()
        pts = np.zeros((2, 2, 2))
        assert np.all(bc.grad_values(pts) == 0.0)
        assert np.all(bc.traction_values(pts) == 0.0)
