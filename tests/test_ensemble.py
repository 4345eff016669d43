"""Tests for the four-spin thermal-ensemble deviation matrix.

Golden references: the active block of the initial deviation matrix and its
image under the complementary CN pulse, both known to four decimals for the
worked superposition; the background diagonal must stay put.  Golden
tolerances are absolute (the blocks are dimensionless with entries of order
0.1 to 0.3, quoted to 4 decimals).
"""

import numpy as np
import pytest

from spinpulse import (
    BACKGROUND_DIAGONAL,
    ConfigurationError,
    DeviationDensityMatrix,
    QuantumState,
    cn_pulse,
    deviation_metric,
    evolve_deviation,
    evolve_pulse,
    init_deviation,
)
from spinpulse.ensemble import to_interaction_picture as density_to_interaction_picture

from conftest import GATE_INITIAL, warnings_are_errors

#: active block of the initial deviation matrix (4-decimal table)
R_BEFORE = np.array(
    [
        [0.3000, 0.2449, 0.3162, 0.2236],
        [0.2449, 0.2000, 0.2582, 0.1826],
        [0.3162, 0.2582, 0.3333, 0.2357],
        [0.2236, 0.1826, 0.2357, 0.1666],
    ]
)

#: active block after the complementary CN gate (4-decimal table)
R_AFTER = np.array(
    [
        [0.2000, 0.2449, 0.2582j, 0.1826j],
        [0.2449, 0.3000, 0.3162j, 0.2236j],
        [-0.2582j, -0.3162j, 0.3333, 0.2357],
        [-0.1826j, -0.2236j, 0.2357, 0.1666],
    ]
)


@pytest.fixture
def ensemble_pulse(ensemble_system):
    return cn_pulse(
        ensemble_system, control=2, target=3, variant="complementary", rabi=[0.1] * 4
    )


class TestInitDeviation:
    def test_active_block_matches_table(self):
        # 1e-4 absolute: the 4-decimal table truncates (1/6 -> 0.1666)
        rho = init_deviation(GATE_INITIAL)
        np.testing.assert_allclose(rho.active_block, R_BEFORE, atol=1e-4)

    def test_pure_basis_state(self):
        rho = init_deviation([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(rho.active_block, np.diag([1.0, 0, 0, 0]), atol=0)

    def test_background_values_and_trace(self):
        rho = init_deviation(GATE_INITIAL)
        np.testing.assert_allclose(rho.background_diagonal, BACKGROUND_DIAGONAL, atol=0)
        assert float(np.sum(BACKGROUND_DIAGONAL)) == pytest.approx(-1.0)
        assert rho.trace == pytest.approx(0.0, abs=1e-12)

    def test_hermitian(self, rng):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        rho = init_deviation(amps)
        np.testing.assert_allclose(rho.entries, rho.entries.conj().T, atol=1e-15)

    def test_unnormalized_rejected(self):
        with pytest.raises(ConfigurationError, match="normalized"):
            init_deviation([1.0, 1.0, 0.0, 0.0])

    @pytest.mark.parametrize("amplitudes", [[1.0, 0.0], [[1.0, 0.0, 0.0, 0.0]]])
    def test_wrong_shape_rejected(self, amplitudes):
        with pytest.raises(ConfigurationError, match="^active amplitudes must be a length-4"):
            init_deviation(amplitudes)


class TestEvolveDeviation:
    def test_active_block_matches_post_gate_table(self, ensemble_system, ensemble_pulse):
        rho = init_deviation(GATE_INITIAL)
        evolved = evolve_deviation(rho, ensemble_system, ensemble_pulse)
        evolved = density_to_interaction_picture(
            evolved, ensemble_system, ensemble_pulse.duration
        )
        assert np.max(np.abs(evolved.active_block - R_AFTER)) < 0.005

    def test_background_diagonal_unchanged(self, ensemble_system, ensemble_pulse):
        rho = init_deviation(GATE_INITIAL)
        evolved = evolve_deviation(rho, ensemble_system, ensemble_pulse)
        assert np.max(np.abs(evolved.background_diagonal - BACKGROUND_DIAGONAL)) < 0.005

    def test_zero_drive_preserves_magnitudes(self, ensemble_system):
        from spinpulse import PulseSpec

        rho = init_deviation(GATE_INITIAL)
        pulse = PulseSpec(carrier=430.0, phase=0.0, rabi=[0.0] * 4, duration=3.7)
        evolved = evolve_deviation(rho, ensemble_system, pulse)
        np.testing.assert_allclose(
            np.abs(evolved.entries), np.abs(rho.entries), atol=1e-12
        )
        np.testing.assert_allclose(
            np.diag(evolved.entries), np.diag(rho.entries), atol=1e-12
        )

    def test_hermiticity_and_trace_preserved(self, ensemble_system, ensemble_pulse):
        rho = init_deviation(GATE_INITIAL)
        evolved = evolve_deviation(rho, ensemble_system, ensemble_pulse)
        np.testing.assert_allclose(
            evolved.entries, evolved.entries.conj().T, atol=1e-12
        )
        assert evolved.trace == pytest.approx(rho.trace, abs=1e-12)

    def test_spectrum_preserved(self, ensemble_system, ensemble_pulse, rng):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        rho = init_deviation(amps)
        evolved = evolve_deviation(rho, ensemble_system, ensemble_pulse)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(evolved.entries),
            np.linalg.eigvalsh(rho.entries),
            atol=1e-12,
        )

    def test_active_purity_preserved(self, ensemble_system, ensemble_pulse):
        rho = init_deviation(GATE_INITIAL)
        evolved = evolve_deviation(rho, ensemble_system, ensemble_pulse)
        purity_before = float(np.real(np.trace(rho.active_block @ rho.active_block)))
        purity_after = float(
            np.real(np.trace(evolved.active_block @ evolved.active_block))
        )
        assert purity_after == pytest.approx(purity_before, rel=0.01)

    def test_agrees_with_pure_state_route(self, ensemble_system, ensemble_pulse):
        # embed the active amplitudes in the full register, evolve as a pure
        # state, and compare outer product against the evolved active block
        rho = init_deviation(GATE_INITIAL)
        evolved = evolve_deviation(rho, ensemble_system, ensemble_pulse)
        full = np.zeros(16, dtype=complex)
        full[:4] = GATE_INITIAL
        final = evolve_pulse(QuantumState(full), ensemble_system, ensemble_pulse)
        outer = np.outer(final.amplitudes[:4], final.amplitudes[:4].conj())
        assert np.max(np.abs(evolved.active_block - outer)) < 0.01

    @pytest.mark.parametrize("scale", [1e-300, 1e8, 1e10, 1e300])
    def test_results_scale_with_the_deviation(self, ensemble_system, ensemble_pulse, scale):
        # the dynamics are linear; a Hermiticity re-check of the results with
        # an absolute tolerance refused 1e8 rho ("not Hermitian (7.451e-09)")
        rho = init_deviation([0.6, 0.8, 0, 0])
        scaled = DeviationDensityMatrix(scale * rho.entries)
        for f in (
            lambda r: evolve_deviation(r, ensemble_system, ensemble_pulse, t_start=3.0),
            lambda r: density_to_interaction_picture(r, ensemble_system, 3.0),
        ):
            expected = scale * f(rho).entries
            error = np.abs(f(scaled).entries - expected).max()
            assert error <= 1e-12 * np.abs(expected).max()

    def test_wrong_system_size_rejected(self, gate_system, ensemble_pulse):
        with pytest.raises(ConfigurationError, match="4-spin"):
            evolve_deviation(init_deviation(GATE_INITIAL), gate_system, ensemble_pulse)


class TestDeviationMetric:
    def test_identical_blocks(self):
        assert deviation_metric(R_AFTER, R_AFTER) == 0.0

    def test_pre_vs_post_gate_is_large(self):
        assert deviation_metric(R_BEFORE, R_AFTER) > 0.5

    def test_global_phase_registers(self):
        rotated = R_AFTER * np.exp(1j * 0.3)
        assert deviation_metric(rotated, R_AFTER) > 0.1

    def test_floor_guards_small_references(self):
        a = np.array([[1e-6]])
        b = np.array([[0.0]])
        assert deviation_metric(a, b) == pytest.approx(1e-3, rel=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            deviation_metric(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("a, b", [(1.0, 2.0), ([1.0, 2.0], [2.0, 1.0])])
    def test_blocks_that_are_not_matrices_named(self, a, b):
        # numpy's AxisError reached the caller
        shape = np.shape(a)
        with pytest.raises(ValueError) as refused:
            deviation_metric(a, b)
        assert type(refused.value) is ValueError
        assert str(refused.value) == f"blocks must be matrices or stacks of them, got shape {shape}"

    def test_stack_gives_one_metric_per_block(self):
        a = np.stack([R_BEFORE, R_AFTER, R_AFTER * np.exp(1j * 0.3)])
        b = np.stack([R_AFTER] * 3)
        metrics = deviation_metric(a.reshape(3, 1, 4, 4), b.reshape(3, 1, 4, 4))
        assert metrics.shape == (3, 1)
        assert metrics[:, 0].tolist() == [deviation_metric(x, R_AFTER) for x in a]


    def test_stack_keeps_a_non_finite_block(self):
        # the sweep reports each block's metric itself, so a stack neither
        # raises nor warns on one that overflows
        a = np.stack([np.full((2, 2), 1e308), np.eye(2)])
        b = np.stack([np.full((2, 2), -1e308), np.eye(2)])
        with warnings_are_errors("raise"):
            metrics = deviation_metric(a, b)
        assert metrics.tolist() == [np.inf, 0.0]


class TestDeviationMatrixType:
    def test_non_hermitian_rejected(self):
        bad = np.zeros((16, 16), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ConfigurationError, match="Hermitian"):
            DeviationDensityMatrix(bad)

    def test_nan_entry_rejected(self):
        bad = np.zeros((16, 16), dtype=complex)
        bad[3, 3] = np.nan
        with pytest.raises(ConfigurationError, match=r"not Hermitian \(nan\)"):
            DeviationDensityMatrix(bad)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ConfigurationError, match="16x16"):
            DeviationDensityMatrix(np.zeros((4, 4)))
