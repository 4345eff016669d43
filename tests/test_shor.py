"""Tests for the four-qubit period-finding pipeline.

Stage goldens are checked against hand-enumerable states; the delay modes
are checked against the closed-form two-path amplitudes and against a
brute-force matrix pipeline rebuilt here from first principles.
"""

import numpy as np
import pytest

from spinpulse import (
    ConfigurationError,
    EnergyTable,
    PathTerm,
    PeriodExtractionError,
    QuantumState,
    diagonal_energies,
    extract_period,
    register_index,
    register_values,
    run_shor,
    sample_x,
)

from spinpulse.shor import MODES, _PATHS, _STAGES

from conftest import dressed_run, dressed_stages, loop_trace, random_state, warnings_are_errors

index_of = register_index


def brute_force_pipeline(mode, tau1, tau2, energies):
    """Oracle: assemble the full 16x16 pipeline from explicit matrices."""
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    w = np.kron(np.kron(h, h), np.eye(4))
    o = np.zeros((16, 16))
    for x in range(4):
        fx = 3**x % 4
        for y in range(4):
            o[index_of(x, (y + fx) % 4), index_of(x, y)] = 1.0
    k = np.arange(4)
    f = 0.5 * np.exp(2j * np.pi * np.outer(k, k) / 4)
    fmat = np.kron(f, np.eye(4))
    d1 = np.diag(np.exp(-1j * energies * tau1))
    d2 = np.diag(np.exp(-1j * energies * tau2))
    psi = np.zeros(16, dtype=complex)
    psi[0] = 1.0
    if mode == "instantaneous":
        return fmat @ o @ w @ psi
    if mode == "bare-delay":
        return fmat @ d2 @ o @ d1 @ w @ psi
    dd1 = d1
    dd2 = np.diag(np.exp(-1j * energies * (tau1 + tau2)))
    o_dressed = dd1 @ o @ dd1.conj().T
    f_dressed = dd2 @ fmat @ dd2.conj().T
    return f_dressed @ d2 @ o_dressed @ d1 @ w @ psi


def staged(stage, amplitudes):
    return QuantumState(_STAGES[stage] @ np.asarray(amplitudes), check=False)


class TestStages:
    def test_superpose_ground_state(self):
        out = staged(0, QuantumState.basis(4, 0).amplitudes)
        expected = np.zeros(16)
        expected[[index_of(x, 0) for x in range(4)]] = 0.5
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_superpose_is_involution(self):
        state = QuantumState.basis(4, 0)
        twice = staged(0, staged(0, state.amplitudes).amplitudes)
        np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-15)

    def test_superpose_preserves_norm(self, rng):
        out = staged(0, random_state(rng, 16))
        assert abs(out.norm - 1.0) < 1e-12

    def test_oracle_function_values(self):
        # y(x) = 3^x mod 4 cycles 1, 3, 1, 3
        out = staged(1, _STAGES[0][:, 0])
        expected = np.zeros(16)
        for x, y in ((0, 1), (1, 3), (2, 1), (3, 3)):
            expected[index_of(x, y)] = 0.5
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_oracle_on_nonzero_y(self):
        # x = 1, y = 0 -> y = 3
        out = staged(1, QuantumState.basis(4, index_of(1, 0)).amplitudes)
        assert out.probabilities[index_of(1, 3)] == pytest.approx(1.0)

    def test_oracle_is_permutation(self):
        u = _STAGES[1]
        assert np.all(u.sum(axis=0) == 1.0)
        assert np.all(u.sum(axis=1) == 1.0)
        assert np.all((u == 0.0) | (u == 1.0))

    def test_dft_single_x_value(self):
        # |x=0> spreads evenly with unit phases
        out = staged(2, QuantumState.basis(4, index_of(0, 1)).amplitudes)
        expected = np.zeros(16, dtype=complex)
        for k in range(4):
            expected[index_of(k, 1)] = 0.5
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_dft_inverse_roundtrip(self, rng):
        state = random_state(rng, 16)
        back = _STAGES[2].conj().T @ staged(2, state).amplitudes
        np.testing.assert_allclose(back, state, atol=1e-12)


class TestRunShor:
    def test_instantaneous_final_state(self):
        run = run_shor("instantaneous")
        expected = np.zeros(16, dtype=complex)
        expected[index_of(0, 1)] = 0.5
        expected[index_of(0, 3)] = 0.5
        expected[index_of(2, 1)] = 0.5
        expected[index_of(2, 3)] = -0.5
        np.testing.assert_allclose(run.final_state.amplitudes, expected, atol=1e-12)
        np.testing.assert_allclose(run.x_distribution, [0.5, 0.0, 0.5, 0.0], atol=1e-12)

    def test_bare_delay_two_path_amplitudes(self, rng):
        energies = EnergyTable(rng.uniform(-5, 5, size=16))
        tau1, tau2 = rng.uniform(0, 3, size=2)
        run = run_shor("bare-delay", delays=(tau1, tau2), energies=energies)
        e = energies.energy
        phase_a = np.exp(-1j * (e(0, 0) * tau1 + e(0, 1) * tau2))
        phase_b = np.exp(-1j * (e(2, 0) * tau1 + e(2, 1) * tau2))
        expected_00 = 0.25 * (phase_a + phase_b)
        expected_01 = 0.25 * (phase_a - phase_b)
        assert run.final_state.amplitudes[index_of(0, 1)] == pytest.approx(
            expected_00, abs=1e-12
        )
        assert run.final_state.amplitudes[index_of(1, 1)] == pytest.approx(
            expected_01, abs=1e-12
        )

    def test_bare_delay_revived_state_probability(self):
        # phases arranged so the two paths differ by pi: P(|01,01>) = 1/4
        table = np.zeros((4, 4))
        table[2, 0] = np.pi  # E_20, delays (1, anything)
        energies = EnergyTable.from_xy_table(table)
        run = run_shor("bare-delay", delays=(1.0, 2.0), energies=energies)
        assert run.final_state.probabilities[index_of(1, 1)] == pytest.approx(
            0.25, abs=1e-12
        )

    def test_bare_delay_interference_formula(self, rng):
        # P(|01,01>) = (1 - cos(dphi)) / 8
        for _ in range(20):
            energies = EnergyTable(rng.uniform(-4, 4, size=16))
            tau1, tau2 = rng.uniform(0, 5, size=2)
            run = run_shor("bare-delay", delays=(tau1, tau2), energies=energies)
            e = energies.energy
            dphi = (e(2, 0) - e(0, 0)) * tau1 + (e(2, 1) - e(0, 1)) * tau2
            expected = (1 - np.cos(dphi)) / 8
            assert run.final_state.probabilities[index_of(1, 1)] == pytest.approx(
                expected, abs=1e-12
            )

    def test_bare_delay_reduces_to_instantaneous(self):
        energies = EnergyTable(np.arange(16.0))
        run = run_shor("bare-delay", delays=(0.0, 0.0), energies=energies)
        ideal = run_shor("instantaneous")
        np.testing.assert_allclose(
            run.final_state.amplitudes, ideal.final_state.amplitudes, atol=0
        )

    def test_natural_phase_restores_distribution(self, rng):
        ideal = run_shor("instantaneous")
        for _ in range(20):
            energies = EnergyTable(rng.uniform(-5, 5, size=16))
            delays = tuple(rng.uniform(0, 4, size=2))
            run = run_shor("natural-phase", delays=delays, energies=energies)
            np.testing.assert_allclose(
                run.x_distribution, ideal.x_distribution, atol=1e-10
            )

    def test_natural_phase_amplitudes_differ_only_by_state_phases(self, rng):
        energies = EnergyTable(rng.uniform(-5, 5, size=16))
        delays = (1.3, 2.1)
        run = run_shor("natural-phase", delays=delays, energies=energies)
        ideal = run_shor("instantaneous")
        expected = np.exp(-1j * energies.values * sum(delays)) * ideal.final_state.amplitudes
        np.testing.assert_allclose(run.final_state.amplitudes, expected, atol=1e-12)

    def test_all_modes_match_brute_force(self, rng):
        values = rng.uniform(-5, 5, size=16)
        energies = EnergyTable(values)
        tau1, tau2 = 0.7, 1.9
        for mode in ("instantaneous", "bare-delay", "natural-phase"):
            run = run_shor(mode, delays=(tau1, tau2), energies=energies)
            oracle = brute_force_pipeline(mode, tau1, tau2, values)
            np.testing.assert_allclose(run.final_state.amplitudes, oracle, atol=1e-12)

    def test_unitarity(self, rng):
        energies = EnergyTable(rng.uniform(-5, 5, size=16))
        run = run_shor("bare-delay", delays=(2.0, 3.0), energies=energies)
        assert abs(run.final_state.norm - 1.0) < 1e-12

    def test_delay_mode_requires_energies(self):
        with pytest.raises(ConfigurationError, match="energy"):
            run_shor("bare-delay", delays=(1.0, 1.0))

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError, match="mode"):
            run_shor("adiabatic")

    @pytest.mark.parametrize("mode", ["bare-delay", "natural-phase"])
    @pytest.mark.parametrize("delays", [(np.nan, 1.0), (1.0, np.inf)])
    def test_non_finite_delays_rejected(self, mode, delays):
        with pytest.raises(ConfigurationError, match="finite"):
            run_shor(mode, delays=delays, energies=EnergyTable(np.zeros(16)))

    @pytest.mark.parametrize("mode", ["bare-delay", "natural-phase"])
    @pytest.mark.parametrize("trace", [False, True])
    def test_overflowing_delay_phases_rejected(self, mode, trace):
        # finite delays whose phases overflow: two warnings and [nan nan nan nan] before
        energies = EnergyTable(np.full(16, 10.0))
        with warnings_are_errors():
            with pytest.raises(ConfigurationError, match="double precision"):
                run_shor(mode, delays=(1e308, 1.0), energies=energies, trace=trace)


class TestEnergyTable:
    def test_from_spin_system(self, ensemble_system):
        table = EnergyTable.from_spin_system(ensemble_system)
        np.testing.assert_allclose(table.values, diagonal_energies(ensemble_system))

    def test_xy_indexing(self):
        table = EnergyTable.from_xy_table(np.arange(16.0).reshape(4, 4))
        assert table.energy(2, 1) == 9.0

    def test_wrong_size(self):
        with pytest.raises(ConfigurationError):
            EnergyTable(np.zeros(8))

    @pytest.mark.parametrize(
        "values", [["1"] * 15 + [True], ["1"] * 16, [0.0] * 15 + [True], [0.0] * 15 + [np.nan]]
    )
    def test_non_numbers_rejected(self, values):
        # ['1'] * 15 + [True] used to build a table of ones
        with pytest.raises(ConfigurationError):
            EnergyTable(values)

    @pytest.mark.parametrize("table", [np.zeros((2, 8)), np.zeros(16), np.zeros((4, 4, 1))])
    def test_xy_table_not_4x4_rejected(self, table):
        with pytest.raises(ConfigurationError, match="^x/y energy table must be 4x4$"):
            EnergyTable.from_xy_table(table)

    def test_from_spin_system_needs_four_spins(self, gate_system):
        with pytest.raises(ConfigurationError, match="needs a 4-spin system$"):
            EnergyTable.from_spin_system(gate_system)

    def test_xy_table_with_a_bool_rejected(self):
        with pytest.raises(ConfigurationError, match="numeric"):
            EnergyTable.from_xy_table([[0.0, 1.0, 2.0, True]] + [[0.0] * 4] * 3)


class TestTracePaths:
    def test_two_paths_into_constructive_state(self, rng):
        energies = EnergyTable(rng.uniform(-3, 3, size=16))
        run = run_shor("bare-delay", delays=(1.0, 2.0), energies=energies, trace=True)
        terms = run.trace.terms[index_of(0, 1)]
        assert len(terms) == 2
        paths = {t.states for t in terms}
        assert paths == {
            (0, index_of(0, 0), index_of(0, 1), index_of(0, 1)),
            (0, index_of(2, 0), index_of(2, 1), index_of(0, 1)),
        }

    def test_instantaneous_paths_share_phase(self):
        trace = run_shor("instantaneous", trace=True).trace
        terms = trace.terms[index_of(0, 1)]
        assert len(terms) == 2
        phases = [t.phase for t in terms]
        assert phases[0] == pytest.approx(phases[1], abs=1e-12)

    def test_coherent_sums_reproduce_amplitudes(self, rng):
        energies = EnergyTable(rng.uniform(-5, 5, size=16))
        run = run_shor("bare-delay", delays=(0.8, 1.7), energies=energies, trace=True)
        for index in range(16):
            assert run.trace.amplitude(index) == pytest.approx(
                run.final_state.amplitudes[index], abs=1e-12
            )

    def test_path_magnitudes_quarter(self, rng):
        energies = EnergyTable(rng.uniform(-5, 5, size=16))
        trace = run_shor("bare-delay", delays=(1.0, 1.0), energies=energies, trace=True).trace
        for terms in trace.terms.values():
            for term in terms:
                assert term.magnitude == pytest.approx(0.25, abs=1e-12)


class TestTraceMatchesLoop:
    @pytest.mark.parametrize("mode", MODES)
    def test_gathered_paths_match_triple_loop(self, rng, mode):
        for _ in range(20):
            energies = EnergyTable(rng.uniform(-20, 20, size=16))
            delays = tuple(rng.uniform(0, 5, size=2))
            trace = run_shor(mode, delays=delays, energies=energies, trace=True).trace
            reference = loop_trace(mode, delays, energies)
            assert list(trace.terms) == list(reference)
            for index, expected in reference.items():
                terms = trace.terms[index]
                assert [t.states for t in terms] == [states for states, _, _ in expected]
                for term, (_, phase, magnitude) in zip(terms, expected):
                    assert abs(term.phase - phase) <= 1e-15
                    assert abs(term.magnitude - magnitude) <= 1e-15

    @pytest.mark.parametrize("mode", ["bare-delay", "natural-phase"])
    def test_path_topology_is_the_dressed_stages_sparsity(self, rng, mode):
        for _ in range(20):
            energies = EnergyTable(rng.uniform(-20, 20, size=16))
            delays = tuple(rng.uniform(0, 5, size=2))
            stages, _ = dressed_stages(mode, delays, energies)
            for u, bare in zip(stages, _STAGES):
                assert np.array_equal(np.abs(u) > 1e-15, np.abs(bare) > 1e-15)
            u1, u2, u3 = stages
            expected = [
                (s1, s2, s3)
                for s1 in np.flatnonzero(np.abs(u1[:, 0]) > 1e-15).tolist()
                for s2 in np.flatnonzero(np.abs(u2[:, s1]) > 1e-15).tolist()
                for s3 in np.flatnonzero(np.abs(u3[:, s2]) > 1e-15).tolist()
            ]
            assert list(zip(*(s.tolist() for s in _PATHS))) == expected

    def test_natural_phase_matches_the_dressed_stages(self, rng):
        # the run applies D U D^+ as diagonals on the state; the reference
        # multiplies by the dressed matrices, which rounds differently
        for _ in range(20):
            energies = EnergyTable(rng.uniform(-20, 20, size=16))
            delays = tuple(rng.uniform(0, 5, size=2))
            run = run_shor("natural-phase", delays, energies)
            expected = dressed_run("natural-phase", delays, energies)
            assert np.abs(run.final_state.amplitudes - expected).max() <= 1e-15

    @pytest.mark.parametrize("mode", ["instantaneous", "bare-delay"])
    def test_undressed_modes_are_the_dressed_stages_bit_for_bit(self, rng, mode):
        for _ in range(20):
            energies = EnergyTable(rng.uniform(-20, 20, size=16))
            delays = tuple(rng.uniform(0, 5, size=2))
            run = run_shor(mode, delays, energies)
            assert np.array_equal(run.final_state.amplitudes, dressed_run(mode, delays, energies))

    def test_path_terms_are_immutable(self):
        energies = EnergyTable(np.arange(16.0))
        trace = run_shor("natural-phase", (0.7, 1.3), energies, trace=True).trace
        term = trace.terms[register_index(0, 1)][0]
        assert isinstance(term, PathTerm)
        assert term.states[0] == 0 and term.states[3] == register_index(0, 1)
        assert isinstance(term.phase, float) and term.magnitude == pytest.approx(0.25)
        for field in ("states", "phase", "magnitude"):
            with pytest.raises(AttributeError):
                setattr(term, field, 0)

    def test_instantaneous_run_matches_the_stages(self):
        applied = _STAGES[2] @ (_STAGES[1] @ (_STAGES[0] @ QuantumState.basis(4, 0).amplitudes))
        np.testing.assert_allclose(
            run_shor("instantaneous").final_state.amplitudes, applied, rtol=0, atol=1e-15
        )


class TestStageConstants:
    @pytest.mark.parametrize("array", [*_STAGES, *_PATHS])
    def test_stages_and_paths_are_read_only(self, array):
        with pytest.raises(ValueError):
            array[0, ...] = 0

    def test_dressing_leaves_the_stages_alone(self, rng):
        for _ in range(5):
            energies = EnergyTable(rng.uniform(-5, 5, size=16))
            run_shor("natural-phase", tuple(rng.uniform(0, 4, size=2)), energies, trace=True)
        np.testing.assert_allclose(
            run_shor("instantaneous").x_distribution, [0.5, 0.0, 0.5, 0.0], atol=1e-12
        )


class TestExtractPeriod:
    def test_ideal_distribution(self):
        result = extract_period([0.5, 0.0, 0.5, 0.0])
        assert result.period == 2
        assert result.factor == 2
        assert result.x_measured == 2
        assert result.note is None

    def test_no_support_raises(self):
        with pytest.raises(PeriodExtractionError, match="no support"):
            extract_period([1.0, 0.0, 0.0, 0.0])

    def test_corrupted_distribution_reports_diagnostic(self):
        # support on x = 1 -> period 4, z = 9, gcd(8, 4) = 4: not proper
        result = extract_period([0.4, 0.3, 0.2, 0.1])
        assert result.period == 4
        assert result.factor == 4
        assert result.x_measured == 1
        assert result.note is not None

    def test_fractional_period_raises(self):
        with pytest.raises(PeriodExtractionError, match="fractional"):
            extract_period([0.5, 0.0, 0.0, 0.5])

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            extract_period([0.5, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("distribution", [[0.5, np.nan, 0.5, 0.0], [np.inf, 0.0, -np.inf, 1.0]])
    def test_non_finite_rejected(self, distribution):
        with pytest.raises(ValueError, match="normalized"):
            extract_period(distribution)

    @pytest.mark.parametrize("distribution", [[0.5, 0.5], [[0.5, 0.0], [0.5, 0.0]]])
    def test_wrong_shape_rejected(self, distribution):
        with pytest.raises(ValueError, match="4 entries"):
            extract_period(distribution)

    def test_support_lies_above_tol(self):
        # x = 1 at exactly tol carries no support; x = 2 gives the period
        result = extract_period([0.5 - 1e-12, 1e-12, 0.5, 0.0])
        assert (result.x_measured, result.period, result.factor) == (2, 2, 2)


class TestRegisterCoordinates:
    def test_roundtrip(self):
        for index in range(16):
            x, y = register_values(index)
            assert register_index(x, y) == index

    def test_example_encoding(self):
        # x = 1, y = 3 lives in |01,11>
        assert register_index(1, 3) == 0b0111

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            register_index(4, 0)
        with pytest.raises(ValueError):
            register_values(16)


class TestSampling:
    def test_deterministic_with_seed(self):
        dist = [0.5, 0.0, 0.5, 0.0]
        assert sample_x(dist, 100, seed=7) == sample_x(dist, 100, seed=7)

    def test_counts_total(self):
        counts = sample_x([0.5, 0.0, 0.5, 0.0], 200, seed=1)
        assert sum(counts.values()) == 200
        assert set(counts) <= {0, 2}

    def test_last_bit_does_not_move_the_sample(self):
        # drawn as they are, 0.5 + 2.2e-16 gives {0: 30, 2: 20} and 0.5 gives {0: 20, 2: 30}
        counts = {0: 20, 2: 30}
        assert sample_x([0.5, 0.0, 0.5, 0.0], 50, seed=3) == counts
        assert sample_x([0.5000000000000002, 0.0, 0.4999999999999998, 0.0], 50, seed=3) == counts
        # the grid is laid over the normalized probabilities, at any scale
        with warnings_are_errors("raise"):
            assert sample_x([1e300, 0.0, 1e300, 0.0], 50, seed=3) == counts

    def test_shot_count_does_not_set_memory(self):
        # one draw per outcome, not per shot: 10^12 shots must not allocate 8 TB
        counts = sample_x([0.5, 0.0, 0.5, 0.0], 10**12, seed=3)
        assert sum(counts.values()) == 10**12
        assert set(counts) == {0, 2}
