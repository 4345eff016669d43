"""Gate pulse synthesis: single-pulse CN gates and the 2pi-k method.

A pi-pulse that flips a resonant spin deflects every non-resonant spin by a
rotation about the effective field omega_e = sqrt(Omega^2 + delta^2).  The
2pi-k method picks the Rabi frequency so the same pulse is simultaneously a
2*pi*k rotation for a spin detuned by delta, returning it exactly to its
initial state:

    Omega * tau = pi / n          (pi/n-pulse for the resonant spin)
    omega_e * tau = 2 pi k        (full rotations for the detuned spin)
    =>  Omega = |delta| / sqrt((2 n k)^2 - 1),   tau = pi / (n Omega)

Applied to a coupled two-spin system, the target's transition sits at
omega_t + J (control ground) or omega_t - J (control excited), so delta = 2J
yields an exact single-pulse CN gate of duration sqrt(3) pi / (2 J) at k = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ConfigurationError, PulseSpec, SpinSystem, transition_frequency
from .model import require_finite, require_finite_arguments

#: proton gyromagnetic ratio, rad s^-1 T^-1
PROTON_GYROMAGNETIC_RATIO = 2.6752218744e8

#: frequency-ladder spacing in Rabi units; detunings then come out as
#: multiples of 8 Omega and pi-pulse return angles as near-multiples of 8 pi
LADDER_SPACING_FACTOR = 8.0


def cn_gate_matrix(with_phase: bool = False) -> np.ndarray:
    """Two-qubit control-not gate over (control, target), control = left qubit.

    ``with_phase=True`` returns the single-pulse realization, whose swapped
    block carries the standard +pi/2 phase factors (i's) imprinted by a
    phi = 0 drive.
    """
    swap = 1j if with_phase else 1.0
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[1, 1] = 1.0
    m[2, 3] = m[3, 2] = swap
    return m


@dataclass(frozen=True)
class TwoPiKDesign:
    """Pulse parameters satisfying the simultaneous pi/n and 2pi-k conditions."""

    rabi: float
    duration: float
    k: int
    n: int
    delta_omega: float

    def __post_init__(self):
        if not (0 < self.rabi < math.inf and 0 < self.duration < math.inf):
            raise ConfigurationError(
                f"design needs a finite positive Rabi frequency and duration "
                f"(got {self.rabi}, {self.duration})"
            )
        area = self.rabi * self.duration
        if abs(area - math.pi / self.n) > 1e-12 * max(1.0, area):
            raise ConfigurationError("design violates Omega * tau = pi/n")
        angle = math.hypot(self.rabi, self.delta_omega) * self.duration
        if abs(angle - 2 * math.pi * self.k) > 1e-12 * max(1.0, angle):
            raise ConfigurationError("design violates omega_e * tau = 2 pi k")


def design_2pik(delta_omega: float, k: int = 1, n: int = 1) -> TwoPiKDesign:
    """Rabi frequency and duration of a pi/n-pulse that is 2pi-k for |delta|.

    Omega = |delta| / sqrt((2nk)^2 - 1) and tau = pi/(n Omega); the returned
    parameters satisfy both conditions exactly, so the detuned spin's
    rotation angle omega_e * tau is an exact integer multiple of 2 pi.
    """
    if delta_omega == 0:
        raise ConfigurationError("no 2pi-k design exists for zero detuning")
    if k < 1 or n < 1:
        raise ConfigurationError("k and n must be positive integers")
    delta = abs(float(delta_omega))
    rabi = delta / math.sqrt((2.0 * n * k) ** 2 - 1.0)
    if rabi == 0.0:
        raise ConfigurationError(
            f"design needs a positive Rabi frequency: |delta_omega| = {delta} "
            f"with k = {k}, n = {n} underflows it to 0"
        )
    return TwoPiKDesign(
        rabi=rabi, duration=math.pi / (n * rabi), k=int(k), n=int(n), delta_omega=delta
    )


# The closed forms below reject a non-finite argument by name, then compute in
# Python floats, where an overflow is inf with no warning, refused by require_finite.


def rotation_angle(omega_rabi: float, delta_omega: float, tau: float) -> float:
    """Exact rotation angle omega_e * tau of a spin detuned by delta_omega."""
    require_finite_arguments(omega_rabi=omega_rabi, delta_omega=delta_omega, tau=tau)
    if not tau >= 0:
        raise ValueError("tau must be >= 0")
    return require_finite(math.hypot(omega_rabi, delta_omega) * float(tau), "rotation angle")


def approx_rotation_angle(omega_rabi: float, delta_omega: float) -> float:
    """Large-detuning estimate pi |delta| / Omega of a pi-pulse return angle; Omega > 0."""
    require_finite_arguments(omega_rabi=omega_rabi, delta_omega=delta_omega)
    if not omega_rabi > 0:
        raise ValueError("omega_rabi must be > 0")
    angle = math.pi * abs(float(delta_omega)) / float(omega_rabi)
    return require_finite(angle, "approximate rotation angle")


def offresonant_excitation_probability(
    omega_rabi: float, delta_omega: float, tau: float
) -> float:
    """Excitation probability (Omega^2/omega_e^2) sin^2(omega_e tau / 2).

    Closed form for a two-level spin detuned by delta_omega from the drive;
    vanishes identically when the pulse satisfies a 2pi-k condition.
    """
    require_finite_arguments(omega_rabi=omega_rabi, delta_omega=delta_omega, tau=tau)
    omega_e = math.hypot(omega_rabi, delta_omega)
    if omega_e == 0.0:
        return 0.0
    half_angle = require_finite(0.5 * omega_e * float(tau), "rotation angle")
    return (float(omega_rabi) / omega_e) ** 2 * math.sin(half_angle) ** 2


def frequency_ladder(omega0: float, omega_rabi: float, count: int) -> np.ndarray:
    """Arithmetic ladder omega0 + 8 n Omega for n = 1..count.

    Any resonant pulse at a ladder frequency sees every other ladder spin
    detuned by a multiple of 8 Omega, so all pi-pulse return angles are near
    multiples of 8 pi (ladder spacings, like detunings, are in units of
    Omega, not pi).
    """
    require_finite_arguments(omega0=omega0, omega_rabi=omega_rabi)
    if count < 1:
        raise ConfigurationError("ladder length must be >= 1")
    spacing = LADDER_SPACING_FACTOR * float(omega_rabi)
    ladder = [float(omega0) + spacing * n for n in range(1, count + 1)]
    return np.array(require_finite(ladder, "frequency ladder"))


def cn_pulse(
    system: SpinSystem,
    control: int,
    target: int,
    variant: str = "standard",
    rabi=None,
    exact_2pik: int | None = None,
    phase: float = 0.0,
) -> PulseSpec:
    """Single pulse realizing a CN gate between two coupled spins.

    The carrier sits on the target's transition conditioned on the control
    being excited ("standard") or ground ("complementary"), with every other
    spin ground.  With ``exact_2pik=k`` the Rabi frequency and duration come
    from the 2pi-k design for delta = 2 J_ct, making the pulse an exact
    multiple of 2 pi for the complementary control state; all spins are then
    driven at the designed Rabi frequency, and a ``rabi`` given as well
    raises ConfigurationError.  Otherwise ``rabi`` supplies the per-spin
    drive amplitudes (non-target spins keep their configured values during
    the pulse) and the duration is a pi-pulse for the target.
    """
    if variant not in ("standard", "complementary"):
        raise ConfigurationError(f"unknown CN variant {variant!r}")
    if control == target:
        raise ConfigurationError("control and target must be distinct spins")
    for spin in (control, target):
        if not 0 <= spin < system.n_spins:
            raise ConfigurationError(f"spin index {spin} out of range")

    spectators = {s: 0 for s in range(system.n_spins) if s != target}
    spectators[control] = 1 if variant == "standard" else 0
    carrier = transition_frequency(system, target, spectators)

    if exact_2pik is not None:
        if rabi is not None:
            raise ConfigurationError("rabi amplitudes are not used with exact_2pik")
        j = system.couplings[control, target]
        if j == 0.0:
            raise ConfigurationError(
                "exact 2pi-k CN needs a nonzero coupling between control and target"
            )
        design = design_2pik(require_finite(2.0 * float(j), "detuning 2 J"), k=exact_2pik, n=1)
        amplitudes = np.full(system.n_spins, design.rabi)
        duration = design.duration
    else:
        if rabi is None:
            raise ConfigurationError("rabi amplitudes required unless exact_2pik is set")
        amplitudes = np.asarray(rabi, dtype=float)
        if amplitudes.shape != (system.n_spins,):
            raise ConfigurationError(
                f"rabi must list {system.n_spins} per-spin amplitudes"
            )
        if not amplitudes[target] > 0:  # NaN fails too
            raise ConfigurationError("target Rabi frequency must be positive")
        duration = require_finite(math.pi / float(amplitudes[target]), "pulse duration")
    return PulseSpec(carrier=carrier, phase=phase, rabi=amplitudes, duration=duration)


def gradient_estimate(omega_rabi: float, spacing: float) -> tuple[float, float]:
    """Field step and gradient realizing a frequency-ladder spacing of 8 Omega for protons.

    Returns (delta_B, dB/dx) in Tesla and Tesla/meter when omega_rabi is in
    rad/s and spacing in meters: delta_B = 8 Omega / gamma, with gamma the
    proton's ``PROTON_GYROMAGNETIC_RATIO``, and gradient = delta_B / spacing.
    Linear in Omega, inverse-linear in spacing.
    """
    require_finite_arguments(omega_rabi=omega_rabi, spacing=spacing)
    if not (omega_rabi > 0 and spacing > 0):
        raise ValueError("omega_rabi and spacing must be positive")
    delta_b = LADDER_SPACING_FACTOR * float(omega_rabi) / PROTON_GYROMAGNETIC_RATIO
    return require_finite((delta_b, delta_b / float(spacing)), "field step and gradient")
