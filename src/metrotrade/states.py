"""Probe states and their overlap with a phase-shifted reference.

A probe prepared in an equal superposition picks up a relative phase and
is compared against the same preparation at a reference phase.  The
overlap (fidelity) between the two determines everything downstream:
the measurable signal is 1 - fidelity, and the curvature of the
fidelity at zero phase difference sets the quantum Fisher information.

Four probe families are supported:

    single     one two-level system, F = (1 + cos d) / 2
    product    M independent copies, F = cos(d/2) ** (2M)
    ghz        M maximally entangled bodies, F = (1 + cos(M d)) / 2
    nonlinear  GHZ-type probe under a k-th order collective generator,
               F = (1 + cos(M**k d)) / 2

where d is the phase difference.  Phases are reduced modulo 2*pi at
construction; every fidelity above is periodic, so nothing is lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

TWO_PI = 2.0 * math.pi


class ProbeKind(Enum):
    SINGLE = "single"
    PRODUCT = "product"
    GHZ = "ghz"
    NONLINEAR = "nonlinear"


@dataclass(frozen=True)
class ProbePhaseState:
    """A probe preparation carrying an interferometric phase.

    phase is wrapped into [0, 2*pi).  particles is the number of
    elementary bodies M making up the probe (1 for the single kind).
    nonlinear_exponent is the order k of the collective generator and
    only affects the nonlinear kind.
    """

    phase: float
    particles: int = 1
    kind: ProbeKind = ProbeKind.SINGLE
    nonlinear_exponent: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.phase):
            raise ValueError("phase must be finite")
        object.__setattr__(self, "phase", self.phase % TWO_PI)
        if not isinstance(self.particles, int) or self.particles < 1:
            raise ValueError("particles must be a positive integer")
        if self.kind is ProbeKind.SINGLE and self.particles != 1:
            raise ValueError("a single probe has exactly one particle")
        k = self.nonlinear_exponent
        if not (math.isfinite(k) and k >= 1.0):
            raise ValueError("nonlinear_exponent must be >= 1")


@dataclass(frozen=True)
class GeneratorSpec:
    """Spread (half the spectral width) of the phase-imprinting generator."""

    spread: float

    def __post_init__(self):
        if not (math.isfinite(self.spread) and self.spread >= 0.0):
            raise ValueError("spread must be finite and non-negative")


def fidelity(state: ProbePhaseState, reference_phase: float) -> float:
    """Overlap between the probe at state.phase and at reference_phase.

    Always in [0, 1], and exactly 1 at zero phase difference.
    """
    if not math.isfinite(reference_phase):
        raise ValueError("reference_phase must be finite")
    delta = state.phase - reference_phase
    m = state.particles
    if state.kind is ProbeKind.SINGLE:
        return (1.0 + math.cos(delta)) / 2.0
    if state.kind is ProbeKind.PRODUCT:
        return math.cos(delta / 2.0) ** (2 * m)
    if state.kind is ProbeKind.GHZ:
        return (1.0 + math.cos(m * delta)) / 2.0
    freq = float(m) ** state.nonlinear_exponent
    return (1.0 + math.cos(freq * delta)) / 2.0


def canonical_spread(state: ProbePhaseState) -> GeneratorSpec:
    """Generator spread for the optimal preparation of each probe kind.

    single 1/2, product sqrt(M)/2, ghz M/2, nonlinear M**k/2.
    """
    m = state.particles
    if state.kind is ProbeKind.SINGLE:
        return GeneratorSpec(0.5)
    if state.kind is ProbeKind.PRODUCT:
        return GeneratorSpec(math.sqrt(m) / 2.0)
    if state.kind is ProbeKind.GHZ:
        return GeneratorSpec(m / 2.0)
    return GeneratorSpec(float(m) ** state.nonlinear_exponent / 2.0)


def quantum_fisher_information(gen: GeneratorSpec) -> float:
    """Quantum Fisher information 4 * spread**2 of a pure probe.

    Equals -2 d2F/d(delta)2 at delta = 0 for the matching probe kind.
    """
    return 4.0 * gen.spread * gen.spread
