"""Markov-chain mathematics used across the PFM library.

This subpackage is a self-contained substrate providing:

- :mod:`repro.markov.dtmc` -- discrete-time Markov chains,
- :mod:`repro.markov.ctmc` -- continuous-time Markov chains (steady state,
  transient analysis, first passage),
- :mod:`repro.markov.phase_type` -- phase-type distributions, used for the
  reliability / hazard-rate curves of the paper's Sect. 5.4,
- :mod:`repro.markov.distributions` -- discrete duration distributions for
  semi-Markov models,
- :mod:`repro.markov.hsmm` -- hidden semi-Markov models with explicit state
  durations, the pattern-recognition engine behind the HSMM failure
  predictor of Sect. 3.2.
"""

from repro.markov.ctmc import CTMC
from repro.markov.distributions import (
    DiscreteDuration,
    GeometricDuration,
    UniformDuration,
    EmpiricalDuration,
)
from repro.markov.dtmc import DTMC
from repro.markov.hsmm import HiddenSemiMarkovModel
from repro.markov.phase_type import PhaseTypeDistribution
from repro.markov.smp import SemiMarkovProcess, deterministic_rejuvenation_smp

__all__ = [
    "CTMC",
    "DTMC",
    "DiscreteDuration",
    "GeometricDuration",
    "UniformDuration",
    "EmpiricalDuration",
    "HiddenSemiMarkovModel",
    "PhaseTypeDistribution",
    "SemiMarkovProcess",
    "deterministic_rejuvenation_smp",
]
