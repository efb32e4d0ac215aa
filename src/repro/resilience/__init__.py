"""Resilience layer: keeping the PFM stack itself dependable.

The MEA cycle watches the system; this package watches the watcher.  It
provides the policies (retry/backoff in simulated time, per-action
circuit breakers), the input firewall (:class:`GaugeSanitizer`),
predictor failover with the lead-time latency budget
(:class:`FallbackPredictor`), countermeasure escalation
(:class:`EscalationChain`), and the fault-injection campaign that attacks
the PFM stack to demonstrate graceful degradation
(:mod:`repro.resilience.campaign`).

The campaign module orchestrates closed-loop experiments and therefore
imports :mod:`repro.core`; it is loaded lazily here so the substrate
exports stay import-cycle free.
"""

from repro.resilience.escalation import EscalationChain, default_chain
from repro.resilience.fallback import FallbackPredictor, ScoreResult
from repro.resilience.policies import BreakerState, CircuitBreaker, RetryPolicy
from repro.resilience.sanitizer import GaugeSanitizer, SanitizedReading

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "RetryPolicy",
    "GaugeSanitizer",
    "SanitizedReading",
    "FallbackPredictor",
    "ScoreResult",
    "EscalationChain",
    "default_chain",
    # lazily loaded from repro.resilience.campaign:
    "CampaignConfig",
    "CampaignReport",
    "PFMFaultScenario",
    "default_scenarios",
    "run_campaign",
]

_CAMPAIGN_EXPORTS = {
    "CampaignConfig",
    "CampaignReport",
    "PFMFaultScenario",
    "default_scenarios",
    "run_campaign",
}


def __getattr__(name: str):
    if name in _CAMPAIGN_EXPORTS:
        from repro.resilience import campaign

        return getattr(campaign, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
