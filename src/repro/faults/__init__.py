"""The fault -> error -> symptom -> failure chain (paper Fig. 2).

The paper's taxonomy of prediction methods is organized around how flaws
become visible: faults (testing), undetected errors (auditing), symptoms
(monitoring), detected errors (reporting) and failures (tracking).  This
package provides the corresponding record types, fault classifications,
fault injectors (used by the telecom simulator to create realistic failure
behaviour) and the SCP's timing check (an error detector, Sect. 4.3).
"""

from repro.faults.classification import (
    CristianFailureMode,
    FaultPersistence,
)
from repro.faults.detectors import TimingCheck
from repro.faults.faultload import FaultActivation, FaultLoad
from repro.faults.injectors import (
    FaultInjector,
    InjectionTarget,
    IntermittentErrorInjector,
    MemoryLeakInjector,
    OverloadInjector,
    ProcessHangInjector,
    StateCorruptionInjector,
)
from repro.faults.model import (
    ErrorRecord,
    FailureRecord,
    Fault,
    FaultState,
    Symptom,
)

__all__ = [
    "CristianFailureMode",
    "FaultPersistence",
    "TimingCheck",
    "FaultActivation",
    "FaultLoad",
    "FaultInjector",
    "InjectionTarget",
    "IntermittentErrorInjector",
    "MemoryLeakInjector",
    "OverloadInjector",
    "ProcessHangInjector",
    "StateCorruptionInjector",
    # lazily loaded from repro.faults.chaos (the fleet chaos harness):
    "ChaosConfig",
    "ChaosInjector",
    "TornArtifactError",
    "active_chaos",
    "clear_chaos",
    "install_chaos",
    "parse_chaos",
    # lazily loaded from repro.faults.pfm_injectors (which needs
    # repro.actions, itself a consumer of this package):
    "ActionFailureInjector",
    "FlakyActionProxy",
    "FlakyPredictorProxy",
    "MonitoringDropoutInjector",
    "ObservationCorruptionInjector",
    "PFMInjector",
    "PredictorFaultInjector",
    "PredictorLatencyInjector",
    "flaky_repertoire",
    "ErrorRecord",
    "FailureRecord",
    "Fault",
    "FaultState",
    "Symptom",
]

_CHAOS_EXPORTS = {
    "ChaosConfig",
    "ChaosInjector",
    "TornArtifactError",
    "active_chaos",
    "clear_chaos",
    "install_chaos",
    "parse_chaos",
}

_PFM_INJECTOR_EXPORTS = {
    "ActionFailureInjector",
    "FlakyActionProxy",
    "FlakyPredictorProxy",
    "MonitoringDropoutInjector",
    "ObservationCorruptionInjector",
    "PFMInjector",
    "PredictorFaultInjector",
    "PredictorLatencyInjector",
    "flaky_repertoire",
}


def __getattr__(name: str):
    if name in _CHAOS_EXPORTS:
        from repro.faults import chaos

        return getattr(chaos, name)
    if name in _PFM_INJECTOR_EXPORTS:
        from repro.faults import pfm_injectors

        return getattr(pfm_injectors, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
