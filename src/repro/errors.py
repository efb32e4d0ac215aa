"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything the library may raise with a single ``except`` clause while
still being able to discriminate by subsystem.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event simulation engine."""


class ModelError(ReproError):
    """Raised for structurally invalid stochastic models."""


class NotFittedError(ReproError):
    """Raised when a predictor is used before it has been trained."""


class ConfigurationError(ReproError):
    """Raised for invalid user-supplied configuration values."""


class ActionError(ReproError):
    """Raised when a countermeasure cannot be applied."""


class ActionExecutionError(ActionError):
    """Raised when a countermeasure dies mid-execution."""


class PFMFaultError(ReproError):
    """Raised by injected faults attacking the PFM stack itself."""


class WorkerCrashError(ReproError):
    """A fleet worker died (or simulated dying) instead of returning.

    Raised by the chaos harness when a hard ``os._exit`` would take down
    the calling process itself (the serial backend runs shards in the
    parent), and usable by custom executors to report a lost worker.
    Always classified as an *infrastructure* failure: the shard did not
    fail, the machinery under it did, so the supervisor retries it."""


class FleetExecutionError(ReproError):
    """One or more fleet shards failed deterministically.

    Unlike an infrastructure failure (worker death, broken pool, torn
    artifact read — which the supervisor retries), a deterministic
    failure is the shard's own code raising: re-running it reproduces
    the same exception.  ``run_fleet`` finishes checkpointing every
    completed shard, then raises this with *every* failure attached —
    ``failures`` is a spec-key-sorted list of
    ``{"key", "error", "source"}`` dicts (``source`` is ``"run"`` for
    failures observed this run, ``"ledger"`` for known failures resumed
    past), and ``causes`` holds the live exception objects where one
    exists.  The first live cause is chained as ``__cause__``."""

    def __init__(self, message: str, failures: list | None = None,
                 causes: list | None = None) -> None:
        super().__init__(message)
        self.failures = failures or []
        self.causes = causes or []


class ReproWarning(UserWarning):
    """Base class for all warnings emitted by the repro library."""


class FleetConfigWarning(ReproWarning):
    """A fleet configuration value is accepted but has no effect."""


class LedgerRoundTripWarning(ReproWarning):
    """A ledger line will not survive resume (spec key mismatch on re-parse).

    The shard completed and its line was written, but the spec's options
    do not JSON-round-trip, so on resume the tolerant reader will drop
    the line and the shard will re-run — work is burned, not lost."""


class ArtifactStoreWarning(ReproWarning):
    """A trained-model artifact was unreadable and will be re-trained."""
