"""The fleet chaos harness: seeded worker-level fault injection.

:mod:`repro.faults.pfm_injectors` attacks the PFM stack *inside* the
simulation; this module attacks the fleet machinery *around* it — the
worker processes, the pool, the artifact reads — so the supervisor loop
in :func:`repro.fleet.run_fleet` can be tested against the faults it
claims to absorb.  Three fault processes, all driven by hash-derived
decisions (no RNG state, so a decision depends only on the chaos seed,
the shard key, the attempt number, and the channel — never on execution
order or process identity):

- **worker crash** — a hard ``os._exit`` before the shard executes,
  taking the whole pool worker (and every chunk-mate's progress) with
  it.  In the parent process (serial backend) the kill is simulated by
  raising :class:`~repro.errors.WorkerCrashError` instead, so the test
  process survives its own chaos.
- **slow worker** — a wall-clock ``time.sleep`` before the shard.  Wall
  time is the one field the fleet's determinism contract excludes, so a
  slow worker must perturb *nothing* in the aggregate.
- **torn artifact** — a :class:`TornArtifactError` (an ``OSError``)
  standing in for a half-written model artifact or checkpoint read.

Because decisions are keyed by attempt number, a shard that crashes on
attempt 1 gets an independent draw on attempt 2 — exactly the transient
infrastructure fault the supervisor's retry policy exists for.  Setting
``crash_probability=1.0`` makes a spec *poison* (it kills a worker on
every attempt), which is how the quarantine path is exercised.

The chaos invariant ``tests/fleet/test_determinism_contract.py``
checks: with any chaos configuration whose faults the retry budget
absorbs, the fleet aggregate is byte-identical to a clean serial run.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

from repro.errors import ConfigurationError, WorkerCrashError

#: Exit status of a hard-killed worker (the conventional SIGKILL code).
CRASH_EXIT_CODE = 137

#: Decision channels: independent draws per fault process.
_CRASH, _SLOW, _TORN = "crash", "slow", "torn"


class TornArtifactError(OSError):
    """Chaos stand-in for a torn/corrupt artifact read (infrastructure)."""


@dataclass(frozen=True)
class ChaosConfig:
    """One seeded chaos regime; probabilities are per (shard, attempt)."""

    seed: int = 0
    crash_probability: float = 0.0
    slow_probability: float = 0.0
    slow_seconds: float = 0.01
    torn_artifact_probability: float = 0.0

    def __post_init__(self) -> None:
        for name in ("crash_probability", "slow_probability",
                     "torn_artifact_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        if self.slow_seconds < 0:
            raise ConfigurationError("slow_seconds must be >= 0")

    def enabled(self) -> bool:
        """Whether any fault process can ever fire."""
        return (
            self.crash_probability > 0
            or self.slow_probability > 0
            or self.torn_artifact_probability > 0
        )


def _chance(seed: int, spec_key: str, attempt: int, channel: str) -> float:
    """Deterministic uniform draw in [0, 1) for one decision point."""
    payload = f"chaos:{seed}:{spec_key}:{attempt}:{channel}"
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") / 2**64


def crash_decision(config: ChaosConfig, spec_key: str, attempt: int) -> bool:
    """Whether this (shard, attempt) pair dies.  Pure; tests plan with it."""
    return _chance(config.seed, spec_key, attempt, _CRASH) < config.crash_probability


def torn_decision(config: ChaosConfig, spec_key: str, attempt: int) -> bool:
    """Whether this (shard, attempt) pair tears its artifact read."""
    return (
        _chance(config.seed, spec_key, attempt, _TORN)
        < config.torn_artifact_probability
    )


def slow_decision(config: ChaosConfig, spec_key: str, attempt: int) -> bool:
    """Whether this (shard, attempt) pair runs on a slow worker."""
    return _chance(config.seed, spec_key, attempt, _SLOW) < config.slow_probability


@dataclass
class ChaosInjector:
    """The per-process chaos runtime installed by the worker initializer."""

    config: ChaosConfig
    parent_pid: int
    #: Faults fired in *this* process (meaningful for the serial backend;
    #: a hard-killed pool worker takes its counters to the grave).
    crashes_simulated: int = 0
    torn_reads: int = 0
    slowdowns: int = 0

    def _trace(self, spec_key: str, attempt: int, channel: str) -> None:
        """Record one fired fault on the fleet trace, if tracing is armed.

        Written *before* the fault executes — for the crash channel the
        ``os._exit`` follows immediately, and an atomically-published
        record is the only way a hard-killed worker's injection stays
        visible on the merged timeline.
        """
        from repro.telemetry.tracing import active_trace, record_chaos_event

        context = active_trace()
        if context is not None:
            record_chaos_event(context, spec_key, attempt, channel)

    def before_spec(self, spec_key: str, attempt: int) -> None:
        """Fire this (shard, attempt) pair's faults, worst last.

        Slowdowns happen first (they perturb only wall clock), then torn
        reads (an ordinary raise the worker survives), then the crash —
        a hard ``os._exit`` in a pool worker, a raised
        :class:`WorkerCrashError` when this *is* the parent process.
        """
        cfg = self.config
        if slow_decision(cfg, spec_key, attempt):
            self.slowdowns += 1
            self._trace(spec_key, attempt, _SLOW)
            time.sleep(cfg.slow_seconds)
        if torn_decision(cfg, spec_key, attempt):
            self.torn_reads += 1
            self._trace(spec_key, attempt, _TORN)
            raise TornArtifactError(
                f"chaos: torn artifact read for shard {spec_key} "
                f"(attempt {attempt})"
            )
        if crash_decision(cfg, spec_key, attempt):
            self._trace(spec_key, attempt, _CRASH)
            if os.getpid() == self.parent_pid:
                self.crashes_simulated += 1
                raise WorkerCrashError(
                    f"chaos: simulated worker crash on shard {spec_key} "
                    f"(attempt {attempt})"
                )
            os._exit(CRASH_EXIT_CODE)


#: The process-wide injector (one per worker; ``None`` = chaos off).
_ACTIVE: ChaosInjector | None = None


def install_chaos(config: ChaosConfig, parent_pid: int | None = None) -> ChaosInjector:
    """Arm chaos in this process; returns the installed injector."""
    global _ACTIVE
    _ACTIVE = ChaosInjector(
        config=config,
        parent_pid=parent_pid if parent_pid is not None else os.getpid(),
    )
    return _ACTIVE


def active_chaos() -> ChaosInjector | None:
    """The injector armed in this process, if any."""
    return _ACTIVE


def clear_chaos() -> None:
    """Disarm chaos in this process."""
    global _ACTIVE
    _ACTIVE = None


def parse_chaos(spec: str, seed: int = 0) -> ChaosConfig:
    """``"crash=0.3,slow=0.1,torn=0.05"`` -> :class:`ChaosConfig`.

    Keys: ``crash``, ``slow``, ``torn`` (probabilities) and
    ``slow-seconds`` (the injected delay).  The CLI's ``--chaos`` flag
    routes through here.
    """
    fields = {
        "crash": "crash_probability",
        "slow": "slow_probability",
        "torn": "torn_artifact_probability",
        "slow-seconds": "slow_seconds",
        "slow_seconds": "slow_seconds",
    }
    kwargs: dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, value = part.partition("=")
        if not sep:
            raise ConfigurationError(
                f"chaos spec entry {part!r} is not name=value"
            )
        field_name = fields.get(name.strip())
        if field_name is None:
            raise ConfigurationError(
                f"unknown chaos fault {name.strip()!r}; "
                f"use one of {sorted(set(fields))}"
            )
        try:
            kwargs[field_name] = float(value)
        except ValueError:
            raise ConfigurationError(
                f"chaos value {value!r} for {name.strip()!r} is not a number"
            ) from None
    return ChaosConfig(seed=seed, **kwargs)
