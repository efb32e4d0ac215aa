"""The chaos-seed search the fleet tests share.

A test that needs "a worker dies and the retry absorbs it" searches for
the chaos seed over the pure decision function instead of hard-coding
one, so it keeps provoking a crash if the key derivation ever changes.
"""

import pytest

from repro.faults.chaos import ChaosConfig, crash_decision

#: Attempts the search keeps clean for every shard.  A broken pool
#: resubmits the innocent shards that were in flight with bumped attempt
#: numbers, so their retry draws must be clean too.
CLEAN_ATTEMPTS = 4


def transient_crash_config(keys, crash_probability=0.2, max_seed=20_000):
    """A chaos config in which only first attempts crash.

    At least one of ``keys`` crashes on attempt 1, and none crashes on
    attempts 2 to :data:`CLEAN_ATTEMPTS`.
    """
    for seed in range(max_seed):
        config = ChaosConfig(seed=seed, crash_probability=crash_probability)
        if any(crash_decision(config, key, 1) for key in keys) and not any(
            crash_decision(config, key, attempt)
            for key in keys
            for attempt in range(2, CLEAN_ATTEMPTS + 1)
        ):
            return config
    pytest.fail(f"no chaos seed below {max_seed} crashes only first attempts")
