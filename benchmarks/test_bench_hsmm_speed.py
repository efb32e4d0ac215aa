"""Bench: HSMM inference-core speedups.

Two records, each written as its own section of ``BENCH_hsmm_speed.json``
next to this file so the speedups are kept as a build artifact:

- vectorized vs reference loops: soft-EM training and batch scoring on the
  acceptance configuration (T=200 observations, N=4 states, D=10 max
  duration), asserting the vectorized hot path is at least 5x faster;
- ``cross_sequence``: one padded ``log_likelihood_batch`` call against a
  loop of single-sequence ``log_likelihood`` calls, in the Noisy-OR
  panel's shape (6- and 4-state models, D=8, about 300 sequences of 50-90
  symbols), asserting at least ``MIN_CROSS_SEQUENCE_SPEEDUP`` and
  agreement with the reference loops to 1e-8.  ``cpu_count`` is recorded:
  the batch runs in one process, so the speedup is not a parallel one.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.markov import HiddenSemiMarkovModel

SEQ_LEN = 200
N_STATES = 4
N_SYMBOLS = 10
MAX_DURATION = 10
N_SEQUENCES = 3
EM_ITERATIONS = 2

ARTIFACT = Path(__file__).with_name("BENCH_hsmm_speed.json")

#: The Noisy-OR panel's HSMM member: failure / non-failure models.
PANEL_STATES = (6, 4)
PANEL_MAX_DURATION = 8
PANEL_SYMBOLS = 12
PANEL_SEQUENCES = 300
PANEL_LENGTHS = (50, 90)
#: Sequences also scored by the reference loops (which are slow).
PANEL_REFERENCE_SEQUENCES = 40
MIN_CROSS_SEQUENCE_SPEEDUP = 5.0
REPEATS = 3


def _merge_artifact(sections):
    """Write this test's sections into the artifact, keeping the others'."""
    doc = json.loads(ARTIFACT.read_text()) if ARTIFACT.exists() else {}
    doc.update(sections, cpu_count=os.cpu_count())
    ARTIFACT.write_text(json.dumps(doc, indent=2) + "\n")


def _best_time(fn):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _material():
    rng = np.random.default_rng(42)
    generator = HiddenSemiMarkovModel(
        N_STATES,
        N_SYMBOLS,
        max_duration=MAX_DURATION,
        rng=np.random.default_rng(7),
    )
    return [generator.sample(SEQ_LEN, rng)[1] for _ in range(N_SEQUENCES)]


def _fresh(strategy):
    return HiddenSemiMarkovModel(
        N_STATES,
        N_SYMBOLS,
        max_duration=MAX_DURATION,
        rng=np.random.default_rng(0),
        strategy=strategy,
    )


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


@pytest.mark.slow
def test_bench_hsmm_vectorized_speedup(benchmark):
    sequences = _material()

    def train(strategy):
        model = _fresh(strategy)
        trace = model.fit(
            sequences, max_iter=EM_ITERATIONS, tol=0.0, algorithm="soft"
        )
        return model, trace

    ref_train_s, (ref_model, ref_trace) = _timed(lambda: train("reference"))
    vec_train_s, (vec_model, vec_trace) = _timed(
        lambda: benchmark.pedantic(
            lambda: train("vectorized"), rounds=1, iterations=1
        )
    )
    np.testing.assert_allclose(vec_trace, ref_trace, atol=1e-8)

    ref_score_s, ref_ll = _timed(
        lambda: ref_model.log_likelihood_batch(sequences)
    )
    vec_score_s, vec_ll = _timed(
        lambda: vec_model.log_likelihood_batch(sequences)
    )
    np.testing.assert_allclose(vec_ll, ref_ll, atol=1e-8)

    train_speedup = ref_train_s / vec_train_s
    score_speedup = ref_score_s / vec_score_s

    record = {
        "config": {
            "seq_len": SEQ_LEN,
            "n_states": N_STATES,
            "n_symbols": N_SYMBOLS,
            "max_duration": MAX_DURATION,
            "n_sequences": N_SEQUENCES,
            "em_iterations": EM_ITERATIONS,
            "algorithm": "soft",
        },
        "soft_em": {
            "reference_s": ref_train_s,
            "vectorized_s": vec_train_s,
            "speedup": train_speedup,
        },
        "scoring": {
            "reference_s": ref_score_s,
            "vectorized_s": vec_score_s,
            "speedup": score_speedup,
        },
    }
    _merge_artifact(record)

    print("\n=== HSMM inference-core speedup (T=200, N=4, D=10) ===")
    print(
        f"soft EM : reference {ref_train_s:.3f}s vs vectorized "
        f"{vec_train_s:.3f}s -> {train_speedup:.1f}x"
    )
    print(
        f"scoring : reference {ref_score_s:.3f}s vs vectorized "
        f"{vec_score_s:.3f}s -> {score_speedup:.1f}x"
    )

    # Acceptance criterion: the vectorized soft-EM hot path is at least
    # 5x faster than the loop reference on the stated configuration.
    assert train_speedup >= 5.0


def _panel_material():
    rng = np.random.default_rng(2024)
    generator = HiddenSemiMarkovModel(
        PANEL_STATES[0],
        PANEL_SYMBOLS,
        max_duration=PANEL_MAX_DURATION,
        rng=np.random.default_rng(5),
    )
    low, high = PANEL_LENGTHS
    return [
        generator.sample(int(rng.integers(low, high + 1)), rng)[1]
        for _ in range(PANEL_SEQUENCES)
    ]


@pytest.mark.slow
def test_bench_hsmm_cross_sequence_batch():
    sequences = _panel_material()
    rows = []
    for n_states in PANEL_STATES:
        model = HiddenSemiMarkovModel(
            n_states,
            PANEL_SYMBOLS,
            max_duration=PANEL_MAX_DURATION,
            rng=np.random.default_rng(n_states),
        )
        model.fit(sequences[:20], max_iter=3)
        batch_s, batch = _best_time(lambda m=model: m.log_likelihood_batch(sequences))
        loop_s, loop = _best_time(
            lambda m=model: [m.log_likelihood(seq) for seq in sequences]
        )
        # The padded pass gives every sequence the same operations as
        # scoring it alone: the scores are equal, not merely close.
        assert np.array_equal(batch, loop)
        reference = model.clone()
        reference.strategy = "reference"
        ref_ll = reference.log_likelihood_batch(sequences[:PANEL_REFERENCE_SEQUENCES])
        ref_diff = float(np.max(np.abs(batch[:PANEL_REFERENCE_SEQUENCES] - ref_ll)))
        assert ref_diff <= 1e-8
        rows.append({
            "n_states": n_states,
            "batch_s": batch_s,
            "loop_s": loop_s,
            "speedup": loop_s / batch_s,
            "reference_max_abs_diff": ref_diff,
        })

    lengths = [len(seq) for seq in sequences]
    record = {
        "config": {
            "n_states": list(PANEL_STATES),
            "max_duration": PANEL_MAX_DURATION,
            "n_symbols": PANEL_SYMBOLS,
            "n_sequences": PANEL_SEQUENCES,
            "lengths": [min(lengths), max(lengths)],
            "symbols": sum(lengths),
            "reference_sequences": PANEL_REFERENCE_SEQUENCES,
            "repeats": REPEATS,
        },
        "models": rows,
        "min_speedup": MIN_CROSS_SEQUENCE_SPEEDUP,
    }
    _merge_artifact({"cross_sequence": record})

    print("\n=== HSMM cross-sequence batch vs per-sequence loop ===")
    for row in rows:
        print(
            f"N={row['n_states']}: batch {row['batch_s']:.3f}s vs loop "
            f"{row['loop_s']:.3f}s -> {row['speedup']:.1f}x"
        )
    for row in rows:
        assert row["speedup"] >= MIN_CROSS_SEQUENCE_SPEEDUP, (
            f"{row['n_states']}-state batch only {row['speedup']:.1f}x the loop"
        )
