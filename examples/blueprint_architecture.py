"""The architectural blueprint (paper Sect. 6, Fig. 11).

Separate failure predictors per system layer -- an OS-level predictor
watching memory/swap, an application-level predictor watching latency and
errors -- combined by stacked generalization into one system-level
failure-proneness score for the cross-layer Act component.

Run:  python examples/blueprint_architecture.py    (takes about 10 s)
"""

import zlib

import numpy as np

from repro.core import BlueprintArchitecture, Layer, LayerPredictor
from repro.prediction.baselines import MSETPredictor
from repro.prediction.evaluation import chronological_split
from repro.prediction.metrics import auc
from repro.telecom import DatasetConfig, generate_dataset

DAY = 86_400.0

#: Variable groups per architectural layer (Fig. 11).
LAYER_VARIABLES = {
    Layer.OS: ["memory_free_mb", "swap_activity", "cpu_utilization"],
    Layer.MIDDLEWARE: ["db_utilization", "max_stretch"],
    Layer.APPLICATION: ["response_time_ms", "error_rate", "violation_prob"],
}


def main() -> None:
    print("Simulating 5 days of SCP operation...")
    dataset = generate_dataset(DatasetConfig(horizon=5 * DAY, seed=13))
    variables = [v for group in LAYER_VARIABLES.values() for v in group]
    grid, x, y_avail, y_fail = dataset.ubf_samples(variables=variables)
    train, test = chronological_split(grid, fraction=0.6)

    print("Building per-layer predictors + stacking combiner...")
    offset = 0
    layers = []
    for layer, group in LAYER_VARIABLES.items():
        indices = list(range(offset, offset + len(group)))
        offset += len(group)
        layers.append(
            LayerPredictor(
                layer=layer,
                predictor=MSETPredictor(
                    n_exemplars=24,
                    rng=np.random.default_rng(zlib.crc32(layer.value.encode())),
                ),
                variable_indices=indices,
            )
        )
    blueprint = BlueprintArchitecture(layers)
    blueprint.fit(x[train], y_avail[train], y_fail[train])

    print("\n=== Per-layer vs fused prediction quality (test period) ===")
    layer_scores = blueprint.layer_scores(x[test])
    weights = blueprint.layer_report()
    for i, layer in enumerate(LAYER_VARIABLES):
        layer_auc = auc(layer_scores[:, i], y_fail[test])
        print(f"  {layer.value:<12s} AUC = {layer_auc:.3f}  "
              f"weight = {weights[layer.value]:+.2f}  "
              f"(variables: {LAYER_VARIABLES[layer]})")
    fused_auc = auc(blueprint.score_samples(x[test]), y_fail[test])
    print(f"  {'stacked':<12s} AUC = {fused_auc:.3f}")
    print("\nEach weight is the layer's standardized level-1 coefficient, fitted")
    print("on the training holdout; it need not follow the layer's test AUC.")


if __name__ == "__main__":
    main()
