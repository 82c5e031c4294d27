"""How the learned interdependency graphs move when couplings rewire.

Scores every test window of a shifted synthetic run, compares the average
attention adjacency the windows inside the anomalous interval were scored
with against the normal one, and exports the per-window adjacency series to
CSV (the file format downstream plotting reads).
"""

import numpy as np

from tsgad.dataio import split_normalize, synth_generate
from tsgad.graph import adjacency_export
from tsgad.train import TrainConfig, score, train

SEED = 7

dataset = synth_generate(
    5, 2000, [("interdependency_shift", 1400, 1520), ("spike", 1650, 1710)],
    seed=SEED, noise=0.05,
)
train_ds, test_ds = split_normalize(dataset, 0.6)
config = TrainConfig(window=40, stride=10, batch_size=16, epochs=10, seed=SEED,
                     learning_rate=0.01, encoder_out_scale=8.0)
report = score(test_ds, train(train_ds, config).checkpoint)
mats, starts, labels = report.adjacency, report.window_starts, report.labels

normal = mats[labels == 0]
anomalous = mats[labels == 1]
gap_anom = np.abs(anomalous.mean(axis=0) - normal.mean(axis=0)).mean()
gap_normal = np.abs(normal[0::2].mean(axis=0) - normal[1::2].mean(axis=0)).mean()
print(f"mean |adjacency| gap, anomalous vs normal : {gap_anom:.5f}")
print(f"mean |adjacency| gap, two normal halves   : {gap_normal:.5f}")
print(f"visibility ratio                          : {gap_anom / gap_normal:.1f}x")

print("\naverage normal-window graph (rows are attention distributions):")
print(np.array_str(normal.mean(axis=0), precision=2, suppress_small=True))
print("\naverage anomalous-window graph:")
print(np.array_str(anomalous.mean(axis=0), precision=2, suppress_small=True))

out = "adjacency_series.csv"
adjacency_export(starts, mats, out)
print(f"\nwrote per-window adjacency entries to {out} "
      f"({len(mats)} windows x {mats.shape[1]}x{mats.shape[2]} entries)")
