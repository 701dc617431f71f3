# %% [markdown]
# # Ground truth from congestion cascades
# Every segment is failed once by slashing its capacity; congestion then
# spills back upstream period by period, and the decayed count of newly
# failed segments becomes that segment's importance score.

# %%
import numpy as np

import roadrank as rr

net = rr.synth_grid_network(rows=5, cols=5, seed=3)
cfg = rr.CascadeConfig()  # 10% capacity kept, 10% speed threshold, gamma 0.9, 10 periods
state = rr.assign_baseline_state(net)
print("capacity (lanes x limit):", np.round(state.capacity[:6], 1))
print("demand   (volume/window):", np.round(state.demand[:6], 1))
print("baseline speed:          ", np.round(state.speed[:6], 1))

# %% [markdown]
# ## One cascade, period by period

# %%
target = int(state.demand.argmax())
counts = rr.cascade_failure(net, target, cfg)
print(f"failing segment {target}: newly failed per period {counts.tolist()}")
print(f"decayed score: {rr.importance_score(counts, cfg.gamma):.4f}")
print("(a failure in period t is worth gamma^t, so early damage dominates)")

# %% [markdown]
# ## Scores for the whole network

# %%
scores = rr.generate_ground_truth(net, cfg)
order = np.argsort(-scores.aff)
print("most important segments:", order[:5].tolist())
print("their scores:           ", np.round(scores.aff[order[:5]], 3))
print("zero-impact segments:   ", int((scores.aff == 0).sum()), "of", net.n)

# %% [markdown]
# ## Round-trip through the scores CSV
# Externally produced scores (for example from a microscopic simulator)
# are imported through the same file format.

# %%
import tempfile
from pathlib import Path

path = Path(tempfile.mkdtemp()) / "scores.csv"
rr.save_scores(scores, path)
back = rr.import_scores(path)
print("round-trip exact:", np.array_equal(back.aff, scores.aff),
      "| provenance:", back.provenance)
