# %% [markdown]
# # Verifying the hand-written backward passes
# Every gradient in the stack (input encoding, both LSTM directions,
# pooling, the shared ranking branches, the output projection) is written
# by hand, so each tensor is checked against central finite differences.

# %%
import roadrank as rr
from roadrank.model import PairScorer, apply_ablation
from roadrank.training import gradient_check, make_pairs

net = rr.synth_grid_network(rows=2, cols=3, seed=3)
abar = rr.normalized_views(net)
samples = rr.sample_walks(net, abar, rr.WalkConfig(alpha=0.5, num=3, length=4, seed=11))
scores = rr.generate_ground_truth(net, rr.CascadeConfig())

embed = rr.EmbedParams.init(net.m, x=8, dim=2, seed=5)
ranker = rr.RankerParams.init(embed.hdim, seed=6)
scorer = PairScorer(net, samples, embed, ranker, apply_ablation("full"))

pi, pj, labels = make_pairs(range(net.n), scores).T
print(f"checking {sum(t.size for t in scorer.tensors().values())} parameters "
      f"over {pi.size} pairs...")

# %%
report = gradient_check(scorer, pi, pj, labels)
widest = max(len(k) for k in report.per_tensor)
for name in sorted(report.per_tensor, key=report.per_tensor.get, reverse=True)[:8]:
    print(f"  {name:<{widest}}  {report.per_tensor[name]:.3e}")
print(f"worst relative error: {report.worst:.3e}  (tolerance 1e-4)")
assert report.worst < 1e-4

# %% [markdown]
# The same check is available from the command line:
# `roadrank gradcheck --seed 1 --out gradcheck.txt`.
