# %% [markdown]
# # Training the pairwise ranker end to end
# A full run of the pipeline on a 25-segment grid: sample walks, train the
# encoder + ranking head on pair labels, totalize ratings into a ranking,
# and compare against classic centrality baselines.  Takes 10-20 s on a
# 2-vCPU VM at the reference settings (100 epochs, 150 walks per node).

# %%
import roadrank as rr
from roadrank.metrics import labelled_pairs, micro_macro_f1, report_for_ranking
from roadrank.model import PairScorer, apply_ablation

net = rr.synth_grid_network(rows=5, cols=5, seed=0)
abar = rr.normalized_views(net)
samples = rr.sample_walks(net, abar, rr.WalkConfig(alpha=0.0001, num=150, length=4, seed=0))
scores = rr.generate_ground_truth(net, rr.CascadeConfig())
print(f"{net.n} segments; score range {scores.aff.min():.2f}..{scores.aff.max():.2f}")

# %%
cfg = rr.TrainConfig(seed=0)
splits = rr.stratified_split(scores, cfg)
print(f"split sizes: train {len(splits.train)}, val {len(splits.val)}, test {len(splits.test)}")
result = rr.train_model(net, samples, scores, splits, cfg)
print(f"train loss {result.history[0]['train_loss']:.4f} -> "
      f"{result.history[-1]['train_loss']:.4f}")
print(f"best val micro-F1 {result.best_val_micro:.4f} at epoch {result.best_epoch}")

# %% [markdown]
# ## Rank the validation nodes and score the list

# %%
scorer = PairScorer(net, samples, result.embed, result.ranker, apply_ablation("full"))
val_nodes = list(splits.val)
ranking = rr.rank_blocks(val_nodes, scorer.rating_blocks(val_nodes))
print("predicted order:", ranking.order)
report = report_for_ranking(ranking.order, scores.aff)
print(f"micro-F1 {report.micro_f1:.4f}  macro-F1 {report.macro_f1:.4f}  "
      f"rank displacement {report.diff:.4f}")

# %% [markdown]
# ## Baselines on the same pairs

# %%
_, _, truth = labelled_pairs(val_nodes, scores.aff)
for name, vector in (("degree", rr.degree_centrality(net)),
                     ("betweenness", rr.betweenness_centrality(net)),
                     ("pagerank", rr.pagerank(net))):
    _, _, predicted = labelled_pairs(val_nodes, vector)
    micro, macro = micro_macro_f1(predicted, truth)
    print(f"{name:>12}: micro-F1 {micro:.4f}  macro-F1 {macro:.4f}")

# %% [markdown]
# ## Ablation variants
# NoMG samples plain random walks, NoBiLSTM pools raw encodings, NoEmb
# ranks the scaled attribute rows directly.

# %%
for mode in ("NoMG", "NoBiLSTM", "NoEmb"):
    acfg = rr.TrainConfig(seed=0, ablation=mode)
    variant = apply_ablation(mode)
    if variant.use_embedding and variant.sample_alpha is not None:
        asamples = rr.sample_walks(net, abar,
                                   rr.WalkConfig(variant.sample_alpha, 150, 4, 0))
    elif variant.use_embedding:
        asamples = samples
    else:
        asamples = None
    ares = rr.train_model(net, asamples, scores, splits, acfg)
    print(f"{mode:>9}: best val micro-F1 {ares.best_val_micro:.4f}")
