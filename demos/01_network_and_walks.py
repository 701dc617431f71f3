# %% [markdown]
# # Road networks and fused-walk sampling
# Build a synthetic grid network, look at the adjacency and the normalized
# attribute view that drive sampling, and compare walk sequences across
# bias settings.

# %%
import numpy as np

import roadrank as rr

net = rr.synth_grid_network(rows=4, cols=5, seed=7)
print(f"network: {net.n} segments, {net.src.size} directed edges, "
      f"{net.m} attributes {net.attr_names}")
print("attribute rows (first 3):")
print(np.round(net.A[:3], 2))

# %% [markdown]
# ## Adjacency and attribute view
# An adjacency step from segment i is uniform over its out-neighbours, read
# from the network's own CSR; `normalized_views` returns the attribute view
# `abar`, whose row k is attribute k's share across segments.

# %%
abar = rr.normalized_views(net)
print("out-neighbours of segment 0:       ",
      net.out_idx[net.out_ptr[0]:net.out_ptr[1]])
print("attribute view row sums (all 1):   ", abar.sum(axis=1))
print("\nstep distribution from segment 0:",
      np.round(rr.node_step_distribution(0, net), 3)[:8])
print("attribute choice at segment 0:    ",
      np.round(rr.node_to_attr_distribution(0, abar), 3))
print("landing distribution via attribute 'vol' from segment 0 (first 8):")
print(np.round(rr.attr_to_node_distribution(0, 3, abar), 3)[:8])

# %% [markdown]
# ## The alias table behind the attribute choice
# Each segment's attribute distribution is compiled once into a
# constant-time sampler; the table reconstructs its input exactly. Edge
# steps read the CSR directly, and landings are drawn by rejection from the
# attribute's support, so neither needs a table.

# %%
p = rr.node_to_attr_distribution(0, abar)
table = rr.build_alias(p)
from roadrank.alias import reconstruct

print("alias reconstruction error:", np.abs(reconstruct(table) - p).max())

# %% [markdown]
# ## Walks under different bias settings
# alpha = 1 walks purely on edges; alpha near 0 alternates segment ->
# attribute -> similar segment. Attribute vertices print as a<k>.

# %%
def pretty(seq):
    return " -> ".join(f"a{v - net.n}" if v >= net.n else str(v) for v in seq)

for alpha in (1.0, 0.5, 0.0001):
    samples = rr.sample_walks(net, abar, rr.WalkConfig(alpha, num=3, length=6, seed=11))
    print(f"\nalpha = {alpha}: three walks from segment 0")
    for walk in samples.sequences[0]:
        print("  ", pretty(walk))

# %% [markdown]
# Sampling is reproducible: the same seed yields identical sequences.

# %%
again = rr.sample_walks(net, abar, rr.WalkConfig(0.5, num=3, length=6, seed=11))
base = rr.sample_walks(net, abar, rr.WalkConfig(0.5, num=3, length=6, seed=11))
print("bit-identical resample:", np.array_equal(again.sequences, base.sequences))
