"""roadrank: node-importance ranking for directed, attributed road
networks.

The pipeline: sample biased walks over the fused adjacency + attribute
graph, encode them with a bidirectional LSTM into node embeddings, score
node pairs with a weight-shared ranking head, and totalize the pairwise
ratings into a descending importance list.  Ground truth comes from a
deterministic congestion-cascade simulator (or an imported score file),
and degree / betweenness / PageRank baselines share the same evaluation
metrics.
"""

__version__ = "0.1.0"

from .alias import AliasTable, alias_draw, build_alias
from .baselines import betweenness_centrality, degree_centrality, pagerank
from .cascade import (CascadeConfig, ImportanceScores, assign_baseline_state,
                      cascade_failure, generate_ground_truth, import_scores,
                      importance_score, save_scores)
from .checkpoint import load_checkpoint, save_checkpoint
from .encoder import EmbedParams, LSTMCellParams, minmax_scale_columns
from .graph import (RoadNetwork, ValidationError, load_network, load_network_dir,
                    normalized_views, save_network)
from .metrics import (MetricReport, diff_metric, labelled_pairs, micro_macro_f1,
                      report_for_ranking)
from .model import PairScorer, PipelineVariant, apply_ablation
from .ranker import RankerParams, RankingResult, bce_loss, rank_blocks, rank_from_matrix
from .synth import synth_grid_network
from .training import (Adam, GradientCheckReport, SplitAssignment, TrainConfig,
                       TrainResult, gradient_check, make_pairs,
                       stratified_split, train_model)
from .walks import (SampleSet, WalkConfig, attr_to_node_distribution,
                    load_samples, node_step_distribution,
                    node_to_attr_distribution, sample_walks, save_samples)

__all__ = [name for name in dir() if not name.startswith("_")]
