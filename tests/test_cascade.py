import dataclasses
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from roadrank import cascade
from roadrank.cascade import (CascadeConfig, ImportanceScores,
                              assign_baseline_state, cascade_failure,
                              generate_ground_truth, import_scores,
                              importance_score, save_scores)
from roadrank.graph import RoadNetwork, ValidationError
from roadrank.synth import synth_grid_network

ATTRS = ("limiv", "nlan", "len", "vol", "avgv")


def make_net(edges, limiv, nlan, vol):
    n = len(limiv)
    # keep out-degree >= 1 the way the loader would
    sinks = sorted(set(range(n)) - {i for i, _ in edges})
    src, dst = np.array(list(edges) + [(i, i) for i in sinks], dtype=np.int64).T
    A = np.column_stack([
        np.asarray(limiv, float),
        np.asarray(nlan, float),
        np.full(n, 100.0),
        np.asarray(vol, float),
        np.asarray(limiv, float) * 0.8,
    ])
    return RoadNetwork(n=n, m=5, src=src, dst=dst, A=A, attr_names=ATTRS)


def reference_cascade(net, target, cfg, demands=None):
    """Independent plain-loop re-simulation of the documented rules.

    ``target=None`` runs the network with no failure.  Each period's
    demands are appended to ``demands`` when it is a list."""
    limiv = [float(net.A[i, 0]) for i in range(net.n)]
    cap = [float(net.A[i, 1] * net.A[i, 0] * cfg.kappa) for i in range(net.n)]
    dem = [float(net.A[i, 3] / cfg.observation_window) for i in range(net.n)]
    if target is not None:
        cap[target] *= cfg.capacity_reduction
    edges = set(zip(net.src.tolist(), net.dst.tolist()))
    failed = {}
    counts = []
    for t in range(1, cfg.periods + 1):
        if t > 1:
            inc = [0.0] * net.n
            for s in range(net.n):
                unmet = dem[s] - cap[s]
                if unmet <= 0:
                    continue
                ups = [u for u in range(net.n) if (u, s) in edges and u != s]
                if not ups:
                    continue
                total = sum(dem[u] for u in ups)
                for u in ups:
                    share = dem[u] / total if total > 0 else 1.0 / len(ups)
                    inc[u] += cfg.spillback_rate * unmet * share
            dem = [d + i for d, i in zip(dem, inc)]
        if demands is not None:
            demands.append(dem)
        new = 0
        for i in range(net.n):
            speed = limiv[i] if dem[i] <= cap[i] or dem[i] == 0 else limiv[i] * cap[i] / dem[i]
            if speed < cfg.failure_speed_fraction * limiv[i] and i not in failed:
                failed[i] = t
                new += 1
        counts.append(new)
    return counts, failed


# kappa scales capacity and observation_window demand; scaling both alike
# would change no count
SCALED = ({}, {"kappa": 0.5}, {"observation_window": 2.0})


def assert_matches_reference(net, cfg):
    """cascade_failure and generate_ground_truth equal the reference for
    every target, under ``cfg`` and under ``cfg`` with each of ``SCALED``;
    returns the number of failures over all of them."""
    failures = 0
    for scaled in SCALED:
        c = dataclasses.replace(cfg, **scaled)
        scores = generate_ground_truth(net, c)
        for target in range(net.n):
            ref_counts, _ = reference_cascade(net, target, c)
            npt.assert_array_equal(cascade_failure(net, target, c), ref_counts)
            assert scores.aff[target] == importance_score(ref_counts, c.gamma)
            assert sum(ref_counts) <= net.n  # nothing fails twice
            failures += sum(ref_counts)
    return failures


def test_baseline_state_free_flow():
    net = make_net([(0, 1), (1, 0)], limiv=[60, 40], nlan=[2, 1], vol=[0, 0])
    state = assign_baseline_state(net)
    npt.assert_allclose(state.speed, [60.0, 40.0])
    npt.assert_allclose(state.capacity, [120.0, 40.0])


def test_baseline_state_overload_halves_speed():
    net = make_net([(0, 1), (1, 0)], limiv=[60, 40], nlan=[2, 1], vol=[240, 10])
    state = assign_baseline_state(net)
    assert state.speed[0] == pytest.approx(30.0)  # demand = 2 x capacity
    assert state.speed[1] == pytest.approx(40.0)


def test_baseline_state_kappa():
    net = make_net([(0, 1), (1, 0)], limiv=[60, 60], nlan=[2, 2], vol=[0, 0])
    state = assign_baseline_state(net, kappa=0.5)
    npt.assert_allclose(state.capacity, [60.0, 60.0])  # 2 lanes x 60 x 0.5


def test_baseline_state_requires_attributes():
    net = synth_grid_network(2, 2, seed=0)
    bad = dataclasses.replace(net, attr_names=("a", "b", "c", "d", "e"))
    with pytest.raises(ValidationError, match="limiv"):
        assign_baseline_state(bad)


def test_failure_threshold_boundary():
    # an isolated segment with demand equal to capacity: the reduced speed
    # lands exactly on the threshold and the strict comparison keeps it
    # alive; nudging demand to 1.01 x capacity fails it in period 1
    net = make_net([], limiv=[100], nlan=[2], vol=[200])
    cfg = CascadeConfig()
    counts = cascade_failure(net, 0, cfg)
    assert counts.sum() == 0

    over = make_net([], limiv=[100], nlan=[2], vol=[202])
    counts = cascade_failure(over, 0, cfg)
    assert counts[0] == 1
    assert counts.sum() == 1


def test_zero_demand_target_never_fails():
    net = make_net([(0, 1), (1, 0)], limiv=[50, 50], nlan=[1, 1], vol=[0, 0])
    counts = cascade_failure(net, 0, CascadeConfig())
    npt.assert_array_equal(counts, np.zeros(10, dtype=np.int64))


def test_free_flow_invariance():
    # demand stays below even the reduced capacity, so nothing congests,
    # nothing spills back, and no period records a failure
    net = make_net([(0, 1), (1, 2), (2, 0)], limiv=[50, 50, 50], nlan=[2, 2, 2],
                   vol=[9, 8, 7])  # reduced capacity is 10
    for target in range(3):
        counts = cascade_failure(net, target, CascadeConfig())
        assert counts.sum() == 0


def test_target_demand_monotonicity():
    # with a stable baseline (demand <= capacity everywhere), raising the
    # target's own demand never lowers its score; verified against the
    # reference re-simulation at every demand level
    rng = np.random.default_rng(31)
    cfg = CascadeConfig(spillback_rate=0.8, failure_speed_fraction=0.4)
    for _ in range(5):
        n = int(rng.integers(3, 7))
        edges = [(i, j) for i in range(n) for j in range(n)
                 if i != j and rng.random() < 0.5]
        limiv = rng.choice([30, 50], size=n)
        nlan = rng.integers(1, 4, size=n)
        cap = limiv * nlan
        base_vol = rng.uniform(0.3, 1.0, size=n) * cap
        target = int(rng.integers(0, n))
        prev = -1.0
        for scale in (0.2, 0.5, 0.8, 1.0, 1.5, 2.5):
            vol = base_vol.copy()
            vol[target] = scale * cap[target]
            net = make_net(edges, limiv=limiv, nlan=nlan, vol=vol)
            counts = cascade_failure(net, target, cfg)
            ref_counts, _ = reference_cascade(net, target, cfg)
            npt.assert_array_equal(counts, ref_counts)
            aff = importance_score(counts, cfg.gamma)
            assert aff >= prev - 1e-12
            prev = aff


def test_chain_propagates_upstream_strictly_later():
    # a(0) -> b(1) -> c(2); failing c must reach b before a
    net = make_net([(0, 1), (1, 2)], limiv=[10, 10, 10], nlan=[3, 1, 1],
                   vol=[2, 10, 50])
    cfg = CascadeConfig(spillback_rate=0.9)
    counts = cascade_failure(net, 2, cfg)
    ref_counts, ref_failed = reference_cascade(net, 2, cfg)
    npt.assert_array_equal(counts, ref_counts)
    assert 2 in ref_failed and 1 in ref_failed and 0 in ref_failed
    assert ref_failed[2] < ref_failed[1] < ref_failed[0]


def test_failure_earlier_than_the_free_run_counts_once():
    # a(0) -> b(1) -> c(2) with c over capacity: with no failure the
    # spillback fails b in period 4 and a in period 7.  Failing c fails them
    # in periods 2 and 5, so the free run's own later failures of a and b
    # must not be counted again.
    net = make_net([(0, 1), (1, 2)], limiv=[10, 10, 10], nlan=[3, 1, 1], vol=[2, 10, 15])
    cfg = CascadeConfig(spillback_rate=0.9, failure_speed_fraction=0.5)
    _, free_failed = reference_cascade(net, None, cfg)
    ref_counts, ref_failed = reference_cascade(net, 2, cfg)
    assert free_failed == {1: 4, 0: 7}
    assert ref_failed == {2: 1, 1: 2, 0: 5}
    npt.assert_array_equal(cascade_failure(net, 2, cfg), ref_counts)
    scores = generate_ground_truth(net, cfg)
    for target in range(net.n):
        ref_counts, _ = reference_cascade(net, target, cfg)
        assert scores.aff[target] == importance_score(ref_counts, cfg.gamma)


def test_change_set_over_the_whole_network_matches_reference():
    # over 40 periods some failure moves the demand of every segment of a
    # 6x6 grid away from the run with no failure
    net = synth_grid_network(6, 6, seed=1)
    cfg = CascadeConfig(periods=40)
    free = []
    reference_cascade(net, None, cfg, demands=free)
    scores = generate_ground_truth(net, cfg)
    reached = 0
    for target in range(net.n):
        demands = []
        ref_counts, _ = reference_cascade(net, target, cfg, demands=demands)
        npt.assert_array_equal(cascade_failure(net, target, cfg), ref_counts)
        assert scores.aff[target] == importance_score(ref_counts, cfg.gamma)
        reached = max(reached, *(sum(a != b for a, b in zip(dem, base))
                                 for dem, base in zip(demands, free)))
    assert reached == net.n


def test_ground_truth_on_a_60x60_grid_allocates_no_n_by_n_array():
    # one 3600 x 3600 float64 array would take 99 MB
    net = synth_grid_network(60, 60, seed=2)
    tracemalloc.start()
    try:
        generate_ground_truth(net, CascadeConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_cascade_matches_reference_on_random_networks():
    rng = np.random.default_rng(21)
    for trial in range(8):
        n = int(rng.integers(3, 8))
        edges = [(i, j) for i in range(n) for j in range(n)
                 if i != j and rng.random() < 0.4]
        net = make_net(edges,
                       limiv=rng.choice([30, 50, 80], size=n),
                       nlan=rng.integers(1, 4, size=n),
                       vol=rng.uniform(0, 300, size=n))
        assert_matches_reference(net, CascadeConfig(spillback_rate=0.7, periods=6))


def test_cascade_matches_reference_with_a_high_in_degree_hub():
    # a hub fed by 8..12 segments: its upstream demand total is a sum of
    # at least 8 terms, which a pairwise summation would round differently
    # from the reference's running sum
    rng = np.random.default_rng(22)
    cfg = CascadeConfig(spillback_rate=0.7, failure_speed_fraction=0.3, periods=6)
    for trial in range(6):
        n = int(rng.integers(10, 15))
        feeders = rng.permutation(np.arange(1, n))[:int(rng.integers(8, n))]
        edges = {(int(u), 0) for u in feeders}
        edges |= {(i, j) for i in range(n) for j in range(n)
                  if i != j and rng.random() < 0.15}
        net = make_net(sorted(edges),
                       limiv=rng.choice([30, 50, 80], size=n),
                       nlan=rng.integers(1, 4, size=n),
                       vol=rng.uniform(0, 300, size=n) * 10.0 ** rng.uniform(-2, 1, size=n))
        assert int(((net.src > 0) & (net.dst == 0)).sum()) >= 8
        assert_matches_reference(net, cfg)


def test_cascade_matches_reference_with_explicit_self_loops():
    # the loader keeps an edge (i, i) on a node that has other out-edges;
    # spillback passes over it like over a sink's added loop
    rng = np.random.default_rng(23)
    cfg = CascadeConfig(spillback_rate=0.7, periods=6)
    loops = failures = 0
    for trial in range(12):
        n = int(rng.integers(4, 9))
        edges = [(i, j) for i in range(n) for j in range(n)
                 if rng.random() < (0.5 if i == j else 0.35)]
        loops += sum(i == j and any(s == i != d for s, d in edges) for i, j in edges)
        net = make_net(edges,
                       limiv=rng.choice([30, 50, 80], size=n),
                       nlan=rng.integers(1, 4, size=n),
                       vol=rng.uniform(0, 300, size=n))
        failures += assert_matches_reference(net, cfg)
    assert loops >= 20 and failures > 0


def test_ground_truth_over_several_blocks_matches_reference(monkeypatch):
    # 81 targets in blocks of 7 (the last one short) must score exactly as
    # one reference simulation per target
    net = synth_grid_network(9, 9, seed=4)
    monkeypatch.setattr(cascade, "_BLOCK_ELEMENTS", 7 * net.in_src.size)
    cfg = CascadeConfig()
    scores = generate_ground_truth(net, cfg)
    assert (scores.aff > 0).sum() > net.n // 2
    for target in range(net.n):
        ref_counts, _ = reference_cascade(net, target, cfg)
        assert scores.aff[target] == importance_score(ref_counts, cfg.gamma)


def test_cascade_unknown_target():
    net = make_net([(0, 1), (1, 0)], limiv=[50, 50], nlan=[1, 1], vol=[1, 1])
    with pytest.raises(ValidationError, match="target"):
        cascade_failure(net, 5, CascadeConfig())


def test_importance_score_hand_value():
    assert importance_score([2, 1], 0.9) == pytest.approx(2.61, abs=1e-12)
    assert importance_score([0, 0, 0], 0.9) == 0.0


def test_importance_score_linearity_and_decay():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 5, size=6)
    b = rng.integers(0, 5, size=6)
    s = importance_score
    assert s(a + b, 0.8) == pytest.approx(s(a, 0.8) + s(b, 0.8), abs=1e-12)
    # one failure in a later period is always worth less
    for t in range(5):
        early = np.zeros(6, dtype=int)
        late = np.zeros(6, dtype=int)
        early[t] = 1
        late[t + 1] = 1
        assert s(early, 0.9) > s(late, 0.9)


def test_ground_truth_star_hub_dominates():
    # five feeders into one saturated collector hub (node 0); the baseline
    # is stable because feeder overloads have no upstream to spill into.
    # Killing the hub floods every feeder; killing a feeder only loses that
    # feeder, so the hub's score is the maximum.
    edges = [(i, 0) for i in range(1, 6)]
    net = make_net(edges, limiv=[10] * 6, nlan=[3, 1, 1, 1, 1, 1],
                   vol=[30, 10.5, 10.5, 10.5, 10.5, 10.5])
    cfg = CascadeConfig(spillback_rate=0.9, failure_speed_fraction=0.5)
    scores = generate_ground_truth(net, cfg)
    for target in range(6):
        ref_counts, _ = reference_cascade(net, target, cfg)
        assert scores.aff[target] == pytest.approx(
            importance_score(ref_counts, cfg.gamma), abs=1e-12)
    assert scores.aff.argmax() == 0
    assert scores.aff[0] > 2 * scores.aff[1]
    assert scores.provenance == "simulated"


def test_ground_truth_zero_demand_network():
    net = make_net([(0, 1), (1, 0)], limiv=[50, 50], nlan=[1, 1], vol=[0, 0])
    scores = generate_ground_truth(net, CascadeConfig())
    npt.assert_array_equal(scores.aff, [0.0, 0.0])


def test_ground_truth_deterministic():
    net = synth_grid_network(3, 3, seed=14)
    a = generate_ground_truth(net, CascadeConfig())
    b = generate_ground_truth(net, CascadeConfig())
    npt.assert_array_equal(a.aff, b.aff)


def test_scores_roundtrip(tmp_path):
    net = synth_grid_network(2, 3, seed=5)
    scores = generate_ground_truth(net, CascadeConfig())
    path = tmp_path / "scores.csv"
    save_scores(scores, path)
    back = import_scores(path)
    npt.assert_array_equal(back.aff, scores.aff)
    assert back.provenance == "imported"


def test_import_scores_missing_node(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("node_id,aff\n0,1.0\n1,2.0\n3,0.5\n")
    with pytest.raises(ValidationError, match="node 2"):
        import_scores(path, n=4)


def test_import_scores_negative(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("node_id,aff\n0,1.0\n1,-2.0\n")
    with pytest.raises(ValidationError, match="negative"):
        import_scores(path)


def test_import_scores_skips_whitespace_lines(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("node_id,aff\n0,1.0\n   \n1,2.0\n \t \n")
    npt.assert_array_equal(import_scores(path, n=2).aff, [1.0, 2.0])


def test_config_validation():
    with pytest.raises(ValidationError):
        CascadeConfig(gamma=0.0)
    with pytest.raises(ValidationError):
        CascadeConfig(capacity_reduction=1.0)
    with pytest.raises(ValidationError):
        CascadeConfig(periods=0)
    with pytest.raises(ValidationError):
        ImportanceScores(aff=np.array([-1.0]), gamma=0.9, periods=10, provenance="simulated")
