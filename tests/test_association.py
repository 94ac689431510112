import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mapfuse.association import ClusterConfig, cluster_detections
from mapfuse.geometry import ObjectState
from oracles import ORACLE_MAX_POINTS, cluster_brute_force_oracle


def det(veh, idx, x, y):
    return (veh, idx, ObjectState(0, (x, y, 0.75), (4, 2, 1.5), 0.0))


def random_instance(rng, n_max=50):
    n = int(rng.integers(1, n_max + 1))
    dets = []
    counters = {}
    for _ in range(n):
        veh = int(rng.integers(0, 5))
        idx = counters.get(veh, 0)
        counters[veh] = idx + 1
        x, y = rng.uniform(-20, 20, 2)
        dets.append(det(veh, idx, x, y))
    return dets


def partition_signature(dets, result):
    """Map each detection key to its cluster, for comparing partitions."""
    num_objects, labels = result
    return num_objects, {
        (veh, idx): label for (veh, idx, _), label in zip(dets, labels)
    }


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(eps=0.0)


def test_boundary_inclusive():
    cfg = ClusterConfig(eps=2.0)
    m, _ = cluster_detections([det(0, 0, 0, 0), det(1, 0, 2.0, 0)], cfg)
    assert m == 1
    m, _ = cluster_detections([det(0, 0, 0, 0), det(1, 0, 2.0001, 0)], cfg)
    assert m == 2


def test_chain_merging():
    # 0 -- 1.5 -- 3.0: transitively one cluster at eps=2.
    dets = [det(0, 0, 0, 0), det(0, 1, 1.5, 0), det(1, 0, 3.0, 0)]
    m, _ = cluster_detections(dets, ClusterConfig(eps=2.0))
    assert m == 1


def test_clusters_numbered_by_smallest_key():
    dets = [det(1, 1, 10.5, 0), det(0, 0, 10, 0), det(1, 0, -10, 0)]
    m, labels = cluster_detections(dets, ClusterConfig(eps=2.0))
    assert m == 2
    # Cluster 0 is the one containing the smallest key (vehicle 0, det 0);
    # labels follow the input order.
    assert labels == [0, 0, 1]


def test_empty_input():
    assert cluster_detections([], ClusterConfig()) == (0, [])


def test_oracle_cap():
    dets = [det(0, i, i * 10.0, 0) for i in range(ORACLE_MAX_POINTS + 1)]
    with pytest.raises(ValueError):
        cluster_brute_force_oracle(dets, ClusterConfig())


def test_matches_oracle_on_random_instances():
    rng = np.random.default_rng(5)
    cfg = ClusterConfig(eps=2.0)
    for _ in range(100):
        dets = random_instance(rng)
        got = partition_signature(dets, cluster_detections(dets, cfg))
        want = partition_signature(dets, cluster_brute_force_oracle(dets, cfg))
        assert got == want


def test_permutation_invariance():
    rng = np.random.default_rng(9)
    cfg = ClusterConfig(eps=2.0)
    dets = random_instance(rng)
    base = partition_signature(dets, cluster_detections(dets, cfg))
    for _ in range(5):
        perm = list(dets)
        rng.shuffle(perm)
        assert partition_signature(perm, cluster_detections(perm, cfg)) == base


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_every_detection_lands_in_exactly_one_cluster(seed):
    rng = np.random.default_rng(seed)
    dets = random_instance(rng, n_max=30)
    m, labels = cluster_detections(dets, ClusterConfig(eps=2.0))
    assert len(labels) == len(dets)
    # every label names a cluster, and every cluster is non-empty
    assert sorted(set(labels)) == list(range(m))


def shuffled_keys(rng, n):
    """n distinct (vehicle_id, index) keys in random order."""
    keys = [(veh, idx) for veh in range(5) for idx in range(n)]
    return [keys[i] for i in rng.permutation(len(keys))[:n]]


def test_matches_oracle_on_a_shuffled_chain():
    # Neighbours 1.9 m apart link 200 points into one chain whose ranks
    # are in random order: the longest walk a smallest rank can take.
    rng = np.random.default_rng(3)
    keys = shuffled_keys(rng, ORACLE_MAX_POINTS)
    dets = [det(veh, idx, 1.9 * k, 0.0) for k, (veh, idx) in enumerate(keys)]
    cfg = ClusterConfig(eps=2.0)
    # A gap of 2.1 m splits the chain in two.
    split = [d if k < 120 else det(d[0], d[1], 1.9 * k + 0.2, 0.0)
             for k, d in enumerate(dets)]
    for case in (dets, split, dets[::-1]):
        assert cluster_detections(case, cfg) == cluster_brute_force_oracle(
            case, cfg)
    assert cluster_detections(split, cfg)[0] == 2


def test_matches_oracle_on_a_star():
    # 199 points on a 1.9 m circle around a hub that has the largest key:
    # rim points across the circle are linked only through the hub.
    rng = np.random.default_rng(4)
    keys = sorted(shuffled_keys(rng, ORACLE_MAX_POINTS))
    angles = rng.permutation(ORACLE_MAX_POINTS - 1) * (
        2 * np.pi / (ORACLE_MAX_POINTS - 1))
    dets = [det(veh, idx, 1.9 * np.cos(a), 1.9 * np.sin(a))
            for (veh, idx), a in zip(keys, angles)]
    dets.append(det(*keys[-1], 0.0, 0.0))
    cfg = ClusterConfig(eps=2.0)
    assert cluster_detections(dets, cfg) == cluster_brute_force_oracle(
        dets, cfg)
    assert cluster_detections(dets, cfg)[0] == 1
