import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mapfuse.association import (
    AssociationMatrix,
    ClusterConfig,
    cluster_detections,
)
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


def partition_signature(num_objects, matrices):
    """Map each detection key to its cluster, for comparing partitions."""
    sig = {}
    for mat in matrices:
        for n in range(mat.entries.shape[0]):
            col = mat.column_of(n)
            if col is not None:
                sig[(mat.vehicle_id, n)] = col
    return num_objects, sig


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(eps=0.0)


def test_duplicate_vehicle_ids_are_rejected():
    dets = [det(0, 0, 0.0, 0.0), det(1, 0, 50.0, 0.0)]
    with pytest.raises(ValueError, match="duplicate vehicle ids"):
        cluster_detections(dets, ClusterConfig(), vehicle_ids=[0, 1, 0])


def test_boundary_inclusive():
    cfg = ClusterConfig(eps=2.0)
    m, mats = cluster_detections([det(0, 0, 0, 0), det(1, 0, 2.0, 0)], cfg)
    assert m == 1
    m, mats = cluster_detections([det(0, 0, 0, 0), det(1, 0, 2.0001, 0)], cfg)
    assert m == 2


def test_chain_merging():
    # 0 -- 1.5 -- 3.0: transitively one cluster at eps=2.
    dets = [det(0, 0, 0, 0), det(0, 1, 1.5, 0), det(1, 0, 3.0, 0)]
    m, mats = cluster_detections(dets, ClusterConfig(eps=2.0))
    assert m == 1


def test_rows_sum_at_most_one_and_cluster_order():
    dets = [det(0, 0, 10, 0), det(1, 0, -10, 0), det(1, 1, 10.5, 0)]
    m, mats = cluster_detections(dets, ClusterConfig(eps=2.0))
    assert m == 2
    by_vehicle = {mat.vehicle_id: mat for mat in mats}
    # Cluster 0 is the one containing the smallest key (vehicle 0, det 0).
    assert by_vehicle[0].column_of(0) == 0
    assert by_vehicle[1].column_of(0) == 1
    assert by_vehicle[1].column_of(1) == 0
    for mat in mats:
        assert (mat.entries.sum(axis=1) <= 1).all()


def test_empty_input():
    m, mats = cluster_detections([], ClusterConfig())
    assert m == 0 and mats == []
    m, mats = cluster_detections([], ClusterConfig(), vehicle_ids=[0, 1])
    assert m == 0 and len(mats) == 2
    assert mats[0].entries.shape == (0, 0)


def test_oracle_cap():
    dets = [det(0, i, i * 10.0, 0) for i in range(ORACLE_MAX_POINTS + 1)]
    with pytest.raises(ValueError):
        cluster_brute_force_oracle(dets, ClusterConfig())


def test_matches_oracle_on_random_instances():
    rng = np.random.default_rng(5)
    cfg = ClusterConfig(eps=2.0)
    for _ in range(100):
        dets = random_instance(rng)
        got = partition_signature(*cluster_detections(dets, cfg))
        want = partition_signature(*cluster_brute_force_oracle(dets, cfg))
        assert got == want


def test_permutation_invariance():
    rng = np.random.default_rng(9)
    cfg = ClusterConfig(eps=2.0)
    dets = random_instance(rng)
    base = partition_signature(*cluster_detections(dets, cfg))
    for _ in range(5):
        perm = list(dets)
        rng.shuffle(perm)
        assert partition_signature(*cluster_detections(perm, cfg)) == base


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_every_detection_lands_in_exactly_one_cluster(seed):
    rng = np.random.default_rng(seed)
    dets = random_instance(rng, n_max=30)
    m, mats = cluster_detections(dets, ClusterConfig(eps=2.0))
    total = 0
    for mat in mats:
        assert mat.entries.shape[1] == m
        sums = mat.entries.sum(axis=1)
        assert (sums == 1).all()
        total += mat.entries.shape[0]
    assert total == len(dets)
    # every cluster is non-empty
    support = sum(mat.entries.sum(axis=0) for mat in mats)
    assert (np.asarray(support) >= 1).all()


def test_column_of():
    mat = AssociationMatrix(0, np.array([[0, 1], [0, 0]], dtype=np.int8))
    assert mat.column_of(0) == 1
    assert mat.column_of(1) is None
