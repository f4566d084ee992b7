"""The mirror's whole-array derivation — run at construction and again
on every restore — equals :meth:`AvailabilityMirror.derived_availability`
bit for bit, and its block bounds are the exact block maxima."""

import pickle

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.mirror import BLOCK_SIZE, AvailabilityMirror, _pack_sparse

N = 2 * BLOCK_SIZE + 17  # two full blocks and a short last one


def bits(column) -> np.ndarray:
    return np.asarray(column, dtype=np.float64).view(np.uint64)


def assert_derived(mirror: AvailabilityMirror) -> None:
    for stored, truth in zip(
        (mirror.avail_cpu, mirror.avail_mem), mirror.derived_availability()
    ):
        assert np.array_equal(bits(stored), bits(truth))
    starts = np.arange(0, len(mirror), BLOCK_SIZE)
    for bound, avail in ((mirror._ub_cpu, mirror.avail_cpu), (mirror._ub_mem, mirror.avail_mem)):
        assert np.array_equal(bits(bound), bits(np.maximum.reduceat(avail, starts)))


def fresh_cluster() -> Cluster:
    rng = np.random.default_rng(7)
    return Cluster(rng.uniform(0.5, 64.0, N), rng.uniform(0.5, 512.0, N))


def test_fresh_mirror_is_derived():
    mirror = fresh_cluster().mirror
    assert_derived(mirror)
    cap_cpu, cap_mem = mirror.capacity_columns()
    assert np.array_equal(bits(mirror.avail_cpu), bits(cap_cpu))
    assert np.array_equal(bits(mirror.avail_mem), bits(cap_mem))


def test_restored_mirror_is_derived():
    mirror = fresh_cluster().mirror
    rng = np.random.default_rng(8)
    _, slots = mirror.__getstate__()
    # A checkpoint state with servers down in every block, allocations
    # with float residues, one just over capacity (derived to 0.0) and
    # a -0.0, which the sparse pickle keeps.
    up = np.ones(N, dtype=bool)
    up[[0, 5, BLOCK_SIZE + 3, N - 1]] = False
    busy = rng.choice(N, size=300, replace=False)
    columns = {}
    for name, cap in zip(("alloc_cpu", "alloc_mem"), mirror.capacity_columns()):
        column = np.zeros(N)
        column[busy] = cap[busy] * rng.uniform(0.0, 1.0, len(busy))
        column[busy[0]] = 0.1 + 0.2 - 0.1  # 0.20000000000000004
        column[busy[1]] = cap[busy[1]] + 1e-12
        column[busy[2]] = -0.0
        columns[name] = column
        slots[name] = _pack_sparse(column)
    slots["up"] = up
    restored = AvailabilityMirror.__new__(AvailabilityMirror)
    restored.__setstate__((None, slots))
    for revived in (restored, pickle.loads(pickle.dumps(restored))):
        for name, column in columns.items():
            assert np.array_equal(bits(getattr(revived, name)), bits(column))
        assert np.array_equal(revived.up, up)
        assert_derived(revived)
        assert not revived.avail_cpu[~up].any() and not revived.avail_mem[~up].any()
        assert revived.avail_cpu[busy[1]] == 0.0
