"""The generated inputs: a pure function of (workload, seed)."""

import collections

import opgen
import workloads


def test_same_seed_same_ops_and_fingerprint():
    for cls in workloads.WORKLOADS.values():
        first, second = cls().stream(7), cls().stream(7)
        assert first.ensure(500)[:500] == second.ensure(500)[:500]
        assert (opgen.fingerprint(first, 300)
                == opgen.fingerprint(second, 300))


def test_other_seed_other_ops():
    for cls in workloads.WORKLOADS.values():
        assert (opgen.fingerprint(cls().stream(1), 300)
                != opgen.fingerprint(cls().stream(2), 300))


def test_fingerprint_covers_a_prefix_only():
    stream = workloads.WORKLOADS["write_sharing"]().stream(3)
    short = opgen.fingerprint(stream, 100)
    stream.ensure(5000)                      # running further ...
    assert opgen.fingerprint(stream, 100) == short   # ... changes nothing


def test_fingerprints_are_pinned():
    """The inputs of seed 1 as of the PR that defined the benchmark: an
    edit that changes them breaks comparability with every earlier
    result and must be deliberate."""
    pinned = {"read_cached": "0edcc65958d5e100",
              "write_sharing": "98acc42e43c7866a",
              "release_bulk": "b225a7da1f1c48e5",
              "kfs_mix": "b6287499b3643992"}
    for name, digest in pinned.items():
        stream = workloads.WORKLOADS[name]().stream(1)
        assert opgen.fingerprint(stream, 1000).startswith(digest), name


def test_zipf_is_skewed_and_in_range():
    entropy = opgen.Entropy(5, "zipf")
    zipf = opgen.Zipf(128, entropy)
    counts = collections.Counter(zipf.draw() for _ in range(20000))
    assert set(counts) <= set(range(128))
    top = counts.most_common(1)[0][1]
    # Zipf(0.99) over 128 items: the hottest gets ~1/H(128) = 18 %.
    assert 0.14 < top / 20000 < 0.23
    assert len(counts) > 100                 # the tail is still visited


def test_page_ops_respect_their_ranges():
    ops = opgen.page_ops(1, "t", clients=2, pages=16, slots=32,
                         write_frac=0.5).ensure(4000)
    assert {op[0] for op in ops} == {0, 1}
    assert all(0 <= op[1] < 16 and 0 <= op[2] < 32 for op in ops)
    writes = sum(op[3] for op in ops) / len(ops)
    assert 0.45 < writes < 0.55


def test_fs_block_holds_exactly_the_issue_mix():
    entropy = opgen.Entropy(9, "fs")
    for parity in range(4):
        block = opgen.fs_block(entropy, mounts=2, parity=parity)
        kinds = collections.Counter(kind for _m, kind, _s in block)
        assert [kinds[k] for k in range(5)] == list(opgen.FS_MIX)
        heavy = [i for i, (_m, kind, _s) in enumerate(block)
                 if kind >= opgen.FS_OVERWRITE]
        gaps = [b - a for a, b in zip(heavy, heavy[1:])]
        assert set(gaps) <= {6, 7}           # evenly spaced
        sizes = [s for _m, kind, s in block
                 if kind in (opgen.FS_OVERWRITE, opgen.FS_CREATE)]
        assert all(opgen.FS_MIN_BYTES <= s <= opgen.FS_MAX_BYTES
                   for s in sizes)
        blocks = collections.Counter(-(-s // opgen.FS_FILE_BLOCK)
                                     for s in sizes)
        assert (blocks[1], blocks[2], blocks[3]) == (
            opgen.FS_SIZE_CLASSES[parity % 2])
        heavy_mounts = collections.Counter(
            m for m, kind, _s in block if kind >= opgen.FS_OVERWRITE)
        assert abs(heavy_mounts[0] - heavy_mounts[1]) <= 1


def test_fs_ops_only_name_live_files():
    ops = opgen.fs_ops(4, "fs", mounts=2, initial_files=32).ensure(3000)
    live = set(range(32))
    for _mount, kind, file_id, size in ops:
        if kind == opgen.FS_CREATE:
            assert file_id not in live
            live.add(file_id)
        else:
            assert file_id in live
            if kind == opgen.FS_UNLINK:
                live.remove(file_id)
        assert (size > 0) == (kind in (opgen.FS_OVERWRITE, opgen.FS_CREATE))
    assert live                               # never empties the directory
