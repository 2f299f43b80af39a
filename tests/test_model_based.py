"""Model-based property tests.

Two oracles:

- **KFS vs. a dict model** — random file-system operation sequences
  applied both to KFS (on a real multi-node cluster, alternating
  between two mounts) and to an in-memory model; observable behaviour
  must match exactly.
- **CREW vs. a register model** — random read/write interleavings from
  all nodes against one page; CREW promises sequential consistency, so
  in this serialized-client setting every read must return the most
  recently completed write.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import create_cluster
from repro.fs import FileSystemError, KhazanaFileSystem

# ---------------------------------------------------------------------------
# KFS vs dict model
# ---------------------------------------------------------------------------

NAMES = ["a", "b", "c"]

fs_ops = st.lists(
    st.one_of(
        st.tuples(st.just("create"), st.sampled_from(NAMES)),
        st.tuples(st.just("write"), st.sampled_from(NAMES),
                  st.binary(min_size=1, max_size=64)),
        st.tuples(st.just("append"), st.sampled_from(NAMES),
                  st.binary(min_size=1, max_size=32)),
        st.tuples(st.just("read"), st.sampled_from(NAMES)),
        st.tuples(st.just("unlink"), st.sampled_from(NAMES)),
        st.tuples(st.just("rename"), st.sampled_from(NAMES),
                  st.sampled_from(NAMES)),
        st.tuples(st.just("listdir")),
    ),
    min_size=1,
    max_size=12,
)


class FsModel:
    """The oracle: a plain dict of path -> bytes."""

    def __init__(self):
        self.files = {}

    def apply(self, op):
        kind = op[0]
        if kind == "create":
            name = op[1]
            if name in self.files:
                return "error"
            self.files[name] = b""
            return "ok"
        if kind == "write":
            _k, name, data = op
            if name not in self.files:
                return "error"
            self.files[name] = data
            return "ok"
        if kind == "append":
            _k, name, data = op
            if name not in self.files:
                return "error"
            self.files[name] += data
            return "ok"
        if kind == "read":
            name = op[1]
            if name not in self.files:
                return "error"
            return self.files[name]
        if kind == "unlink":
            name = op[1]
            if name not in self.files:
                return "error"
            del self.files[name]
            return "ok"
        if kind == "rename":
            _k, src, dst = op
            if src not in self.files:
                return "error"
            if src == dst:
                return "ok"
            if dst in self.files:
                return "error"
            self.files[dst] = self.files.pop(src)
            return "ok"
        if kind == "listdir":
            return sorted(self.files)
        raise AssertionError(op)


def apply_to_kfs(fs, op):
    kind = op[0]
    try:
        if kind == "create":
            fs.create(f"/{op[1]}").close()
            return "ok"
        if kind == "write":
            with fs.open(f"/{op[1]}", "r"):
                pass   # existence check mirroring the model
            with fs.open(f"/{op[1]}", "w") as f:
                f.write(op[2])
            return "ok"
        if kind == "append":
            fs._namei(f"/{op[1]}")   # must already exist
            with fs.open(f"/{op[1]}", "a") as f:
                f.write(op[2])
            return "ok"
        if kind == "read":
            with fs.open(f"/{op[1]}") as f:
                return f.read()
        if kind == "unlink":
            fs.unlink(f"/{op[1]}")
            return "ok"
        if kind == "rename":
            fs.rename(f"/{op[1]}", f"/{op[2]}")
            return "ok"
        if kind == "listdir":
            return fs.listdir("/")
    except FileSystemError:
        return "error"
    raise AssertionError(op)


class TestFsModel:
    @given(fs_ops)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_kfs_matches_dict_model(self, ops):
        cluster = create_cluster(num_nodes=2)
        fs1 = KhazanaFileSystem.format(cluster.client(node=1))
        fs0 = KhazanaFileSystem.mount(cluster.client(node=0),
                                      fs1.superblock_addr)
        mounts = [fs1, fs0]
        model = FsModel()
        for index, op in enumerate(ops):
            fs = mounts[index % 2]   # alternate between the two sites
            expected = model.apply(op)
            actual = apply_to_kfs(fs, op)
            assert actual == expected, (op, expected, actual)
        # Final state agrees from both mounts.
        assert fs1.listdir("/") == sorted(model.files)
        assert fs0.listdir("/") == sorted(model.files)
        for name, body in model.files.items():
            with fs0.open(f"/{name}") as f:
                assert f.read() == body


# ---------------------------------------------------------------------------
# CREW vs register model
# ---------------------------------------------------------------------------

register_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),   # acting node
        st.sampled_from(["read", "write"]),
    ),
    min_size=4,
    max_size=24,
)


class TestCrewRegisterModel:
    @given(register_ops)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_sequentially_consistent_register(self, ops):
        cluster = create_cluster(num_nodes=4)
        owner = cluster.client(node=1)
        region = owner.reserve(4096)
        owner.allocate(region.rid)
        owner.write_at(region.rid, b"gen-0000")
        last_written = 0
        generation = 0
        for node, kind in ops:
            session = cluster.client(node=node)
            if kind == "write":
                generation += 1
                session.write_at(region.rid, f"gen-{generation:04d}".encode())
                last_written = generation
            else:
                got = session.read_at(region.rid, 8)
                assert got == f"gen-{last_written:04d}".encode(), (
                    f"node {node} read {got!r}, expected generation "
                    f"{last_written}"
                )
