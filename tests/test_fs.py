"""Tests for KFS, the Section 4.1 wide-area distributed file system."""

import pytest

from repro.api import create_cluster
from repro.core.attributes import ConsistencyLevel
from repro.core.client import SyncDriver
from repro.core.errors import KhazanaError
from repro.fs import FileSystemError, FileType, KhazanaFileSystem
from repro.fs.layout import BLOCK_SIZE, MAX_BLOCKS
from repro.tools import check_cluster


@pytest.fixture
def fs(cluster):
    return KhazanaFileSystem.format(cluster.client(node=1))


class TestFormatMount:
    def test_format_creates_root(self, fs):
        assert fs.listdir("/") == []
        root = fs._read_inode(fs.root_inode_addr)
        assert root.file_type is FileType.DIRECTORY

    def test_mount_by_superblock_address(self, cluster, fs):
        other = KhazanaFileSystem.mount(
            cluster.client(node=3), fs.superblock_addr
        )
        assert other.root_inode_addr == fs.root_inode_addr

    def test_mount_garbage_address_fails(self, cluster, fs):
        kz = cluster.client(node=2)
        desc = kz.reserve(4096)
        kz.allocate(desc.rid)
        with pytest.raises(FileSystemError):
            KhazanaFileSystem.mount(kz, desc.rid)


class TestFilesBasic:
    def test_create_write_read(self, fs):
        with fs.create("/a.txt") as f:
            f.write(b"hello")
        with fs.open("/a.txt") as f:
            assert f.read() == b"hello"

    def test_create_existing_fails(self, fs):
        fs.create("/a.txt").close()
        with pytest.raises(FileSystemError):
            fs.create("/a.txt")

    def test_open_missing_read_fails(self, fs):
        with pytest.raises(FileSystemError):
            fs.open("/missing.txt")

    def test_open_w_truncates(self, fs):
        with fs.create("/a.txt") as f:
            f.write(b"long content here")
        with fs.open("/a.txt", "w") as f:
            f.write(b"hi")
        assert fs.stat("/a.txt").size == 2

    def test_open_a_appends(self, fs):
        with fs.create("/a.txt") as f:
            f.write(b"one,")
        with fs.open("/a.txt", "a") as f:
            f.write(b"two")
        with fs.open("/a.txt") as f:
            assert f.read() == b"one,two"

    def test_seek_tell(self, fs):
        with fs.create("/a.txt") as f:
            f.write(b"0123456789")
            f.seek(2)
            assert f.tell() == 2
            assert f.read(3) == b"234"
            f.seek(-2, 2)
            assert f.read() == b"89"

    def test_pread_pwrite(self, fs):
        with fs.create("/a.txt") as f:
            f.write(b"aaaaaaaa")
            f.pwrite(2, b"XX")
            assert f.pread(0, 8) == b"aaXXaaaa"
            assert f.tell() == 8   # position unchanged by p-ops

    def test_multi_block_file(self, fs):
        blob = bytes(i % 251 for i in range(3 * BLOCK_SIZE + 17))
        with fs.create("/big.bin") as f:
            f.write(blob)
        st = fs.stat("/big.bin")
        assert st.size == len(blob)
        assert len(st.blocks) == 4
        with fs.open("/big.bin") as f:
            assert f.read() == blob

    def test_each_block_is_its_own_region(self, fs):
        with fs.create("/two.bin") as f:
            f.write(b"z" * (2 * BLOCK_SIZE))
        st = fs.stat("/two.bin")
        assert len(set(st.blocks)) == 2
        for block in st.blocks:
            assert block % BLOCK_SIZE == 0

    def test_sparse_hole_reads_zero(self, fs):
        with fs.create("/sparse.bin") as f:
            f.truncate(2 * BLOCK_SIZE)
            assert f.pread(10, 20) == b"\x00" * 20

    def test_truncate_frees_blocks(self, cluster, fs):
        with fs.create("/t.bin") as f:
            f.write(b"x" * (3 * BLOCK_SIZE))
            f.truncate(BLOCK_SIZE)
        st = fs.stat("/t.bin")
        assert st.size == BLOCK_SIZE
        assert len(st.blocks) == 1

    def test_truncate_shrink_then_grow_reads_zeroes(self, fs):
        # The kept last block must not keep its bytes past the new end:
        # a later sparse extension reads them back as zeroes.
        with fs.create("/shrink.bin") as f:
            f.write(b"x" * BLOCK_SIZE)
            f.truncate(100)
            f.truncate(BLOCK_SIZE)
            assert f.pread(0, BLOCK_SIZE) == (
                b"x" * 100 + b"\x00" * (BLOCK_SIZE - 100)
            )

    def test_truncate_shrinks_into_a_hole(self, fs):
        with fs.create("/hole.bin") as f:
            f.truncate(2 * BLOCK_SIZE)
            f.truncate(100)
            f.truncate(BLOCK_SIZE)
            assert f.pread(0, BLOCK_SIZE) == b"\x00" * BLOCK_SIZE

    def test_file_size_limit_enforced(self, fs):
        with fs.create("/cap.bin") as f:
            with pytest.raises(Exception):
                f.pwrite(MAX_BLOCKS * BLOCK_SIZE, b"overflow")

    def test_closed_handle_rejects_io(self, fs):
        f = fs.create("/c.txt")
        f.close()
        with pytest.raises(ValueError):
            f.read()

    def test_read_only_handle_rejects_write(self, fs):
        fs.create("/r.txt").close()
        with fs.open("/r.txt", "r") as f:
            with pytest.raises(PermissionError):
                f.write(b"nope")


class TestDirectories:
    def test_mkdir_listdir(self, fs):
        fs.mkdir("/d")
        fs.mkdir("/d/e")
        fs.create("/d/f.txt").close()
        assert fs.listdir("/") == ["d"]
        assert fs.listdir("/d") == ["e", "f.txt"]

    def test_mkdir_existing_fails(self, fs):
        fs.mkdir("/d")
        with pytest.raises(FileSystemError):
            fs.mkdir("/d")

    def test_nested_path_resolution(self, fs):
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        with fs.create("/a/b/c.txt") as f:
            f.write(b"deep")
        with fs.open("/a/b/c.txt") as f:
            assert f.read() == b"deep"

    def test_missing_parent_fails(self, fs):
        with pytest.raises(FileSystemError):
            fs.create("/no/such/parent.txt")

    def test_rmdir_empty_only(self, fs):
        fs.mkdir("/d")
        fs.create("/d/x").close()
        with pytest.raises(FileSystemError):
            fs.rmdir("/d")
        fs.unlink("/d/x")
        fs.rmdir("/d")
        assert not fs.exists("/d")

    def test_unlink_directory_rejected(self, fs):
        fs.mkdir("/d")
        with pytest.raises(FileSystemError):
            fs.unlink("/d")

    def test_rename_within_directory(self, fs):
        fs.create("/old.txt").close()
        fs.rename("/old.txt", "/new.txt")
        assert fs.exists("/new.txt")
        assert not fs.exists("/old.txt")

    def test_rename_onto_existing_name_in_same_directory_fails(self, fs):
        with fs.create("/a") as f:
            f.write(b"from a")
        with fs.create("/b") as f:
            f.write(b"from b")
        with pytest.raises(FileSystemError):
            fs.rename("/a", "/b")
        # Neither file was touched, so the old /b is not orphaned.
        assert fs.listdir("/") == ["a", "b"]
        with fs.open("/a") as f:
            assert f.read() == b"from a"
        with fs.open("/b") as f:
            assert f.read() == b"from b"

    def test_rename_onto_itself_is_a_no_op(self, fs):
        with fs.create("/a") as f:
            f.write(b"same")
        fs.rename("/a", "/a")
        with fs.open("/a") as f:
            assert f.read() == b"same"
        with pytest.raises(FileSystemError):
            fs.rename("/missing", "/missing")

    def test_rename_across_directories(self, fs):
        fs.mkdir("/src")
        fs.mkdir("/dst")
        with fs.create("/src/f.txt") as f:
            f.write(b"moved")
        fs.rename("/src/f.txt", "/dst/g.txt")
        assert fs.listdir("/src") == []
        with fs.open("/dst/g.txt") as f:
            assert f.read() == b"moved"

    def test_tree_listing(self, fs):
        fs.mkdir("/d")
        with fs.create("/d/f") as f:
            f.write(b"abc")
        tree = fs.tree("/")
        assert tree["children"]["d"]["children"]["f"]["size"] == 3

    def test_relative_path_rejected(self, fs):
        with pytest.raises(FileSystemError):
            fs.create("relative.txt")

    def test_bad_names_rejected(self, fs):
        from repro.fs.layout import LayoutError

        with pytest.raises((FileSystemError, LayoutError)):
            fs.create("/..")


class TestUnlink:
    def test_unlink_releases_regions(self, cluster, fs):
        with fs.create("/gone.bin") as f:
            f.write(b"y" * BLOCK_SIZE)
        st = fs.stat("/gone.bin")
        block = st.blocks[0]
        fs.unlink("/gone.bin")
        cluster.run(5.0)   # background unreserve drains
        from repro.core.errors import KhazanaError

        kz = cluster.client(node=1)
        with pytest.raises(KhazanaError):
            kz.read_at(block, 4)

    def test_unlink_missing_fails(self, fs):
        with pytest.raises(FileSystemError):
            fs.unlink("/phantom")


class CountingDriver(SyncDriver):
    """A SyncDriver that counts the protocol tasks it waits for."""

    def __init__(self, scheduler):
        super().__init__(scheduler)
        self.waits = 0

    def wait(self, future):
        self.waits += 1
        return super().wait(future)


def _blob(size, seed):
    return bytes((i * 7 + seed) % 251 for i in range(size))


OLD_SIZE = 2 * BLOCK_SIZE + 100   # three blocks


def _assert_released(cluster, addresses):
    """Each block region in ``addresses`` is unreserved, and fsck is
    clean (it cannot see a KFS block no inode names)."""
    cluster.run(5.0)   # background unreserve drains
    kz = cluster.client(node=1)
    for address in addresses:
        with pytest.raises(KhazanaError):
            kz.read_at(address, 4)
    report = check_cluster(cluster)
    assert report.ok, report.render()


@pytest.fixture
def old(fs):
    """/f.bin holding OLD_SIZE bytes; returns its inode."""
    with fs.create("/f.bin") as f:
        f.write(_blob(OLD_SIZE, 1))
    return fs.stat("/f.bin")


class TestOverwriteInPlace:
    """open(path, "w") + write at offset 0 rewrites the file's block
    regions instead of unreserving them and reserving fresh ones."""

    @pytest.mark.parametrize("new_size", [
        BLOCK_SIZE + 10, OLD_SIZE, 5 * BLOCK_SIZE - 3,
    ], ids=["smaller", "equal", "larger"])
    def test_overwrite_keeps_the_common_blocks(self, cluster, fs, old,
                                                new_size):
        new = _blob(new_size, 2)
        with fs.open("/f.bin", "w") as f:
            f.write(new)
        st = fs.stat("/f.bin")
        assert st.size == new_size
        assert len(st.blocks) == st.blocks_needed(new_size)
        kept = min(len(old.blocks), len(st.blocks))
        assert st.blocks[:kept] == old.blocks[:kept]
        with fs.open("/f.bin") as f:
            assert f.read() == new
        _assert_released(cluster, old.blocks[kept:])

    def test_close_without_writing_truncates(self, fs, old):
        fs.open("/f.bin", "w").close()
        st = fs.stat("/f.bin")
        assert (st.size, st.blocks) == (0, [])

    def test_write_past_offset_zero_truncates_first(self, fs, old):
        with fs.open("/f.bin", "w") as f:
            f.seek(100)
            f.write(b"tail")
        with fs.open("/f.bin") as f:
            assert f.read() == b"\x00" * 100 + b"tail"

    def test_read_before_writing_sees_an_empty_file(self, fs, old):
        with fs.open("/f.bin", "w") as f:
            assert f.read() == b""
            f.write(b"after")
        with fs.open("/f.bin") as f:
            assert f.read() == b"after"

    def test_shrunk_tail_reads_back_as_zeroes(self, fs, old):
        with fs.open("/f.bin", "w") as f:
            f.write(b"short")
        with fs.open("/f.bin", "a") as f:
            f.truncate(BLOCK_SIZE)
            assert f.pread(0, BLOCK_SIZE) == b"short" + b"\x00" * (
                BLOCK_SIZE - 5)

    def test_other_mount_reads_the_new_bytes(self, cluster, fs, old):
        other = KhazanaFileSystem.mount(cluster.client(node=3),
                                        fs.superblock_addr)
        with other.open("/f.bin") as f:
            assert f.read() == _blob(OLD_SIZE, 1)
        new = _blob(BLOCK_SIZE + 10, 3)
        with fs.open("/f.bin", "w") as f:
            f.write(new)
        with other.open("/f.bin") as f:
            assert f.read() == new

    def test_unused_w_handle_reports_size_zero(self, fs, old):
        f = fs.open("/f.bin", "w")
        assert f.size == 0
        f.close()
        assert fs.stat("/f.bin").size == 0

    def test_failed_overwrite_keeps_the_old_inode(self, cluster, fs, old,
                                                 monkeypatch):
        # The inode is written after the blocks, so a write that fails
        # partway leaves the old size and block list over a mix of new
        # and old bytes, and nothing unreserved.
        real_write_at, calls = fs.session.write_at, []

        def failing_write_at(address, data):
            calls.append(address)
            if len(calls) == 2:
                raise KhazanaError("injected")
            return real_write_at(address, data)

        monkeypatch.setattr(fs.session, "write_at", failing_write_at)
        new = _blob(OLD_SIZE, 2)
        with pytest.raises(KhazanaError):
            fs.open("/f.bin", "w").write(new)
        monkeypatch.undo()
        st = fs.stat("/f.bin")
        assert (st.size, st.blocks) == (old.size, old.blocks)
        with fs.open("/f.bin") as f:
            assert f.read() == (new[:BLOCK_SIZE]
                                + _blob(OLD_SIZE, 1)[BLOCK_SIZE:])
        _assert_released(cluster, [])

    def test_warm_read_waits_once_per_inode_and_block(self, cluster, fs):
        with fs.create("/two.bin") as f:
            f.write(_blob(2 * BLOCK_SIZE, 4))
        with fs.open("/two.bin") as f:
            f.read()   # warm: path cached, pages resident
        driver = CountingDriver(cluster.scheduler)
        fs.session.driver = driver
        with fs.open("/two.bin") as f:
            assert f.read() == _blob(2 * BLOCK_SIZE, 4)
        # The file's inode once, then one task per block: 3 waits.  A
        # lock and an unlock wait per read, plus re-reading the root and
        # the file's inode, made it 10.
        assert driver.waits <= 4


class TestHandlesAcrossWrites:
    """A handle's first access re-reads its inode when the same mount
    wrote an inode after the open: no handle writes back, reads or
    frees blocks from an inode another handle has since replaced."""

    def test_append_after_another_handle_grew_the_file(self, cluster, fs):
        with fs.create("/f") as f:
            f.write(b"x" * 100)
        a = fs.open("/f", "a")
        b = fs.open("/f", "a")
        grown = _blob(10_000, 5)
        b.write(grown)
        a.write(b"y")   # at offset 100, a's position since its open
        st = fs.stat("/f")
        assert st.size == 10_100
        assert len(st.blocks) == st.blocks_needed(10_100)
        with fs.open("/f") as f:
            assert f.read() == b"x" * 100 + b"y" + grown[1:]
        _assert_released(cluster, [])

    def test_reader_opened_before_an_overwrite_reads_it(self, fs, old):
        r = fs.open("/f.bin")
        with fs.open("/f.bin", "w") as w:
            w.write(b"z")
        assert r.read() == b"z"

    @pytest.mark.parametrize("second", ["write", "close"])
    def test_two_w_handles_free_what_the_other_grew(self, cluster, fs,
                                                    old, second):
        # Each "w" handle truncates at its first access, so the second
        # one replaces what the first wrote, blocks it grew included.
        w1 = fs.open("/f.bin", "w")
        w2 = fs.open("/f.bin", "w")
        w1.write(_blob(5 * BLOCK_SIZE, 6))
        w1.close()
        grown = fs.stat("/f.bin").blocks
        if second == "write":
            w2.write(b"small")
        w2.close()
        st = fs.stat("/f.bin")
        expected = b"small" if second == "write" else b""
        assert st.size == len(expected)
        assert len(st.blocks) == st.blocks_needed(len(expected))
        with fs.open("/f.bin") as f:
            assert f.read() == expected
        _assert_released(cluster, set(old.blocks + grown) - set(st.blocks))


class TestDistribution:
    """The paper's headline: the FS code is identical on 1..N nodes
    and instances share state only through Khazana."""

    def test_multi_mount_sharing(self, cluster, fs):
        fs3 = KhazanaFileSystem.mount(
            cluster.client(node=3), fs.superblock_addr
        )
        with fs.create("/shared.txt") as f:
            f.write(b"from node 1")
        with fs3.open("/shared.txt") as f:
            assert f.read() == b"from node 1"
        with fs3.open("/shared.txt", "a") as f:
            f.write(b" + node 3")
        with fs.open("/shared.txt") as f:
            assert f.read() == b"from node 1 + node 3"

    def test_same_code_single_node_cluster(self):
        single = create_cluster(num_nodes=1)
        fs = KhazanaFileSystem.format(single.client(node=0))
        fs.mkdir("/solo")
        with fs.create("/solo/f.txt") as f:
            f.write(b"standalone")
        with fs.open("/solo/f.txt") as f:
            assert f.read() == b"standalone"

    def test_replicated_filesystem_survives_home_crash(self):
        cluster = create_cluster(num_nodes=6)
        fs = KhazanaFileSystem.format(
            cluster.client(node=1),
            consistency=ConsistencyLevel.STRICT,
            replicas=2,
        )
        with fs.create("/important.txt") as f:
            f.write(b"do not lose")
        cluster.run(2.0)
        cluster.crash(1)
        cluster.run(15.0)
        fs4 = KhazanaFileSystem.mount(
            cluster.client(node=4), fs.superblock_addr
        )
        with fs4.open("/important.txt") as f:
            assert f.read() == b"do not lose"

    def test_concurrent_directory_updates_from_two_nodes(self, cluster, fs):
        fs3 = KhazanaFileSystem.mount(
            cluster.client(node=3), fs.superblock_addr
        )
        for i in range(5):
            fs.create(f"/n1-{i}").close()
            fs3.create(f"/n3-{i}").close()
        names = fs.listdir("/")
        assert len(names) == 10
        assert fs3.listdir("/") == names
