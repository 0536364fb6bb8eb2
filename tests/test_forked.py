import io
import os

import pytest

from gradflow import forked
from gradflow.forked import cut, run_groups, run_jobs
from test_dynamics import _assert_no_child_process


def _cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)


def _forks(monkeypatch):
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


class TestCut:
    def test_unit_weights(self):
        # flow-2d's 33 trajectory nodes: node 16's midpoint lies on the
        # boundary and joins the earlier group
        assert cut([1] * 33, 2) == [0, 17, 33]
        assert cut([1] * 33, 3) == [0, 11, 22, 33]
        assert cut([1] * 9, 3) == [0, 3, 6, 9]

    def test_edi_2d_blocks(self):
        # nine blocks of the 257-node main chain, five of the 129-node
        # control chain, weighted by cells x nodes on 20 x 20 cells
        weights = [400 * n for n in [32] * 8 + [1] + [32] * 4 + [1]]
        assert cut(weights, 1) == [0, 14]
        assert cut(weights, 2) == [0, 6, 14]      # 192 / 194 nodes
        assert cut(weights, 8) == [0, 2, 3, 5, 6, 8, 10, 12, 14]

    def test_study_1d_chains(self):
        # uniform1d:16..256, 17 nodes each, the finest first: the 256-cell
        # chain outweighs the other four
        weights = [n * 17 for n in (256, 128, 64, 32, 16)]
        assert cut(weights, 2) == [0, 1, 5]
        assert cut(weights, 3) == [0, 1, 2, 5]
        assert cut(weights, 8) == [0, 1, 2, 3, 5]

    def test_more_parts_than_jobs(self):
        assert cut([1, 1], 8) == [0, 1, 2]
        assert cut([5], 8) == [0, 1]

    def test_heavy_first_job_drops_empty_groups(self):
        assert cut([100, 1, 1], 3) == [0, 1, 3]

    def test_zero_weight(self):
        assert cut([0, 0, 0], 4) == [0, 3]
        # zero-weight jobs ahead of the first weight join the first group
        assert cut([0, 0, 5], 2) == [0, 3]
        assert cut([], 4) == [0, 0]


def _numbered_jobs(count, weights=None):
    weights = weights or [1] * count
    return [(f"job {i}", w, lambda out, i=i: out.write(f"<{i}>".encode()))
            for i, w in enumerate(weights)]


class TestRunJobs:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("count", [1, 2, 5, 33])
    def test_output_in_job_order(self, monkeypatch, cpus, count):
        _cpus(monkeypatch, cpus)
        forks = _forks(monkeypatch)
        out = io.BytesIO()
        run_jobs(_numbered_jobs(count), out)
        assert out.getvalue() == b"".join(f"<{i}>".encode()
                                          for i in range(count))
        assert len(forks) == min(cpus, count) - 1
        _assert_no_child_process()

    def test_caller_writes_the_first_group(self, monkeypatch):
        _cpus(monkeypatch, 2)
        parent = os.getpid()
        out = io.BytesIO()
        run_jobs([(f"job {i}", 1, lambda out: out.write(
            b"c" if os.getpid() == parent else b"f")) for i in range(5)], out)
        assert out.getvalue() == b"cccff"
        _assert_no_child_process()

    def test_zero_total_weight_forks_nothing(self, monkeypatch):
        _cpus(monkeypatch, 8)
        forks = _forks(monkeypatch)
        out = io.BytesIO()
        run_jobs(_numbered_jobs(4, [0, 0, 0, 0]), out)
        assert out.getvalue() == b"<0><1><2><3>"
        assert forks == []

    def test_no_jobs(self, monkeypatch):
        _cpus(monkeypatch, 2)
        out = io.BytesIO()
        run_jobs([], out)
        assert out.getvalue() == b""

    def test_first_failure_in_job_order(self, monkeypatch):
        # both children fail; the earlier one's error is raised
        def fail(message):
            def job(out):
                raise ValueError(message)
            return job

        _cpus(monkeypatch, 3)
        jobs = [("job 0", 1, lambda out: None), ("job 1", 1, fail("second")),
                ("job 2", 1, fail("third"))]
        with pytest.raises(ValueError, match="^second$"):
            run_jobs(jobs, io.BytesIO())
        _assert_no_child_process()

    def test_silent_exit_names_the_group(self, monkeypatch):
        _cpus(monkeypatch, 2)
        jobs = _numbered_jobs(4)
        jobs[3] = ("job 3", 1, lambda out: os._exit(4))
        with pytest.raises(OSError, match="^job 2 through job 3 exited with "
                                          "status 4$"):
            run_jobs(jobs, io.BytesIO())
        _assert_no_child_process()

    def test_failed_fork_leaks_no_fd_and_no_file(self, monkeypatch, tmp_path):
        forks = []
        fork = os.fork

        def second_fork_fails():
            forks.append(1)
            if len(forks) == 2:
                raise BlockingIOError("Resource temporarily unavailable")
            return fork()

        _cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", second_fork_fails)
        # the temporary files are anonymous: none is named in their directory
        monkeypatch.setattr(forked.tempfile, "tempdir", str(tmp_path))
        fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            run_jobs(_numbered_jobs(6), io.BytesIO())
        assert len(forks) == 2
        assert list(tmp_path.iterdir()) == []
        assert len(os.listdir("/proc/self/fd")) == fds
        _assert_no_child_process()

    def test_buffered_file_written_once(self, monkeypatch, tmp_path):
        # what the caller wrote before the fork, still in the file's buffer,
        # is not written again by the child
        _cpus(monkeypatch, 2)
        path = tmp_path / "out.bin"
        with open(path, "wb") as fh:
            fh.write(b"head;")
            run_jobs(_numbered_jobs(4), fh)
        assert path.read_bytes() == b"head;<0><1><2><3>"
        _assert_no_child_process()


class TestRunGroups:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_one_call_per_group_of_items(self, monkeypatch, cpus):
        # the EDI audit's 14 blocks at 20 x 20 cells, weighted cells x nodes
        _cpus(monkeypatch, cpus)
        weights = [400 * 32] * 8 + [400 * 1] + [400 * 32] * 4 + [400 * 1]
        items = [(f"block {i}", w, i) for i, w in enumerate(weights)]
        out = io.BytesIO()
        run_groups(items, lambda group, out: out.write(
            f"{group};".encode()), out)
        bounds = cut(weights, cpus)
        assert out.getvalue() == "".join(
            f"{list(range(a, b))};" for a, b in zip(bounds, bounds[1:])).encode()
        _assert_no_child_process()

    def test_silent_exit_names_the_group(self, monkeypatch):
        _cpus(monkeypatch, 2)

        def work(group, out):
            if group[0] == 2:
                os._exit(3)

        items = [(f"item {i}", 1, i) for i in range(4)]
        with pytest.raises(OSError, match="^item 2 through item 3 exited with "
                                          "status 3$"):
            run_groups(items, work, io.BytesIO())
        _assert_no_child_process()
