"""One Ray session per benchmark run, and nothing of it left afterwards.

The run owns its session from ``ray.init`` to the last process exit:

- workers get the repository root on ``PYTHONPATH`` through the job's
  runtime env, so the package imports no matter what the caller's cwd is
  (the package is not installed);
- every ``SeenSet`` the run creates is registered and torn down on exit,
  because seen shards are *detached* actors;
- SIGTERM and SIGINT unwind through the same cleanup as a normal exit;
- after ``ray.shutdown()`` every process the session started (raylet,
  gcs_server, ``ray::`` workers, agents) is waited for, and killed if it
  lingers, so no Ray process outlives the command;
- the driver is the child subreaper of its process tree: a worker whose
  raylet exited first re-parents to it, not to init, so it stays in view
  and its exit is reaped here. Without that, such workers linger as
  zombies of init for a while after the command has exited.
"""

from __future__ import annotations

import os
import signal
import time


class Interrupted(BaseException):
    """Raised in the main thread when SIGTERM/SIGINT arrives."""

    def __init__(self, signum: int):
        super().__init__(f"signal {signum}")
        self.signum = signum


# Signals received by the session's handler. Raised inside Ray's compiled
# code, Interrupted can surface as another exception (SystemError); this
# list still tells the caller that a signal ended the run.
received: list[int] = []


# AF_UNIX socket paths are limited to 107 bytes; Ray puts
# ``session_<date>_<pid>/sockets/plasma_store`` (about 62 bytes) under
# its temp dir.
_RAY_SOCKET_SUFFIX = 64
_UNIX_PATH_MAX = 107

# Ray's object store for the run (the crawl's pass tables and the
# catalog's intermediate datasets fit with room to spare)
OBJECT_STORE_MB = 768

_PR_SET_CHILD_SUBREAPER = 36


def _ppid_map() -> dict[int, int]:
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # comm may contain spaces/parens: fields after the last ')'
        rest = stat.rsplit(")", 1)[1].split()
        if rest[0] != "Z":
            out[int(d)] = int(rest[1])
    return out


def descendants(pid: int | None = None) -> set[int]:
    """Live (non-zombie) descendant pids of *pid* (default: this process)."""
    pid = os.getpid() if pid is None else pid
    children: dict[int, list[int]] = {}
    for p, pp in _ppid_map().items():
        children.setdefault(pp, []).append(p)
    out, todo = set(), [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            if c not in out:
                out.add(c)
                todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def cpu_s(pids) -> float:
    """User + system CPU seconds used so far by *pids* (gone ones count 0)."""
    total = 0
    for p in pids:
        try:
            with open(f"/proc/{p}/stat") as f:
                rest = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(rest[11]) + int(rest[12])
    return total / os.sysconf("SC_CLK_TCK")


def steal_s() -> float:
    """CPU time the hypervisor has stolen from this host so far (all
    cpus, seconds; the ``steal`` column of /proc/stat)."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


def become_subreaper() -> bool:
    """Adopt orphaned descendants (``prctl(PR_SET_CHILD_SUBREAPER)``)."""
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def reap() -> None:
    """Collect the exit status of every exited child of this process."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def wait_gone(pids: set[int], timeout: float) -> set[int]:
    """Poll until every pid has exited, reaping the ones that are this
    process's children; return survivors."""
    deadline = time.monotonic() + timeout
    reap()
    left = {p for p in pids if _alive(p)}
    while left and time.monotonic() < deadline:
        time.sleep(0.1)
        reap()
        left = {p for p in left if _alive(p)}
    return left


class RaySession:
    """Context manager owning one local Ray session."""

    def __init__(self, repo_root: str, run_dir: str, num_cpus: int):
        self.repo_root = repo_root
        self.run_dir = run_dir
        self.num_cpus = num_cpus
        self.seen_sets: list = []
        self.temp_dir: str | None = None
        self._pids: set[int] = set()
        self._old_handlers: dict = {}

    # ------------------------------------------------------------ lifecycle
    def __enter__(self) -> "RaySession":
        self._install_signals()
        self.subreaper = become_subreaper()
        import ray

        temp = os.path.join(self.run_dir, "ray")
        if len(temp) + _RAY_SOCKET_SUFFIX <= _UNIX_PATH_MAX:
            os.makedirs(temp, exist_ok=True)
            self.temp_dir = temp
        kwargs = {"_temp_dir": self.temp_dir} if self.temp_dir else {}
        ray.init(
            address="local",
            num_cpus=self.num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=OBJECT_STORE_MB << 20,
            runtime_env={"env_vars": {"PYTHONPATH": self.repo_root}},
            **kwargs,
        )
        # ray.init may install its own handlers; ours must win
        self._install_signals()
        import logging

        import ray.data
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        logging.getLogger("ray").setLevel(logging.ERROR)
        self._pids |= descendants()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def cpu_s(self) -> float:
        """CPU seconds used so far by the driver and every live process of
        the session (raylet, gcs, workers, actors)."""
        return cpu_s(descendants() | {os.getpid()})

    def track(self, seen) -> None:
        """Register a SeenSet so close() tears its detached shards down."""
        self.seen_sets.append(seen)

    def teardown_seen(self, seen) -> None:
        seen.teardown()
        if seen in self.seen_sets:
            self.seen_sets.remove(seen)

    def close(self) -> None:
        # a second signal during cleanup must not abort it half way
        for s in (signal.SIGTERM, signal.SIGINT):
            signal.signal(s, signal.SIG_IGN)
        import ray

        if ray.is_initialized():
            for seen in self.seen_sets:
                try:
                    seen.teardown()
                except Exception:  # noqa: BLE001 - best effort, shutting down
                    pass
            self.seen_sets.clear()
            self._pids |= descendants()
            ray.shutdown()
        left = wait_gone(self._pids | descendants(), timeout=20.0)
        for p in left:
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
        left = wait_gone(left, timeout=10.0)
        reap()
        self.leftover = sorted(left | descendants())
        self._restore_signals()

    # -------------------------------------------------------------- signals
    def _install_signals(self) -> None:
        def handler(signum, frame):
            received.append(signum)
            raise Interrupted(signum)

        for s in (signal.SIGTERM, signal.SIGINT):
            old = signal.signal(s, handler)
            self._old_handlers.setdefault(s, old)

    def _restore_signals(self) -> None:
        for s, h in self._old_handlers.items():
            signal.signal(s, h if h is not None else signal.SIG_DFL)
