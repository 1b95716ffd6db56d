"""Real worker faults raised by programs, for the chaos suite.

:func:`install` registers :class:`ChaosEngine` over ``freezeml``.  A
worker process fails when the outermost binder of the program it infers
names a directive: ``let chaos_crash = 0 in M`` exits the process,
``chaos_hang`` sleeps ``hang_seconds`` (then infers), ``chaos_raise``
raises, and ``chaos_crash_once`` exits the first time only, guarded by
an ``O_EXCL`` token file in ``token_dir``.  Every other program is
inferred as usual, under the name ``freezeml``.  With ``slow_start``,
the second pool worker the process forks stays that many seconds
between its fork and the pool initializer.  :func:`command` runs the
CLI (``repro serve``, ``repro check``) with the engine installed.
"""

import multiprocessing.util
import os
import sys
import time

from repro.core.terms import Let
from repro.engines import Engine, FreezeMLEngine, get_engine, register_engine

DIRECTIVES = ("chaos_crash", "chaos_hang", "chaos_raise", "chaos_crash_once")
HANG_SECONDS = 3.0


class ChaosEngine(FreezeMLEngine):
    def __init__(self, token_dir, hang_seconds: float = HANG_SECONDS):
        self.token_dir = str(token_dir)
        self.hang_seconds = hang_seconds
        self.installer_pid = os.getpid()  # pickled into every worker

    def infer(self, term, env, **context):
        if isinstance(term, Let) and term.var in DIRECTIVES:
            self._fault(term.var)
        return super().infer(term, env, **context)

    def _fault(self, directive: str) -> None:
        assert os.getpid() != self.installer_pid, (
            f"{directive} reached the installing process: use jobs >= 2"
        )
        if directive == "chaos_crash" or (
            directive == "chaos_crash_once" and self._first(directive)
        ):
            os._exit(86)
        if directive == "chaos_hang":
            time.sleep(self.hang_seconds)
        elif directive == "chaos_raise":
            raise RuntimeError("chaos: raise")

    def _first(self, directive: str) -> bool:
        token = os.path.join(self.token_dir, directive)
        try:
            os.close(os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return False
        return True


def install(
    token_dir, hang_seconds: float = HANG_SECONDS, slow_start: float = 0.0
) -> Engine:
    """Register a :class:`ChaosEngine` as ``freezeml``; returns the
    engine it replaced, for :func:`repro.engines.register_engine` to
    restore."""
    previous = get_engine("freezeml")
    engine = register_engine(ChaosEngine(token_dir, hang_seconds), replace=True)
    if slow_start:
        # Runs in each forked worker before the pool's initializer.
        multiprocessing.util.register_after_fork(
            engine, lambda chaos: _slow_start(chaos, slow_start)
        )
    return previous


def _slow_start(engine: ChaosEngine, seconds: float) -> None:
    if not engine._first("chaos_fast_start") and engine._first("chaos_slow_start"):
        time.sleep(seconds)


def command(
    token_dir,
    argv: list[str],
    hang_seconds: float = HANG_SECONDS,
    slow_start: float = 0.0,
) -> list[str]:
    """The argv of a process running ``repro <argv>`` over a
    :class:`ChaosEngine`; launch it with ``PYTHONPATH=src:tests``."""
    return [
        sys.executable,
        "-c",
        f"import chaos_engine; chaos_engine.install({str(token_dir)!r}, "
        f"{hang_seconds!r}, {slow_start!r}); from repro.cli import main; "
        f"raise SystemExit(main({list(argv)!r}))",
    ]
