"""Process-pool sweep runner for independent simulation points.

Every paper artifact is a sweep of *independent, deterministic*
simulations: each (system, n, size, window) point builds its own
:class:`~repro.sim.engine.Engine` from a fixed seed and shares no state
with any other point.  That makes the sweeps embarrassingly parallel —
the same shape as the evaluation matrices in *The Impact of RDMA on
Agreement* and *Velos* — and this module is the one place that fans
them across cores.

Guarantees of :func:`run_points`:

- **deterministic collection** — results come back in submission order,
  whatever order workers finish in, so a parallel sweep is
  point-for-point identical to the sequential one (each point is a pure
  function of its arguments);
- **sequential fallback** — ``workers=1`` (or an unavailable process
  pool: sandboxed CI, restricted containers) runs the same loop in
  process, no behavioural difference;
- **failure transparency** — a crashing point re-raises its original
  exception at the call site instead of hanging the sweep (remaining
  futures are cancelled).

Functions handed to :func:`run_points` must be module-level (picklable);
each point is a tuple of positional arguments.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterable, Sequence

#: Environment knob for the benchmark drivers: number of sweep workers
#: (unset / "0" / "1" means sequential).
WORKERS_ENV = "REPRO_WORKERS"


def default_workers() -> int:
    """Worker count for sweeps: ``$REPRO_WORKERS`` if set, else the
    machine's core count (capped — sweeps rarely have >8 ready points)."""
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV}={env!r} is not an integer worker count") from None
    return min(os.cpu_count() or 1, 8)


def _run_sequential(fn: Callable[..., Any], points: Sequence[tuple]) -> list[Any]:
    return [fn(*p) for p in points]


def run_points(fn: Callable[..., Any], points: Iterable[tuple],
               workers: int | None = None) -> list[Any]:
    """Evaluate ``fn(*point)`` for every point, fanning across processes.

    Results are returned in submission order.  ``workers=None`` resolves
    through :func:`default_workers`; ``workers=1`` (or a single point)
    stays in process.  When the host cannot fork a pool at all (sandbox,
    missing ``/dev/shm``), the sweep silently degrades to sequential —
    same results, just slower.

    A point that raises propagates its original exception; in the pool
    case the executor is shut down first so no worker is left running.
    """
    pts = [p if isinstance(p, tuple) else (p,) for p in points]
    n_workers = default_workers() if workers is None else max(1, int(workers))
    if n_workers <= 1 or len(pts) <= 1:
        return _run_sequential(fn, pts)

    try:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        executor = ProcessPoolExecutor(max_workers=min(n_workers, len(pts)))
    except (ImportError, NotImplementedError, OSError, PermissionError):
        return _run_sequential(fn, pts)

    try:
        futures = [executor.submit(fn, *p) for p in pts]
        # Submission order, not completion order: determinism.
        results = [f.result() for f in futures]
    except (BrokenProcessPool, OSError, PermissionError):
        # The pool never came up (or died under us) for environmental
        # reasons; the points themselves are pure, so rerunning
        # sequentially is safe and identical.
        executor.shutdown(wait=False, cancel_futures=True)
        return _run_sequential(fn, pts)
    except BaseException:
        # A point crashed: surface its original exception without
        # waiting out the rest of the sweep.
        executor.shutdown(wait=False, cancel_futures=True)
        raise
    executor.shutdown()
    return results
