"""Parallel execution subsystem for the provider.

The paper pushes mining *inside* the provider precisely so it can exploit
engine-side resources; this package supplies the engine-side parallelism:

* :class:`~repro.exec.locks.RWLock` — per-model readers/writer lock so
  concurrent predictions share a model while training/reset are exclusive;
* :class:`~repro.exec.pool.WorkerPool` — a shared thread/process worker
  pool with ``pool.*`` metrics and an order-preserving bounded map;
* :mod:`~repro.exec.partition` — the training plan and the parallel
  PREDICTION JOIN driver, plus its eligibility gates (soundness first:
  a join only parallelizes when the result is provably identical to
  serial execution, otherwise it falls back and says so in the metrics).
"""

from repro.exec.locks import RWLock
from repro.exec.pool import WorkerPool

__all__ = ["RWLock", "WorkerPool"]
