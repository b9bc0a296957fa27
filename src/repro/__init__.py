"""Reproduction of *Characterizing Scheduling Delay for Low-latency
Data Analytics Workloads* (IPDPS 2018).

Two halves:

* :mod:`repro.core` — **SDchecker**, the paper's contribution: an
  offline log-mining tool that decomposes job scheduling delay from
  YARN + Spark log files.
* Everything else — the simulated Spark-on-YARN testbed the paper ran
  on (discrete-event cluster, YARN RM/NM/schedulers, HDFS, Spark,
  MapReduce, workloads), which emits the log files SDchecker mines.

Quick start::

    from repro import Testbed, SparkApplication, SDChecker
    from repro.workloads import TPCHDataset, TPCHQueryWorkload

    bed = Testbed(seed=1)
    data = TPCHDataset(2 << 30)
    bed.submit(SparkApplication("q1", TPCHQueryWorkload(data, query=1)))
    bed.run_until_all_finished()
    report = SDChecker().analyze(bed.log_store)
    print(report.summary())
"""

import importlib

__version__ = "1.0.0"

#: Where each top-level export lives.  They resolve on first access
#: (PEP 562), so ``import repro.core`` loads no simulator code and
#: ``import repro.testbed`` no SDchecker code.
_EXPORTS = {
    "GB": "repro.params",
    "MB": "repro.params",
    "MapReduceApplication": "repro.mapreduce.application",
    "SDChecker": "repro.core.checker",
    "SimulationParams": "repro.params",
    "SparkApplication": "repro.spark.application",
    "Testbed": "repro.testbed",
}

__all__ = [
    "GB",
    "MB",
    "MapReduceApplication",
    "SDChecker",
    "SimulationParams",
    "SparkApplication",
    "Testbed",
    "__version__",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
