"""Project Almanac reproduction: a time-traveling SSD (EuroSys '19).

Top-level convenience exports; see the subpackages for the full API:

* :mod:`repro.timessd` — the TimeSSD device;
* :mod:`repro.timekits` — storage-state queries and rollback;
* :mod:`repro.ftl` / :mod:`repro.flash` — the baseline FTL and NAND model;
* :mod:`repro.fs`, :mod:`repro.workloads`, :mod:`repro.security`,
  :mod:`repro.nvme`, :mod:`repro.bench` — substrates and harnesses.
"""

import importlib

__version__ = "1.0.0"

#: Convenience export -> defining module, imported on first access so
#: that ``python -m repro.analysis`` (which must be able to lint a tree
#: whose runtime does not import) loads no runtime module.
_EXPORTS = {
    "SimClock": "repro.common.clock",
    "FlashGeometry": "repro.flash.geometry",
    "FlashTiming": "repro.flash.timing",
    "RegularSSD": "repro.ftl.ssd",
    "SSDConfig": "repro.ftl.ssd",
    "TimeSSD": "repro.timessd.ssd",
    "TimeSSDConfig": "repro.timessd.config",
    "ContentMode": "repro.timessd.config",
    "TimeKits": "repro.timekits.api",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module 'repro' has no attribute %r" % name)
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value

