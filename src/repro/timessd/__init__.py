"""TimeSSD: the time-traveling SSD (the paper's core contribution).

TimeSSD retains invalidated flash pages instead of reclaiming them, for a
workload-adaptive retention window with a guaranteed lower bound.  The
pieces map one-to-one onto the paper's §3:

* :mod:`repro.timessd.bloom` — time-segmented bloom filters that record
  when pages were invalidated (§3.5);
* :mod:`repro.timessd.retention` — the retention duration manager and the
  Equation-1 GC-overhead estimator (§3.4, §3.8);
* :mod:`repro.timessd.lzf` / :mod:`repro.timessd.delta` — LZF and delta
  compression of obsolete versions (§3.6);
* :mod:`repro.timessd.index` — the reverse time-travel index: data-page
  chains via OOB back-pointers plus delta-page chains via the IMT (§3.7);
* :mod:`repro.timessd.gc` — Algorithm 1 garbage collection (§3.8);
* :mod:`repro.common.idle` — idle-time prediction for background delta
  compression (§3.6; shared with the base FTL's background GC);
* :mod:`repro.timessd.ssd` — the device itself.
"""

from repro.common.idle import IdlePredictor
from repro.timessd.bloom import BloomFilter, TimeSegmentedBlooms
from repro.timessd.config import ContentMode, TimeSSDConfig
from repro.timessd.delta import DeltaCodec, ModeledDeltaCodec, RealDeltaCodec
from repro.timessd.ssd import TimeSSD

__all__ = [
    "TimeSSD",
    "TimeSSDConfig",
    "ContentMode",
    "BloomFilter",
    "TimeSegmentedBlooms",
    "DeltaCodec",
    "RealDeltaCodec",
    "ModeledDeltaCodec",
    "IdlePredictor",
]
