"""Flash reliability: time-aware raw bit errors and ECC correction.

NAND reads flip bits at a rate that grows with wear, with *retention age*
(charge leaks from the floating gates from the moment a page is
programmed), and with *read disturb* (every sense of a block slightly
stresses its neighbours until the next erase resets them).  Controllers
attach an ECC codeword (BCH/LDPC) to every page and correct up to a
budget of bit errors.  The model samples per-read error counts from a
Poisson approximation of the binomial, corrects up to
``ecc_correctable_bits``, and surfaces the (rare) uncorrectable reads as
:class:`UncorrectableReadError` — which is how real drives lose data at
end of life.

Two firmware defenses hook in here:

* **Read retry** — re-sensing a page with shifted reference voltages
  recovers most marginal reads; each ladder step multiplies the
  effective BER by ``retry_ber_factor`` (< 1).
* **Corrected-bit surfacing** — :meth:`ReliabilityEngine.check_read`
  returns the corrected-bit count so the FTL can notice "correctable
  but near the ECC budget" and refresh the page *before* it is lost.

Determinism: the engine owns a dedicated seeded RNG stream.  It is the
media's noise source, deliberately separate from the FTL's foreground
RNG so background patrol reads never perturb host-visible randomness
(``tests/ftl/test_scrub.py`` pins this).

Disabled by default (``raw_bit_error_rate = 0``): functional experiments
stay deterministic and error-free unless a test opts in.
"""

import math
import random
from dataclasses import dataclass

from repro.common.errors import UncorrectableReadError
from repro.common.units import HOUR_US
from repro.obs import MetricsRegistry

__all__ = ["FlashReliability", "ReliabilityEngine"]


@dataclass(frozen=True)
class FlashReliability:
    """Error-rate model.

    ``raw_bit_error_rate`` is per bit per read on a fresh block.  Three
    aging terms scale it additively, reproducing the standard NAND error
    budget (Copycat's decomposition)::

        effective = raw * (1 + wear_ber_multiplier    * erase_count
                             + retention_ber_per_hour * age_hours
                             + read_disturb_ber_per_read * block_reads)
                        * retry_ber_factor ** retry_step

    * ``wear_ber_multiplier`` — permanent oxide damage per P/E cycle.
    * ``retention_ber_per_hour`` — charge leakage per hour since the
      page was programmed; refresh (rewriting the page) resets it.
    * ``read_disturb_ber_per_read`` — stress per sense of the same
      block since its last erase; erase resets it.
    * ``retry_ber_factor`` — per-step BER attenuation of the read-retry
      ladder (re-sensing with shifted reference voltages); must be in
      (0, 1] — 1.0 models a controller without retry support.

    ``ecc_correctable_bits`` is the per-page ECC budget (typical 4 KiB-
    page BCH corrects ~40-72 bits).
    """

    raw_bit_error_rate: float = 0.0
    wear_ber_multiplier: float = 0.0
    retention_ber_per_hour: float = 0.0
    read_disturb_ber_per_read: float = 0.0
    retry_ber_factor: float = 0.5
    ecc_correctable_bits: int = 40
    seed: int = 0xECC

    def __post_init__(self):
        if self.raw_bit_error_rate < 0 or self.wear_ber_multiplier < 0:
            raise ValueError("error rates must be non-negative")
        if self.retention_ber_per_hour < 0 or self.read_disturb_ber_per_read < 0:
            raise ValueError("error rates must be non-negative")
        if not 0 < self.retry_ber_factor <= 1:
            raise ValueError("retry_ber_factor must be in (0, 1]")
        if self.ecc_correctable_bits < 0:
            raise ValueError("ECC budget must be non-negative")


class ReliabilityEngine:
    """Samples per-read bit-error counts and applies the ECC budget."""

    def __init__(self, model, page_size, metrics=None):
        self.model = model
        self._bits_per_page = page_size * 8
        self._rng = random.Random(model.seed)
        if metrics is None:
            metrics = MetricsRegistry()  # a standalone engine counts privately
        #: ECC outcomes: the registry's ``flash.ecc.*`` counters.
        self.corrected_bits = metrics.counter("flash.ecc.corrected_bits")
        self.corrected_reads = metrics.counter("flash.ecc.corrected_reads")
        self.uncorrectable_reads = metrics.counter("flash.ecc.uncorrectable_reads")

    @property
    def enabled(self):
        return self.model.raw_bit_error_rate > 0

    def _poisson(self, lam):
        """Knuth's method (lambda is small for realistic BERs)."""
        if lam <= 0:
            return 0
        if lam > 30:
            # Normal approximation for stress-test rates.
            value = int(self._rng.gauss(lam, math.sqrt(lam)) + 0.5)
            return max(0, value)
        threshold = math.exp(-lam)
        k = 0
        p = 1.0
        while True:
            p *= self._rng.random()
            if p <= threshold:
                return k
            k += 1

    def effective_ber(self, erase_count, age_us=0, block_reads=0, retry_step=0):
        """The per-bit error rate for one read attempt."""
        model = self.model
        scale = (
            1.0
            + model.wear_ber_multiplier * erase_count
            + model.retention_ber_per_hour * (age_us / HOUR_US)
            + model.read_disturb_ber_per_read * block_reads
        )
        return (
            model.raw_bit_error_rate
            * scale
            * model.retry_ber_factor**retry_step
        )

    def check_read(self, ppa, erase_count, age_us=0, block_reads=0, retry_step=0):
        """Account one page read; raises on an uncorrectable error.

        Returns the number of bits ECC corrected (0 on a clean read) so
        the firmware above can watch pages drift toward the budget.
        ``age_us`` is time since the page was programmed, ``block_reads``
        the block's sense count since erase, ``retry_step`` the position
        on the read-retry ladder (0 = normal read).
        """
        if not self.enabled:
            return 0
        ber = self.effective_ber(erase_count, age_us, block_reads, retry_step)
        errors = self._poisson(ber * self._bits_per_page)
        if errors == 0:
            return 0
        if errors <= self.model.ecc_correctable_bits:
            self.corrected_bits.inc(errors)
            self.corrected_reads.inc()
            return errors
        self.uncorrectable_reads.inc()
        raise UncorrectableReadError(ppa, errors, self.model.ecc_correctable_bits)
