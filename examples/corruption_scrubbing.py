"""Silent corruption: checksums, parity-based location, and scrubbing.

The BlockFixer handles "lost or corrupted" blocks (Section 3).  Loss is
loud; corruption is silent — a data block with flipped bytes still reads
as plausible bytes.  This example shows the two detection paths and the
heal:

1. checksum scan (how HDFS actually finds rot),
2. PGZ syndrome location (the Reed-Solomon parities locate up to
   floor(m/2) corrupt blocks with *no* checksums at all),
3. the scrubber healing through the code's repair machinery — paying
   5 reads on the Xorbas LRC where plain RS pays 13.

Run:  python examples/corruption_scrubbing.py
"""

import numpy as np

from repro.cluster.blocks import Stripe
from repro.cluster.integrity import (
    ChecksumRegistry,
    CorruptionInjector,
    Scrubber,
    pgz_cross_check,
)
from repro.codes import rs_10_4, xorbas_lrc
from repro.codes.errors import correct_corruption, locate_corrupt_blocks


def make_stripe(code, index=0):
    stripe = Stripe(
        file_name="warehouse/part-00042",
        index=index,
        code=code,
        data_blocks=code.k,
        block_size=256e6,
        payload_bytes=128,
        rng=np.random.default_rng(index),
    )
    stripe.parities_stored = True
    return stripe


def main() -> None:
    # --- 1. checksum detection on an LRC stripe -------------------------
    stripe = make_stripe(xorbas_lrc())
    registry = ChecksumRegistry()
    registry.record_stripe(stripe)
    scrubber = Scrubber()
    scrubber.record_stripe(stripe)
    print(f"Recorded {len(registry)} block checksums for one LRC stripe.")

    injector = CorruptionInjector(seed=1)
    victim = injector.corrupt_block(stripe, 6)
    print(f"Silently corrupted {victim} (bytes still read fine).")
    print(f"Checksum scan finds: positions {registry.scan_stripe(stripe)}")

    # --- 2. checksum-free location via the RS parities ------------------
    located = pgz_cross_check(stripe)
    print(f"PGZ syndrome locator (no checksums) finds: positions {located}\n")

    # --- 3. the scrubber heals through the repair machinery -------------
    report = scrubber.scrub([stripe])
    print(f"Scrubber healed {len(report.healed_blocks)} block(s) reading "
          f"{report.blocks_read_for_heal} blocks (the LRC light plan).")

    rs_stripe = make_stripe(rs_10_4(), index=1)
    rs_scrubber = Scrubber()
    rs_scrubber.record_stripe(rs_stripe)
    CorruptionInjector(seed=2).corrupt_block(rs_stripe, 6)
    rs_report = rs_scrubber.scrub([rs_stripe])
    print(f"Same corruption on plain RS(10,4): heal read "
          f"{rs_report.blocks_read_for_heal} blocks — the 2x+ gap again.\n")

    # --- bonus: correcting two corrupt blocks straight from parities ----
    code = rs_10_4()
    rng = np.random.default_rng(3)
    data = rng.integers(0, 256, size=(10, 64)).astype(np.uint8)
    coded = code.encode(data)
    received = coded.copy()
    received[2] ^= 0x5A
    received[11] ^= 0xC3
    print("Corrupted blocks 2 and 11 of an RS(10,4) stripe (no checksums):")
    print(f"  located: {locate_corrupt_blocks(code, received)}")
    corrected, found = correct_corruption(code, received)
    print(f"  corrected: {np.array_equal(corrected, coded)} "
          f"(RS(10,4) corrects up to floor(4/2) = 2 corrupt blocks)")


if __name__ == "__main__":
    main()
