"""E19: the batched codec engine against the seed path, at scale.

The codec engine exists so payload-verified simulations scale to paper
volumes: one cached reconstruction matrix per erasure pattern plus one
gather-based batched product per call, instead of a greedy Gaussian
elimination, a fresh inversion and a Python-level matrix product per
stripe.  The comparison: batched encode + node-loss repair of 1,000
stripes with 4 KB block payloads must be byte-identical to the
per-stripe seed path; both times and their ratio are recorded, not
gated (``e2ebench`` decides whether the codec got slower).

The baseline is the seed codec of :mod:`repro.spec.codec` (greedy
rank-per-candidate survivor selection, per-stripe inversion, decode +
re-encode), the same oracle the property tests compare against.  Timing goes through the shared difftest harness, one
run per side with the long-lived arrays frozen out of garbage
collection.
"""

import gc

import numpy as np

from repro.codes import rs_10_4, xorbas_lrc
from repro.difftest import compare_speed, timed
from repro.spec.codec import seed_decode, seed_encode

from conftest import record_metric, write_report

STRIPES = 1_000
PAYLOAD_BYTES = 4_096


def _node_loss_pattern(code):
    """One data block and one parity erased — a two-node event's view."""
    lost = (0, code.k)
    survivors = tuple(p for p in range(code.n) if p not in lost)
    return lost, survivors


def test_batched_codec_engine_10x_faster_and_identical():
    code = rs_10_4()
    rng = np.random.default_rng(7)
    data3d = code.field.random_elements(rng, (STRIPES, code.k, PAYLOAD_BYTES))
    lost, survivors = _node_loss_pattern(code)

    def seed_path():
        # Per-stripe: encode, then repair every stripe one at a time.
        coded_seed = [seed_encode(code, stripe) for stripe in data3d]
        rebuilt_seed = []
        for coded in coded_seed:
            payloads = {p: coded[p] for p in survivors}
            decoded = seed_decode(code, payloads)
            recoded = seed_encode(code, decoded)
            rebuilt_seed.append([recoded[p] for p in lost])
        return coded_seed, rebuilt_seed

    def engine_path():
        # Batched: one encode call, one reconstruct call.
        coded = code.encode_stripes(data3d)
        available = {p: coded[:, p, :] for p in survivors}
        return coded, code.reconstruct(lost, available)

    def compare(spec_result, engine_result):
        # Byte-identical to the seed path, stripe by stripe.
        coded_seed, rebuilt_seed = spec_result
        coded, rebuilt = engine_result
        assert np.array_equal(coded, np.stack(coded_seed))
        for s in range(STRIPES):
            for j in range(len(lost)):
                assert np.array_equal(rebuilt[s, j], rebuilt_seed[s][j])

    _, encode_seconds = timed(lambda: code.encode_stripes(data3d))
    mb = STRIPES * code.k * PAYLOAD_BYTES / 1e6
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        record = compare_speed(
            "codec_engine",
            spec_fn=seed_path,
            engine_fn=engine_path,
            compare=compare,
            metrics=record_metric,
        )
    finally:
        gc.enable()
        gc.unfreeze()
    stats = code.engine.stats()
    report = (
        f"{STRIPES} stripes x {code.k} blocks x {PAYLOAD_BYTES} B ({mb:.0f} MB), "
        f"{code.name}, erasures {lost}\n"
        f"seed per-stripe path:  {record.spec_seconds:.3f} s "
        f"(encode + repair)\n"
        f"batched codec engine:  {record.engine_seconds:.3f} s "
        f"(encode + reconstruct)\n"
        f"speedup:               {record.speedup:.1f}x\n"
        f"engine stats:          {stats}"
    )
    write_report("codec_engine.txt", report)
    print()
    print(report)
    record_metric("codec_encode_mb_per_s", mb / encode_seconds)


def test_decoder_cache_amortises_repeated_patterns():
    """Repair cost collapses once the pattern's matrix is cached: the
    second batch of stripes with the same erasure pattern must not pay
    another Gaussian elimination (cache hits, no new misses)."""
    code = xorbas_lrc()
    rng = np.random.default_rng(11)
    data3d = code.field.random_elements(rng, (64, code.k, 512))
    coded = code.encode_stripes(data3d)
    lost = (2, code.k + 1)
    available = {p: coded[:, p, :] for p in range(code.n) if p not in lost}

    code.reconstruct(lost, available)
    misses_after_first = code.engine.cache.misses
    code.reconstruct(lost, available)
    assert code.engine.cache.misses == misses_after_first
    assert code.engine.cache.hits >= 1
    record_metric("codec_cache_patterns", len(code.engine.cache))
