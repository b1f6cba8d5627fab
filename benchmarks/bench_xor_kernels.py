"""E27: the compiled XOR plane against the gather kernel, at scale.

The paper's engineering claim is that LRC light repairs are cheap
because local parities are *pure XOR* (Section 2.1's ``c_i = 1``
choice).  The compiled XOR plane (:mod:`repro.codes.xorplane`) makes
the codec realise that: a light repair replays as a handful of wide
``np.bitwise_xor`` passes instead of the gather-kernel
(:func:`~repro.galois.gf_matmul_batch`) matrix product the heavy path
pays.  Two comparisons and one sweep (times and ratios are recorded,
never gated — ``e2ebench`` decides whether the codec got slower):

* the light-repair XOR stream must be byte-identical to the heavy
  ``gf_matmul_batch`` rebuild of the same block on large payloads; the
  ratio and the stream's absolute throughput are recorded
  (``xor_lrc_light_repair_gb_per_s`` — the plane sustains >= 1 GB/s on a
  quiet machine);
* plane-dispatched encode, the plane-routed two-erasure RS rebuild and
  the RS(10,4) single-block heavy repair of 256 x 8 KB stripes (which
  the cost model moved onto the plane) must be byte-identical to their
  gather counterparts; their absolute throughputs are recorded
  (``xor_encode_mb_per_s``, beside ``codec_encode_mb_per_s``,
  ``xor_reconstruct2_mb_per_s`` and ``xor_heavy_repair_mb_per_s``, with
  ``xor_heavy_repair_speedup`` over the gather kernel);
* byte-identity of every pattern's compiled bit program against the
  gather kernel over decodable erasure patterns for RS(10,4), Xorbas
  LRC(10,6,5) and Pyramid, and of SRC's engine decode against the
  gather-only engine — every pattern up to n - k erasures in the
  nightly sweep, the two-erasure prefix in the smoke lane.
"""

import gc
from itertools import combinations

import numpy as np
import pytest

from repro.codes import (
    CodecEngine,
    DecodingError,
    SimpleRegeneratingCode,
    pyramid_10_4,
    rs_10_4,
    xorbas_lrc,
)
from repro.codes.base import mask_of
from repro.codes.xorplane import compile_xor_schedule
from repro.difftest import compare_speed, timed
from repro.galois import gf_matmul_batch
from repro.spec import GatherCodecEngine

from conftest import record_metric, write_report

STRIPES = 2_000
PAYLOAD_BYTES = 8_192


def test_xor_plane_light_repair_10x_over_gather_and_identical():
    """LRC light repair as a compiled XOR stream vs the heavy gather rebuild."""
    code = xorbas_lrc()
    lost = 2
    rng = np.random.default_rng(7)
    data3d = code.field.random_elements(rng, (STRIPES, code.k, PAYLOAD_BYTES))
    coded = code.encode_stripes(data3d)

    decision = code.planner.plan_block(lost, mask_of(range(code.n)))
    assert decision.light and decision.plan.is_xor_only()
    light_available = {
        p: np.ascontiguousarray(coded[:, p, :]) for p in decision.sources
    }
    heavy_available = {
        p: np.ascontiguousarray(coded[:, p, :])
        for p in range(code.n)
        if p != lost
    }
    gf_engine = GatherCodecEngine(code)

    def heavy_path():
        # The gather kernel over the cached rebuild matrix: one table
        # gather per non-unit coefficient across k survivor slabs.
        return gf_engine.reconstruct((lost,), heavy_available)[:, 0, :]

    def light_path():
        # The planner's pure-XOR stream: len(sources) - 1 wide XOR passes.
        return code.engine.repair_stripes(lost, light_available)

    def compare(spec_result, engine_result):
        assert np.array_equal(spec_result, engine_result)
        assert np.array_equal(engine_result, coded[:, lost, :])

    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        record = compare_speed(
            "xor_plane",
            spec_fn=heavy_path,
            engine_fn=light_path,
            compare=compare,
            metrics=record_metric,
        )
    finally:
        gc.enable()
        gc.unfreeze()

    rebuilt_bytes = STRIPES * PAYLOAD_BYTES
    gb_per_s = rebuilt_bytes / record.engine_seconds / 1e9
    record_metric("xor_lrc_light_repair_gb_per_s", gb_per_s)
    stats = code.engine.stats()
    report = (
        f"{STRIPES} stripes x {PAYLOAD_BYTES} B rebuilt "
        f"({rebuilt_bytes / 1e6:.1f} MB), {code.name}, block {lost} lost\n"
        f"heavy gather rebuild ({len(heavy_available)} survivors): "
        f"{record.spec_seconds:.3f} s\n"
        f"light XOR stream ({len(decision.sources)} group reads):     "
        f"{record.engine_seconds:.4f} s\n"
        f"speedup:    {record.speedup:.1f}x\n"
        f"throughput: {gb_per_s:.2f} GB/s rebuilt\n"
        f"engine stats: {stats}"
    )
    write_report("xor_plane.txt", report)
    print()
    print(report)


def test_xor_encode_throughput_and_identical():
    """Plane-dispatched encode vs the gather encode: byte-identical, with
    the plane's absolute throughput recorded (``xor_encode_mb_per_s``).

    The plane/gather *ratio* is printed only: 3.9-4.1x in three runs on
    the 2-core reference host.
    """
    code = rs_10_4()
    rng = np.random.default_rng(11)
    data3d = code.field.random_elements(rng, (1_000, code.k, 4_096))
    plane_engine = CodecEngine(code)
    gf_engine = GatherCodecEngine(code)

    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        gather_coded, gather_seconds = timed(lambda: gf_engine.encode_stripes(data3d))
        encode_plane = lambda: plane_engine.encode_stripes(data3d)
        plane_coded, plane_seconds = timed(encode_plane)
        for _ in range(2):  # best of three
            plane_seconds = min(plane_seconds, timed(encode_plane)[1])
    finally:
        gc.enable()
        gc.unfreeze()
    np.testing.assert_array_equal(gather_coded, plane_coded)
    assert plane_engine.xor_plane_calls == 3  # every timed encode ran on the plane
    mb = data3d.nbytes / 1e6
    record_metric("xor_encode_mb_per_s", mb / plane_seconds)
    schedule = code.encode_schedule()
    record_metric("xor_encode_xors_per_byte", schedule.xor_bytes_per_output_byte)
    print(
        f"\nencode {mb:.0f} MB: plane {mb / plane_seconds:.0f} MB/s "
        f"vs gather {mb / gather_seconds:.0f} MB/s "
        f"({gather_seconds / plane_seconds:.2f}x, "
        f"{schedule.xor_bytes_per_output_byte:.2f} XOR bytes/output byte)"
    )


def test_xor_reconstruct2_throughput_and_identical():
    """Plane-routed two-erasure RS(10,4) rebuild (ten survivors in, two
    blocks out, through the bit program) vs the gather rebuild:
    byte-identical, with the plane's rebuilt bytes per second recorded
    (``xor_reconstruct2_mb_per_s``).
    """
    code = rs_10_4()
    rng = np.random.default_rng(13)
    data3d = code.field.random_elements(rng, (1_000, code.k, 4_096))
    coded = code.encode_stripes(data3d)
    erased = (2, 11)
    available = {p: coded[:, p, :] for p in range(code.n) if p not in erased}
    plane_engine = CodecEngine(code)
    gf_engine = GatherCodecEngine(code)

    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        gather_rebuilt, gather_seconds = timed(
            lambda: gf_engine.reconstruct(erased, available)
        )
        rebuild_plane = lambda: plane_engine.reconstruct(erased, available)
        plane_rebuilt, plane_seconds = timed(rebuild_plane)
        for _ in range(2):  # best of three
            plane_seconds = min(plane_seconds, timed(rebuild_plane)[1])
    finally:
        gc.enable()
        gc.unfreeze()
    np.testing.assert_array_equal(gather_rebuilt, plane_rebuilt)
    np.testing.assert_array_equal(plane_rebuilt, coded[:, list(erased), :])
    assert plane_engine.xor_plane_calls == 3
    mb = plane_rebuilt.nbytes / 1e6
    record_metric("xor_reconstruct2_mb_per_s", mb / plane_seconds)
    print(
        f"\nreconstruct {erased} ({mb:.0f} MB rebuilt): plane "
        f"{mb / plane_seconds:.0f} MB/s vs gather {mb / gather_seconds:.0f} MB/s "
        f"({gather_seconds / plane_seconds:.2f}x)"
    )


def test_xor_heavy_repair_throughput_and_identical():
    """RS(10,4) single-block heavy repair of 256 x 8 KB stripes (one
    lost block rebuilt from ten survivors, the shape of
    ``codec_stripe_bytes``'s heavy sweep), which the cost model routes
    to the plane: byte-identical to the gather kernel, with the plane's
    rebuilt bytes per second and its ratio over gather recorded."""
    code = rs_10_4()
    rng = np.random.default_rng(17)
    data3d = code.field.random_elements(rng, (256, code.k, 8_192))
    coded = code.encode_stripes(data3d)
    lost = 0
    available = {p: coded[:, p, :] for p in range(code.n) if p != lost}
    plane_engine = CodecEngine(code)
    gf_engine = GatherCodecEngine(code)

    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        repair_gather = lambda: gf_engine.repair_stripes(lost, available)
        repair_plane = lambda: plane_engine.repair_stripes(lost, available)
        gather_rebuilt, gather_seconds = timed(repair_gather)
        plane_rebuilt, plane_seconds = timed(repair_plane)
        for _ in range(2):  # best of three, alternating
            gather_seconds = min(gather_seconds, timed(repair_gather)[1])
            plane_seconds = min(plane_seconds, timed(repair_plane)[1])
    finally:
        gc.enable()
        gc.unfreeze()
    np.testing.assert_array_equal(gather_rebuilt, plane_rebuilt)
    np.testing.assert_array_equal(plane_rebuilt, coded[:, lost, :])
    assert plane_engine.xor_plane_calls == 3 and plane_engine.gather_calls == 0
    mb = plane_rebuilt.nbytes / 1e6
    record_metric("xor_heavy_repair_mb_per_s", mb / plane_seconds)
    record_metric("xor_heavy_repair_speedup", gather_seconds / plane_seconds)
    print(
        f"\nheavy repair of block {lost} ({mb:.0f} MB rebuilt): plane "
        f"{mb / plane_seconds:.0f} MB/s vs gather {mb / gather_seconds:.0f} MB/s "
        f"({gather_seconds / plane_seconds:.2f}x)"
    )


# -- byte-identity sweeps ----------------------------------------------------


def _sweep_linear_code(code, max_erasures):
    """Every decodable pattern up to ``max_erasures``: the pattern's
    rebuild matrix through its compiled bit program equals the gather
    kernel, and the engine rebuilds the erased blocks.  (At 16 B slabs
    the engine itself takes the gather route.)"""
    engine = CodecEngine(code)
    field = code.field
    rng = np.random.default_rng(code.n)
    data3d = field.random_elements(rng, (2, code.k, 16))
    coded = engine.encode_stripes(data3d)
    generator = compile_xor_schedule(field, code.generator.T)
    np.testing.assert_array_equal(coded, generator.apply(data3d.transpose(1, 0, 2)))
    patterns = 0
    for erasures in range(1, max_erasures + 1):
        for erased in combinations(range(code.n), erasures):
            available = set(range(code.n)) - set(erased)
            if not code.is_decodable(available):
                continue
            chosen, rebuild = engine.reconstruction_matrix(erased, mask_of(available))
            slabs = [coded[:, p, :] for p in chosen]
            plane_rebuilt = compile_xor_schedule(field, rebuild).apply(slabs)
            assert np.array_equal(
                plane_rebuilt, gf_matmul_batch(field, rebuild, slabs)
            ), erased
            payloads = {p: coded[:, p, :] for p in available}
            engine_rebuilt = engine.reconstruct(erased, payloads)
            for j, position in enumerate(erased):
                assert np.array_equal(
                    engine_rebuilt[:, j, :], coded[:, position, :]
                ), (erased, position)
                assert np.array_equal(
                    plane_rebuilt[:, j, :], coded[:, position, :]
                ), (erased, position)
            patterns += 1
    assert patterns > 0
    return patterns


def _sweep_src(max_losses):
    """SRC node-loss sweep: both halves decode through the precode's
    engine, byte-identical to a gather-only precode and to the data.
    (The halves' RS(10,4) decode runs on the gather route at 16 B; its
    bit programs are the RS sweep's.)"""
    src_fast = SimpleRegeneratingCode(14, 10)
    src_slow = SimpleRegeneratingCode(14, 10)
    # The halves decode through the precode's engine; pin the reference
    # instance's engine to the gather path.
    src_slow.precode._engine = GatherCodecEngine(src_slow.precode)
    rng = np.random.default_rng(14)
    data = src_fast.field.random_elements(rng, (2 * src_fast.k, 16))
    triples = src_fast.encode(data)
    patterns = 0
    for losses in range(1, max_losses + 1):
        for lost in combinations(range(src_fast.n), losses):
            surviving = {
                node: triples[node]
                for node in range(src_fast.n)
                if node not in lost
            }
            try:
                fast_decoded = src_fast.decode(surviving)
            except DecodingError:
                continue
            assert np.array_equal(fast_decoded, src_slow.decode(surviving)), lost
            assert np.array_equal(fast_decoded, data), lost
            patterns += 1
    assert patterns > 0
    return patterns


SWEEP_CODES = [rs_10_4, xorbas_lrc, pyramid_10_4]


@pytest.mark.parametrize("make_code", SWEEP_CODES, ids=lambda f: f.__name__)
def test_plane_byte_identical_two_erasure_prefix(make_code):
    """Smoke-lane slice of the sweep: all single and double erasures."""
    _sweep_linear_code(make_code(), max_erasures=2)


def test_src_byte_identical_two_loss_prefix():
    _sweep_src(max_losses=2)


@pytest.mark.slow
@pytest.mark.parametrize("make_code", SWEEP_CODES, ids=lambda f: f.__name__)
def test_plane_byte_identical_every_decodable_pattern(make_code):
    """Nightly: every decodable pattern up to n - k erasures."""
    code = make_code()
    patterns = _sweep_linear_code(code, max_erasures=code.n - code.k)
    record_metric(f"xor_sweep_patterns_{code.name}", patterns)


@pytest.mark.slow
def test_src_byte_identical_every_decodable_pattern():
    patterns = _sweep_src(max_losses=4)
    record_metric("xor_sweep_patterns_SRC(14,10,2)", patterns)
