"""Cross-family design-space comparison (Section 6's related-work survey).

Regenerates the five-scheme table (replication / RS / Pyramid / LRC /
SRC) and asserts the orderings the paper's survey narrates: RS is the
storage-optimal corner with the worst repair, SRC is the bandwidth-
optimal corner with heavy storage, LRC is the intermediate point with
full local coverage — the "new operating point" of the conclusion.
"""

import numpy as np
import pytest

from repro.codes import (
    SimpleRegeneratingCode,
    pyramid_10_4,
    rs_10_4,
    xorbas_lrc,
)
from repro.experiments.baselines import compare_baselines, render_baselines

from conftest import write_report

BLOCK_BYTES = 1 << 18  # 256 KiB payloads for the throughput comparison


def test_baseline_design_space(benchmark):
    rows = benchmark(compare_baselines)
    report = render_baselines(rows)
    write_report("baselines_design_space.txt", report)
    print()
    print(report)
    by_name = {r.scheme: r for r in rows}
    # Repair-download spectrum (blocks): 1 < 3 < 5 < 6 < 10.
    assert by_name["3-replication"].single_repair_blocks == 1.0
    assert by_name["SRC(14,10,2)"].single_repair_blocks == 3.0
    assert by_name["LRC (10,6,5)"].single_repair_blocks == 5.0
    assert by_name["Pyramid (10,4+2)"].single_repair_blocks == pytest.approx(6.0)
    assert by_name["RS (10,4)"].single_repair_blocks == 10.0
    # Storage spectrum: 0.4 < 0.5 < 0.6 < 1.1 < 2.0.
    overheads = [
        by_name[s].storage_overhead
        for s in (
            "RS (10,4)",
            "Pyramid (10,4+2)",
            "LRC (10,6,5)",
            "SRC(14,10,2)",
            "3-replication",
        )
    ]
    assert overheads == sorted(overheads)
    # Only LRC and SRC cover every block with cheap repairs.
    assert by_name["LRC (10,6,5)"].locally_repairable_fraction == 1.0
    assert by_name["SRC(14,10,2)"].locally_repairable_fraction == 1.0
    assert by_name["Pyramid (10,4+2)"].locally_repairable_fraction < 1.0


def test_single_block_repair_throughput(benchmark):
    """Wall-clock repair of one lost block, per scheme, on real payloads.

    The paper's Section 5.1 metrics are byte counts; this supporting
    bench confirms the XOR light decoder is also computationally cheap
    relative to the Galois-field heavy decode.
    """
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, size=(10, BLOCK_BYTES), dtype=np.uint8)
    lrc = xorbas_lrc()
    rs = rs_10_4()
    pyramid = pyramid_10_4()
    coded = {"lrc": lrc.encode(data), "rs": rs.encode(data), "py": pyramid.encode(data)}

    def repair_everywhere():
        out = {}
        for name, code in (("lrc", lrc), ("rs", rs), ("py", pyramid)):
            blocks = coded[name]
            survivors = {i: blocks[i] for i in range(code.n) if i != 3}
            out[name] = code.repair(3, survivors)
        return out

    rebuilt = benchmark(repair_everywhere)
    for name, code in (("lrc", lrc), ("rs", rs), ("py", pyramid)):
        np.testing.assert_array_equal(rebuilt[name], coded[name][3])


def test_cauchy_xor_encode_matches_field_encode(benchmark):
    """Cauchy bit-matrix encoding: the same codeword from pure XORs.

    The ablation behind the paper's ci = 1 theme: once coefficients are
    XOR-friendly, the whole encode path can drop field multiplication.
    """
    from repro.codes import CauchyRSCode
    from repro.codes.cauchy import build_parity_bitmatrix, xor_count
    from repro.spec import xor_encode

    code = CauchyRSCode(10, 4)
    rng = np.random.default_rng(2)
    data = rng.integers(0, 256, size=(10, BLOCK_BYTES), dtype=np.uint8)
    expected = code.encode(data)

    coded = benchmark(xor_encode, code, data)
    np.testing.assert_array_equal(coded, expected)
    bits = build_parity_bitmatrix(code)
    write_report(
        "cauchy_xor_schedule.txt",
        (
            f"CauchyRS(10,4) parity bit-matrix: {bits.shape[0]}x{bits.shape[1]}\n"
            f"XORs per encoded word: {xor_count(bits)}\n"
            f"density: {bits.mean():.3f}"
        ),
    )


def test_src_ring_repair_throughput(benchmark):
    """SRC node repair: six half-block XORs, no field multiplications."""
    src = SimpleRegeneratingCode(14, 10)
    rng = np.random.default_rng(1)
    sub_blocks = rng.integers(0, 256, size=(20, BLOCK_BYTES // 2), dtype=np.uint8)
    storage = src.encode(sub_blocks)

    rebuilt = benchmark(src.repair_node, 5, storage)
    for got, want in zip(rebuilt, storage[5]):
        np.testing.assert_array_equal(got, want)
