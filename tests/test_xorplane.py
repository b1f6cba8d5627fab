"""The compiled XOR plane's correctness contract.

A compiled :class:`~repro.codes.xorplane.XorSchedule` must compute
exactly ``A @ in`` over GF(2^w) — byte-identical to the gather kernel
``gf_matmul_batch`` and to the scalar spec — for every matrix, however
CSE factored the program.  These tests hold that contract against
randomized matrices (w=4 and w=8), against the naive bit-matrix
multiply of the Cauchy-RS spec, and over every decodable erasure
pattern of the GF16 small codes; plus the :class:`ScheduleCache`
LRU bookkeeping and the planner's pure-XOR stream marking.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.codes import (
    CauchyRSCode,
    CodecEngine,
    PyramidCode,
    ReedSolomonCode,
    ScheduleCache,
    compile_xor_schedule,
    cse_rows,
    make_lrc,
    xorbas_lrc,
)
from repro.codes.base import mask_of
from repro.codes.xorplane import GATHER_PASS_COST, WORD_OP_COST, XorSchedule
from repro.spec import GatherCodecEngine, xor_encode
from repro.galois import (
    GF16,
    GF256,
    bit_transpose8,
    gf_element_bitmatrix,
    gf_matmul_batch,
    gf_matrix_to_bitmatrix,
    pack_bitplanes,
    unpack_bitplanes,
)

WIDTH = 9


def small_codes():
    return [
        ReedSolomonCode(4, 2, field=GF16),
        make_lrc(4, 2, 2, field=GF16),
        PyramidCode(4, 2, 2, field=GF16),
        CauchyRSCode(4, 2, field=GF16),
    ]


def decodable_patterns(code):
    for erasures in range(1, code.n - code.k + 1):
        for erased in combinations(range(code.n), erasures):
            available = set(range(code.n)) - set(erased)
            if code.is_decodable(available):
                yield tuple(erased), tuple(sorted(available))


class TestBitplaneKernels:
    def test_bit_transpose8_is_an_involution(self):
        rng = np.random.default_rng(3)
        words = rng.integers(0, 2**64, size=64, dtype=np.uint64)
        assert np.array_equal(bit_transpose8(bit_transpose8(words)), words)

    @pytest.mark.parametrize("length", [1, 7, 8, 9, 64, 1000])
    @pytest.mark.parametrize("m", [4, 8])
    def test_pack_unpack_roundtrip(self, length, m):
        rng = np.random.default_rng(length * 31 + m)
        symbols = rng.integers(0, 1 << m, size=length, dtype=np.uint8)
        planes = pack_bitplanes(symbols, m)
        assert planes.shape[0] == m
        assert np.array_equal(unpack_bitplanes(planes, length), symbols)

    def test_planes_hold_the_right_bits(self):
        symbols = np.arange(16, dtype=np.uint8)
        planes = pack_bitplanes(symbols, 4)
        for bit in range(4):
            unpacked = np.unpackbits(planes[bit], bitorder="little")[:16]
            assert np.array_equal(unpacked, (symbols >> bit) & 1), bit

    @pytest.mark.parametrize("field", [GF16, GF256], ids=lambda f: f"GF{f.order}")
    def test_bitmatrix_is_the_multiplication_map(self, field):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = int(rng.integers(0, field.order))
            v = int(rng.integers(0, field.order))
            matrix = gf_element_bitmatrix(field, a)
            bits = (v >> np.arange(field.m)) & 1
            product = (matrix @ bits) % 2
            value = int((product << np.arange(field.m)).sum())
            assert value == field.mul(a, v), (a, v)

    @pytest.mark.parametrize("field", [GF16, GF256], ids=lambda f: f"GF{f.order}")
    def test_matrix_to_bitmatrix_matches_elementwise(self, field):
        rng = np.random.default_rng(13)
        mat = field.random_elements(rng, (3, 5))
        bits = gf_matrix_to_bitmatrix(field, mat)
        m = field.m
        for i in range(3):
            for j in range(5):
                block = bits[i * m : (i + 1) * m, j * m : (j + 1) * m]
                assert np.array_equal(
                    block, gf_element_bitmatrix(field, int(mat[i, j]))
                )


class TestCseRows:
    def _expand(self, nodes, defs, num_leaves):
        """XOR-expand a node set back to its leaf set (symmetric difference)."""
        leaves = set()
        def visit(nid):
            if nid < num_leaves:
                leaves.symmetric_difference_update({nid})
            else:
                a, b = defs[nid - num_leaves]
                visit(a)
                visit(b)
        for nid in nodes:
            visit(nid)
        return leaves

    def test_factored_rows_expand_to_the_originals(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            num_leaves = int(rng.integers(4, 40))
            rows = [
                sorted(
                    rng.choice(
                        num_leaves,
                        size=int(rng.integers(0, num_leaves + 1)),
                        replace=False,
                    ).tolist()
                )
                for _ in range(int(rng.integers(1, 30)))
            ]
            defs, row_nodes = cse_rows(rows, num_leaves)
            for row, nodes in zip(rows, row_nodes):
                assert self._expand(nodes, defs, num_leaves) == set(row), trial

    def test_shared_pair_is_hoisted(self):
        defs, row_nodes = cse_rows([[0, 1, 2], [0, 1, 3], [0, 1]], num_leaves=4)
        assert (0, 1) in defs  # the thrice-shared pair became a node
        ops = len(defs) + sum(max(0, len(n) - 1) for n in row_nodes)
        naive = sum(max(0, len(r) - 1) for r in [[0, 1, 2], [0, 1, 3], [0, 1]])
        assert ops < naive

    def test_deterministic(self):
        rows = [[0, 2, 4, 6], [1, 2, 4, 7], [0, 2, 4], [3, 5]]
        assert cse_rows(rows, 8) == cse_rows(rows, 8)

    def test_cse_never_increases_op_count(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            num_leaves = int(rng.integers(8, 64))
            rows = [
                rng.choice(num_leaves, size=int(rng.integers(2, 8)), replace=False).tolist()
                for _ in range(12)
            ]
            defs, row_nodes = cse_rows(rows, num_leaves)
            ops = len(defs) + sum(max(0, len(n) - 1) for n in row_nodes)
            naive = sum(len(r) - 1 for r in rows)
            assert ops <= naive


class TestScheduleMatchesGatherKernel:
    @pytest.mark.parametrize("field", [GF16, GF256], ids=lambda f: f"GF{f.order}")
    def test_random_matrices_byte_identical(self, field):
        rng = np.random.default_rng(field.m)
        for trial in range(15):
            out_blocks = int(rng.integers(1, 6))
            in_blocks = int(rng.integers(1, 8))
            matrix = field.random_elements(rng, (out_blocks, in_blocks))
            batch = field.random_elements(rng, (3, in_blocks, WIDTH))
            schedule = compile_xor_schedule(field, matrix)
            assert schedule.supported
            assert np.array_equal(
                schedule.apply(batch), gf_matmul_batch(field, matrix, batch)
            ), trial

    def test_mixed_row_kinds_in_one_schedule(self):
        field = GF256
        matrix = np.array(
            [
                [0, 0, 0, 0],  # zero row
                [0, 1, 0, 0],  # copy
                [1, 1, 0, 1],  # pure-XOR word row
                [3, 7, 0, 9],  # bit row (multiplicative)
            ],
            dtype=field.dtype,
        )
        rng = np.random.default_rng(23)
        batch = field.random_elements(rng, (4, 4, WIDTH))
        schedule = compile_xor_schedule(field, matrix)
        assert schedule.zero_rows == [0]
        assert schedule.copies == [(1, 1)]
        assert [row for row, _ in schedule.word_rows] == [2]
        assert schedule.sliced_outputs == (3,)
        assert not schedule.pure_xor
        assert np.array_equal(
            schedule.apply(batch), gf_matmul_batch(field, matrix, batch)
        )

    def test_cauchy_xor_encode_spec_agrees_with_plane(self):
        """The difftest pair: naive bit-matrix spec vs compiled schedule."""
        code = CauchyRSCode(4, 2, field=GF256)
        rng = np.random.default_rng(29)
        data3d = code.field.random_elements(rng, (5, code.k, WIDTH))
        schedule = compile_xor_schedule(code.field, code.generator.T)
        assert isinstance(schedule, XorSchedule)
        coded = schedule.apply(data3d)
        for s in range(data3d.shape[0]):
            assert np.array_equal(coded[s], xor_encode(code, data3d[s])), s

    def test_large_field_bit_program_unsupported_but_word_rows_fine(self):
        from repro.galois import GF
        field = GF(16)  # 16-bit symbols: bit planes assume m <= 8
        multiplicative = np.array([[2, 3]], dtype=field.dtype)
        unsupported = compile_xor_schedule(field, multiplicative)
        assert not unsupported.supported and not unsupported.use_plane
        # Nothing is compiled for a schedule the engine never runs.
        assert unsupported.bit_ops == [] and unsupported.bit_nodes == 0
        xor_only = np.array([[1, 1]], dtype=field.dtype)
        schedule = compile_xor_schedule(field, xor_only)
        assert schedule.supported and schedule.pure_xor


class TestCostModel:
    def test_pure_xor_stream_prices_below_gather(self):
        code = xorbas_lrc()
        plan = next(
            p for p in code.repair_plans(0) if p.is_xor_only()
        )
        matrix = np.asarray([plan.coefficients], dtype=code.field.dtype)
        schedule = compile_xor_schedule(code.field, matrix)
        assert schedule.pure_xor and schedule.use_plane
        assert schedule.xor_cost < schedule.gf_cost
        assert schedule.gf_cost == len(plan.sources) * WORD_OP_COST

    def test_dense_multiplicative_single_row_keeps_gf_path(self):
        """A lone multiplicative row pays slicing > gather: plane declines."""
        field = GF256
        matrix = np.array([[3, 7]], dtype=field.dtype)
        schedule = compile_xor_schedule(field, matrix)
        assert schedule.supported and not schedule.use_plane
        assert schedule.gf_cost == 2 * GATHER_PASS_COST

    def test_systematic_encode_uses_plane(self):
        for code in (ReedSolomonCode(4, 2, field=GF16), xorbas_lrc()):
            schedule = code.encode_schedule()
            assert schedule.use_plane, code.name
            assert len(schedule.copies) == code.k
            assert schedule.xor_bytes_per_output_byte > 0


class TestScheduleCache:
    def test_eviction_and_reentry_identical_bytes(self):
        code = ReedSolomonCode(4, 2, field=GF16)
        engine = CodecEngine(code, cache_size=2)
        assert isinstance(engine.schedules, ScheduleCache)
        rng = np.random.default_rng(31)
        data3d = code.field.random_elements(rng, (6, code.k, WIDTH))
        coded = engine.encode_stripes(data3d)
        patterns = [(0, 1), (2, 3), (4, 5), (0, 2), (1, 3)]
        first_pass = {}
        for erased in patterns:
            available = {
                p: coded[:, p, :] for p in range(code.n) if p not in erased
            }
            first_pass[erased] = engine.reconstruct(erased, available)
        assert engine.schedules.evictions > 0  # the LRU actually cycled
        for erased in patterns:  # re-entry recompiles to identical bytes
            available = {
                p: coded[:, p, :] for p in range(code.n) if p not in erased
            }
            assert np.array_equal(
                engine.reconstruct(erased, available), first_pass[erased]
            )

    def test_schedule_hits_counted_in_stats(self):
        code = xorbas_lrc()
        engine = CodecEngine(code)
        rng = np.random.default_rng(37)
        data3d = code.field.random_elements(rng, (2, code.k, 16))
        engine.encode_stripes(data3d)
        misses = engine.schedules.misses
        engine.encode_stripes(data3d)
        assert engine.schedules.hits >= 1
        assert engine.schedules.misses == misses
        stats = engine.stats()
        assert stats.schedule_hits == engine.schedules.hits
        assert stats.xor_plane_calls >= 2
        assert "XOR-plane" in str(stats)

    def test_disabling_the_plane_bypasses_cache_and_matches(self):
        code = xorbas_lrc()
        rng = np.random.default_rng(41)
        data3d = code.field.random_elements(rng, (3, code.k, 32))
        fast = CodecEngine(code).encode_stripes(data3d)
        slow_engine = GatherCodecEngine(code)
        slow = slow_engine.encode_stripes(data3d)
        assert np.array_equal(fast, slow)
        assert slow_engine.xor_plane_calls == 0
        assert len(slow_engine.schedules) == 0


class TestEngineDispatchByteIdentical:
    @pytest.mark.parametrize("code", small_codes(), ids=lambda c: c.name)
    def test_every_decodable_pattern_plane_vs_gf(self, code):
        """Acceptance sweep at GF16 scale: plane == GF path everywhere."""
        rng = np.random.default_rng(43)
        data3d = code.field.random_elements(rng, (3, code.k, WIDTH))
        fast = CodecEngine(code)
        slow = GatherCodecEngine(code)
        coded = fast.encode_stripes(data3d)
        assert np.array_equal(coded, slow.encode_stripes(data3d))
        patterns = 0
        for erased, available in decodable_patterns(code):
            payloads = {p: coded[:, p, :] for p in available}
            assert np.array_equal(
                fast.decode_stripes(payloads), slow.decode_stripes(payloads)
            ), erased
            assert np.array_equal(
                fast.reconstruct(erased, payloads),
                slow.reconstruct(erased, payloads),
            ), erased
            patterns += 1
        assert patterns > 0

    def test_repair_stripes_light_path_matches(self):
        code = xorbas_lrc()
        rng = np.random.default_rng(47)
        data3d = code.field.random_elements(rng, (4, code.k, 64))
        coded = code.encode_stripes(data3d)
        for lost in (0, 5, 10, 13):
            available = {
                p: coded[:, p, :] for p in range(code.n) if p != lost
            }
            rebuilt = code.repair_stripes(lost, available)
            assert np.array_equal(rebuilt, coded[:, lost, :]), lost

    def test_single_stripe_2d_payloads_stream_too(self):
        """The pure-XOR stream accepts the scalar (width,) payload shape."""
        code = xorbas_lrc()
        rng = np.random.default_rng(53)
        data = code.field.random_elements(rng, (code.k, 48))
        coded = code.encode(data)
        available = {p: coded[p] for p in range(code.n) if p != 2}
        rebuilt = code.repair_stripes(2, available)
        assert rebuilt.shape == (1, 48)  # 1-D promotes to one stripe
        assert np.array_equal(rebuilt[0], coded[2])


class TestXorStreamMarking:
    def test_lrc_light_repair_is_an_xor_stream(self):
        code = xorbas_lrc()
        decision = code.planner.plan_block(0, mask_of(range(1, code.n)))
        assert decision.light and decision.xor_stream
        assert all(c == 1 for c in decision.plan.coefficients)

    def test_pyramid_light_repair_is_not(self):
        code = PyramidCode(4, 2, 2, field=GF16)
        decision = code.planner.plan_block(0, mask_of(range(1, code.n)))
        assert decision.light and not decision.xor_stream

    def test_heavy_repair_never_marked(self):
        code = ReedSolomonCode(4, 2, field=GF16)
        decision = code.planner.plan_block(0, mask_of(range(1, code.n)))
        assert decision.kind == "heavy" and not decision.xor_stream
