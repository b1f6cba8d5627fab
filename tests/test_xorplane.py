"""The compiled XOR plane's correctness contract.

A compiled :class:`~repro.codes.xorplane.XorSchedule` must compute
exactly ``A @ in`` over GF(2^w) — byte-identical to the gather kernel
``gf_matmul_batch`` and to the scalar spec — for every matrix, however
CSE factored the program.  These tests hold that contract against
randomized matrices (w=4 and w=8), against the naive bit-matrix
multiply of the Cauchy-RS spec, and over every decodable erasure
pattern of the GF16 small codes, and across the bit program's chunk
boundaries; plus the lane-parallel bit-plane layout, the cost model
that routes each call by its slab size, the schedule cache's LRU
bookkeeping and the planner's pure-XOR stream marking.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.codes import (
    CauchyRSCode,
    CodecEngine,
    PyramidCode,
    DecoderCache,
    ReedSolomonCode,
    compile_xor_schedule,
    cse_rows,
    make_lrc,
    rs_10_4,
    xorbas_lrc,
)
from repro.codes import xorplane
from repro.codes.base import mask_of
from repro.codes.xorplane import (
    CHUNK_SYMBOLS,
    GATHER_PASS_COST,
    INDEX_COST,
    WORD_OP_COST,
    XorSchedule,
    classify_rows,
)
from repro.galois.bitplane import _lane_transpose
from repro.spec import GatherCodecEngine, xor_encode
from repro.galois import (
    GF16,
    GF256,
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
    def test_lane_transpose_is_an_involution(self):
        rng = np.random.default_rng(3)
        words = rng.integers(0, 2**64, size=(3, 8, 40), dtype=np.uint64)
        once = words.copy()
        _lane_transpose(once)
        assert not np.array_equal(once, words)
        _lane_transpose(once)
        assert np.array_equal(once, words)

    @pytest.mark.parametrize("length", [1, 7, 8, 9, 63, 64, 65, 1000])
    @pytest.mark.parametrize("m", [4, 8])
    def test_pack_unpack_roundtrip(self, length, m):
        rng = np.random.default_rng(length * 31 + m)
        for blocks in (1, 3):
            symbols = rng.integers(0, 1 << m, size=(blocks, length), dtype=np.uint8)
            planes = pack_bitplanes(symbols)
            assert planes.shape == (blocks, 8, -(-length // 64) * 8)
            assert not planes[:, m:].any()  # symbols below 2^m: upper planes zero
            assert np.array_equal(unpack_bitplanes(planes[:, :m], length), symbols)

    def test_planes_hold_the_right_bits(self):
        """Plane s, byte g, bit t is bit s of symbol t * N/8 + g."""
        rng = np.random.default_rng(5)
        symbols = rng.integers(0, 256, size=(2, 100), dtype=np.uint8)
        planes = pack_bitplanes(symbols)
        padded = np.zeros((2, 128), dtype=np.uint8)  # N = 100 padded to 128
        padded[:, :100] = symbols
        rows = padded.reshape(2, 8, 16)  # row t holds symbols t * 16 + g
        for bit in range(8):
            unpacked = np.unpackbits(planes[:, bit], axis=1, bitorder="little")
            by_lane = unpacked.reshape(2, 16, 8).transpose(0, 2, 1)  # [block, t, g]
            assert np.array_equal(by_lane, (rows >> bit) & 1), bit

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
            slabs = batch.transpose(1, 0, 2)  # one strided slab per block
            assert np.array_equal(
                schedule.apply(slabs), gf_matmul_batch(field, matrix, slabs)
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
        assert schedule.sliced_outputs
        slabs = batch.transpose(1, 0, 2)
        assert np.array_equal(
            schedule.apply(slabs), gf_matmul_batch(field, matrix, slabs)
        )

    def test_cauchy_xor_encode_spec_agrees_with_plane(self):
        """The difftest pair: naive bit-matrix spec vs compiled schedule."""
        code = CauchyRSCode(4, 2, field=GF256)
        rng = np.random.default_rng(29)
        data3d = code.field.random_elements(rng, (5, code.k, WIDTH))
        schedule = compile_xor_schedule(code.field, code.generator.T)
        assert isinstance(schedule, XorSchedule)
        coded = schedule.apply(data3d.transpose(1, 0, 2))
        for s in range(data3d.shape[0]):
            assert np.array_equal(coded[s], xor_encode(code, data3d[s])), s

    def test_large_field_bit_program_unsupported_but_word_rows_fine(self):
        from repro.galois import GF
        field = GF(16)  # 16-bit symbols: bit planes assume m <= 8
        multiplicative = np.array([[2, 3]], dtype=field.dtype)
        # The plane is priced out, so the engine never compiles it ...
        rows = classify_rows(field, multiplicative)
        assert not rows.supported and rows.plane == (np.inf, np.inf)
        assert rows.route(1 << 30) is None and rows.schedule is None
        # ... and compiling it directly is refused.
        with pytest.raises(ValueError, match="no bit program"):
            compile_xor_schedule(field, multiplicative)
        xor_only = np.array([[1, 1]], dtype=field.dtype)
        schedule = compile_xor_schedule(field, xor_only)
        assert schedule.supported and not schedule.sliced_outputs


class TestSlabInputs:
    """Both routes take one ``(stripes, width)`` slab per input block."""

    MATRICES = {
        "plane": np.array([[1, 1, 0], [3, 7, 9]], dtype=np.uint8),
        "word": np.array([[1, 1, 1]], dtype=np.uint8),
    }

    @pytest.mark.parametrize("kind", sorted(MATRICES))
    def test_mixed_layouts_match_stacked_batch(self, kind):
        """A contiguous slab, a strided column view and a 1-D payload
        (one stripe) give the product of the stacked batch."""
        field, matrix = GF256, self.MATRICES[kind]
        rng = np.random.default_rng(71)
        batch = field.random_elements(rng, (1, 3, WIDTH))
        wide = np.repeat(batch, 2, axis=2)
        slabs = [np.ascontiguousarray(batch[:, 0]), wide[:, 1, ::2], batch[0, 2]]
        expected = gf_matmul_batch(field, matrix, batch.transpose(1, 0, 2))
        assert np.array_equal(gf_matmul_batch(field, matrix, slabs), expected)
        schedule = compile_xor_schedule(field, matrix)
        assert np.array_equal(schedule.apply(slabs), expected)

    @pytest.mark.parametrize("route", ["plane", "gather"])
    @pytest.mark.parametrize(
        "slabs, message",
        [
            ([np.zeros((2, 4), np.uint8)] * 2 + [np.zeros((2, 1, 4), np.uint8)],
             "expected \\(width,\\) or \\(stripes, width\\)"),
            ([np.zeros((2, 4), np.uint8)] * 2 + [np.zeros((2, 5), np.uint8)],
             "differs from"),
            ([np.zeros((2, 4), np.uint8)] * 2 + [np.zeros((3, 4), np.uint8)],
             "differs from"),
            ([np.zeros((2, 4), np.uint8)] * 2, "slabs"),
        ],
        ids=["ndim", "width", "stripes", "count"],
    )
    def test_malformed_slabs_raise(self, route, slabs, message):
        matrix = self.MATRICES["plane"]
        with pytest.raises(ValueError, match=message):
            if route == "plane":
                compile_xor_schedule(GF256, matrix).apply(slabs)
            else:
                gf_matmul_batch(GF256, matrix, slabs)


class TestCostModel:
    """Both routes are priced ``fixed + per_symbol * symbols``; a pattern
    compiles on the first call whose size lets the plane pay for its
    program, and keeps the gather kernel below that."""

    SMALL = 64  # one simulator payload
    LARGE = 1 << 21  # one 2 MB block

    def test_pure_xor_plan_prices_below_gather(self):
        code = xorbas_lrc()
        plan = next(
            p for p in code.repair_plans(0) if p.is_xor_only()
        )
        matrix = np.asarray([plan.coefficients], dtype=code.field.dtype)
        rows = classify_rows(code.field, matrix)
        assert rows.gather[1] == len(plan.sources) * WORD_OP_COST
        # Compiled, the pure-XOR stream is cheaper at every size ...
        schedule = compile_xor_schedule(code.field, matrix)
        assert not schedule.sliced_outputs  # pure XOR: no bit slicing
        assert all(p < g for p, g in zip(schedule.plane, rows.gather))
        # ... but a 64 B call saves too little to pay for compiling it.
        assert rows.route(self.SMALL) is None and rows.schedule is None
        assert rows.route(self.LARGE) is rows.schedule is not None

    @pytest.mark.parametrize("symbols, plane", [(SMALL, False), (LARGE, True)])
    def test_dense_multiplicative_single_row_keeps_gf_path(self, symbols, plane):
        """A lone multiplicative row keeps the gather path on small slabs
        (slicing's fixed cost and the compile outweigh two gathers) and
        takes the plane once the slab pays for both."""
        field = GF256
        rows = classify_rows(field, np.array([[3, 7]], dtype=field.dtype))
        assert rows.gather[1] == 2 * (WORD_OP_COST + GATHER_PASS_COST + INDEX_COST)
        assert (rows.route(symbols) is not None) == plane
        assert (rows.schedule is not None) == plane  # gather compiles nothing

    def test_systematic_encode_uses_plane_on_large_slabs(self):
        for code in (ReedSolomonCode(4, 2, field=GF16), xorbas_lrc()):
            rows = classify_rows(code.field, code.generator.T)
            assert rows.route(self.SMALL) is None, code.name
            schedule = rows.route(self.LARGE)
            assert schedule is not None, code.name
            assert len(schedule.copies) == code.k
            assert schedule.xor_bytes_per_output_byte > 0
            assert code.encode_schedule().copies == schedule.copies


class TestScheduleCache:
    def test_eviction_and_reentry_identical_bytes(self):
        code = ReedSolomonCode(4, 2, field=GF16)
        engine = CodecEngine(code, cache_size=2)
        assert isinstance(engine.schedules, DecoderCache)
        assert engine.schedules.maxsize == 2
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
        for erased in patterns:  # re-entry reclassifies to identical bytes
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
        # 16 B slabs: both encodes took the gather kernel.
        assert (stats.xor_plane_calls, stats.gather_calls) == (0, 2)
        assert "0 XOR-plane calls" in str(stats)
        assert "2 gather calls / 4 stripes" in str(stats)

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
        """Acceptance sweep at GF16 scale: every pattern's decode and
        rebuild matrix runs through its compiled bit program, byte-identical
        to the gather kernel, and the engine matches the gather-only one."""
        field = code.field
        rng = np.random.default_rng(43)
        data3d = field.random_elements(rng, (3, code.k, WIDTH))
        fast = CodecEngine(code)
        slow = GatherCodecEngine(code)

        def plane_matches_gather(matrix, slabs):
            schedule = compile_xor_schedule(field, matrix)
            assert np.array_equal(
                schedule.apply(slabs), gf_matmul_batch(field, matrix, slabs)
            )

        plane_matches_gather(code.generator.T, data3d.transpose(1, 0, 2))
        coded = fast.encode_stripes(data3d)
        assert np.array_equal(coded, slow.encode_stripes(data3d))
        patterns = 0
        for erased, available in decodable_patterns(code):
            payloads = {p: coded[:, p, :] for p in available}
            chosen, decode = fast.decode_matrix(mask_of(available))
            plane_matches_gather(decode, [payloads[p] for p in chosen])
            chosen, rebuild = fast.reconstruction_matrix(erased, mask_of(available))
            plane_matches_gather(rebuild, [payloads[p] for p in chosen])
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


class TestPricedRouting:
    """Each call takes the route the cost model prices.  At the
    simulator's 64 B payloads, one stripe or a 500-stripe batch, every
    encode, repair and rebuild runs on the gather kernel and no pattern
    compiles; on 256 x 8 KB slabs every one runs on the plane.  Either
    way the bytes are the gather-only engine's."""

    @pytest.mark.parametrize(
        "stripes, width, plane",
        [(1, 64, False), (500, 64, False), (256, 8192, True)],
        ids=["1x64B", "500x64B", "256x8KB"],
    )
    @pytest.mark.parametrize("make_code", [rs_10_4, xorbas_lrc], ids=["rs", "lrc"])
    def test_calls_take_the_priced_route(
        self, make_code, stripes, width, plane, monkeypatch
    ):
        compiles = []
        compile_schedule = xorplane.compile_xor_schedule
        monkeypatch.setattr(
            xorplane, "compile_xor_schedule",
            lambda *args: compiles.append(args) or compile_schedule(*args),
        )
        code = make_code()
        engine, gather = CodecEngine(code), GatherCodecEngine(code)
        rng = np.random.default_rng(stripes)
        data3d = code.field.random_elements(rng, (stripes, code.k, width))
        coded = gather.encode_stripes(data3d)

        def survivors(*erased):
            return {p: coded[:, p] for p in range(code.n) if p not in erased}

        calls = [  # RS repairs are heavy, LRC repairs light XOR plans
            lambda e: e.encode_stripes(data3d),
            lambda e: e.repair_stripes(0, survivors(0)),
            lambda e: e.repair_stripes(code.n - 1, survivors(code.n - 1)),
            lambda e: e.reconstruct((2, code.k + 1), survivors(2, code.k + 1)),
        ]
        for index, call in enumerate(calls):
            before = engine.xor_plane_calls, engine.gather_calls
            assert np.array_equal(call(engine), call(gather)), index
            took = engine.xor_plane_calls - before[0], engine.gather_calls - before[1]
            assert took == ((1, 0) if plane else (0, 1)), index
        assert len(compiles) == (len(calls) if plane else 0)


class TestChunkBoundaries:
    """The bit program runs CHUNK_SYMBOLS symbols per block at a time;
    slabs just under, at and over one chunk, and one crossing two chunk
    boundaries with a length that is no multiple of 64, stay
    byte-identical to the gather kernel."""

    @pytest.mark.parametrize(
        "stripes, width",
        [
            (1, CHUNK_SYMBOLS - 1),
            (1, CHUNK_SYMBOLS),
            (1, CHUNK_SYMBOLS + 1),
            (3, 2 * CHUNK_SYMBOLS // 3 + 5),
        ],
    )
    def test_rs_encode_and_two_erasure_rebuild(self, stripes, width):
        code = ReedSolomonCode(10, 4)
        rng = np.random.default_rng(width)
        data3d = code.field.random_elements(rng, (stripes, code.k, width))
        fast = CodecEngine(code)
        slow = GatherCodecEngine(code)
        coded = fast.encode_stripes(data3d)
        assert np.array_equal(coded, slow.encode_stripes(data3d))
        erased = (2, 11)
        payloads = {p: coded[:, p, :] for p in range(code.n) if p not in erased}
        rebuilt = fast.reconstruct(erased, payloads)
        assert np.array_equal(rebuilt, slow.reconstruct(erased, payloads))
        assert fast.xor_plane_calls == 2  # both ran through the bit program


class TestXorOnlyLightPlans:
    def test_lrc_light_repair_is_xor_only(self):
        code = xorbas_lrc()
        decision = code.planner.plan_block(0, mask_of(range(1, code.n)))
        assert decision.light and decision.plan.is_xor_only()
        assert all(c == 1 for c in decision.plan.coefficients)

    def test_pyramid_light_repair_is_not(self):
        code = PyramidCode(4, 2, 2, field=GF16)
        decision = code.planner.plan_block(0, mask_of(range(1, code.n)))
        assert decision.light and not decision.plan.is_xor_only()

    def test_heavy_repair_has_no_plan(self):
        code = ReedSolomonCode(4, 2, field=GF16)
        decision = code.planner.plan_block(0, mask_of(range(1, code.n)))
        assert decision.kind == "heavy" and decision.plan is None
