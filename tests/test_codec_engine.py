"""The codec engine's correctness contract.

The batched/cached decode path must be *byte-identical* to the seed
scalar codec for every code family and every decodable erasure pattern —
the engine is an optimisation, never a semantic change.  The reference
is :mod:`repro.spec.codec`: greedy rank-recomputing survivor selection,
submatrix inversion, decode then re-encode.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.codes import (
    CauchyRSCode,
    CodecEngine,
    DecoderCache,
    DecodingError,
    PyramidCode,
    ReedSolomonCode,
    make_lrc,
    three_replication,
)
from hypothesis import given
from hypothesis import strategies as st

from repro.codes import (
    ErasureCode,
    LinearCode,
    RepairPlanner,
    pyramid_10_4,
    rs_10_4,
    xorbas_lrc,
)
from repro.codes.base import mask_of, positions_of
from repro.galois import GF16, GF256, gf_independent_columns, gf_rank_batch
from repro.spec import GatherCodecEngine
from repro.spec.codec import seed_columns, seed_decode, seed_encode

WIDTH = 9


def small_codes():
    return [
        ReedSolomonCode(4, 2, field=GF16),
        make_lrc(4, 2, 2, field=GF16),
        PyramidCode(4, 2, 2, field=GF16),
        CauchyRSCode(4, 2, field=GF16),
    ]


def decodable_patterns(code):
    """Every erasure pattern of up to n - k erasures that stays decodable."""
    for erasures in range(1, code.n - code.k + 1):
        for erased in combinations(range(code.n), erasures):
            available = set(range(code.n)) - set(erased)
            if code.is_decodable(available):
                yield tuple(erased), tuple(sorted(available))


class TestByteIdenticalToSeedPath:
    @pytest.mark.parametrize("code", small_codes(), ids=lambda c: c.name)
    def test_every_decodable_pattern_matches_seed_decode(self, code):
        rng = np.random.default_rng(17)
        data = code.field.random_elements(rng, (code.k, WIDTH))
        coded = seed_encode(code, data)
        assert np.array_equal(code.encode_stripes(data[None])[0], coded)
        patterns = 0
        for erased, available in decodable_patterns(code):
            payloads = {p: coded[p] for p in available}
            reference = seed_decode(code, payloads)
            assert np.array_equal(code.decode_stripes(payloads)[0], reference)
            rebuilt = code.reconstruct(erased, payloads)
            assert rebuilt.shape == (1, len(erased), WIDTH)
            for j, position in enumerate(erased):
                assert np.array_equal(rebuilt[0, j], coded[position]), (
                    code.name,
                    erased,
                    position,
                )
            patterns += 1
        assert patterns > 0

    @pytest.mark.parametrize("code", small_codes(), ids=lambda c: c.name)
    def test_batched_reconstruct_matches_per_stripe(self, code):
        rng = np.random.default_rng(23)
        data3d = code.field.random_elements(rng, (12, code.k, WIDTH))
        coded = code.encode_stripes(data3d)
        assert np.array_equal(
            coded, np.stack([seed_encode(code, stripe) for stripe in data3d])
        )
        erased = (0, code.k)
        available = {
            p: coded[:, p, :] for p in range(code.n) if p not in erased
        }
        rebuilt = code.reconstruct(erased, available)
        for j, position in enumerate(erased):
            assert np.array_equal(rebuilt[:, j, :], coded[:, position, :])

    @pytest.mark.parametrize("code", small_codes(), ids=lambda c: c.name)
    def test_decode_stripes_matches_seed_decode(self, code):
        rng = np.random.default_rng(29)
        data3d = code.field.random_elements(rng, (8, code.k, WIDTH))
        coded = code.encode_stripes(data3d)
        erased = (1, code.k + 1)
        available = {
            p: coded[:, p, :] for p in range(code.n) if p not in erased
        }
        decoded = code.engine.decode_stripes(available)
        assert np.array_equal(decoded, data3d)
        for s in range(data3d.shape[0]):
            reference = seed_decode(
                code, {p: plane[s] for p, plane in available.items()}
            )
            assert np.array_equal(decoded[s], reference)

    def test_replication_batched_matches_scalar(self):
        """Three-way replication is the linear code with an all-ones
        1 x 3 generator; the seed codec of that code is its oracle."""
        code = three_replication()
        repetition = LinearCode(GF256, np.ones((1, 3), dtype=np.uint8))
        rng = np.random.default_rng(5)
        data3d = code.field.random_elements(rng, (6, 1, WIDTH))
        coded = code.encode_stripes(data3d)
        assert np.array_equal(
            coded, np.stack([seed_encode(repetition, stripe) for stripe in data3d])
        )
        available = {1: coded[:, 1, :]}
        assert np.array_equal(code.decode_stripes(available), data3d)
        repaired = code.repair_stripes(0, available)
        for s in range(data3d.shape[0]):
            reference = seed_decode(repetition, {1: coded[s, 1]})
            assert np.array_equal(repaired[s], reference[0])


class TestDecoderCache:
    def test_eviction_and_reentry_preserve_results(self):
        """A pattern evicted and re-built must reproduce the same bytes."""
        code = ReedSolomonCode(4, 2, field=GF16)
        engine = CodecEngine(code, cache_size=2)
        rng = np.random.default_rng(3)
        data = code.field.random_elements(rng, (code.k, WIDTH))
        coded = code.encode(data)
        patterns = [(0,), (1,), (2,), (3,), (4,), (5,), (0, 1), (2, 4)]
        first_pass = {}
        for erased in patterns:
            available = {
                p: coded[p] for p in range(code.n) if p not in erased
            }
            first_pass[erased] = engine.reconstruct(erased, available)
        assert engine.cache.evictions > 0  # the LRU actually cycled
        for erased in patterns:  # re-entry after eviction: identical bytes
            available = {
                p: coded[p] for p in range(code.n) if p not in erased
            }
            assert np.array_equal(
                engine.reconstruct(erased, available), first_pass[erased]
            )

    def test_cache_hits_do_not_change_results(self):
        code = make_lrc(4, 2, 2, field=GF16)
        rng = np.random.default_rng(9)
        data = code.field.random_elements(rng, (code.k, WIDTH))
        coded = code.encode(data)
        available = {p: coded[p] for p in range(1, code.n)}
        first = code.reconstruct((0,), available)
        hits_before = code.engine.cache.hits
        second = code.reconstruct((0,), available)
        assert code.engine.cache.hits > hits_before
        assert np.array_equal(first, second)

    def test_lru_bookkeeping(self):
        cache = DecoderCache(maxsize=2)
        assert cache.lookup("a", lambda: 1) == 1
        assert cache.lookup("a", lambda: 2) == 1  # cached, builder not re-run
        cache.lookup("b", lambda: 2)
        cache.lookup("a", lambda: 3)  # refresh a: b becomes LRU
        cache.lookup("c", lambda: 4)  # evicts b
        assert "b" not in cache and "a" in cache and "c" in cache
        stats = cache.stats()
        assert stats["evictions"] == 1 and stats["hits"] == 2

    def test_undecodable_pattern_raises_and_is_not_cached(self):
        code = ReedSolomonCode(4, 2, field=GF16)
        engine = CodecEngine(code)
        with pytest.raises(DecodingError):
            engine.decode_matrix(0b0111)  # only 3 of k=4 survivors
        assert len(engine.cache) == 0


class TestRepairPlanner:
    def test_lrc_prefers_light_plans(self):
        code = make_lrc(4, 2, 2, field=GF16)
        usable = set(range(1, code.n))
        decision = code.planner.plan_block(0, mask_of(usable))
        assert decision.light and decision.plan is not None
        assert set(decision.sources) <= usable

    def test_rs_always_heavy(self):
        code = ReedSolomonCode(4, 2, field=GF16)
        decision = code.planner.plan_block(0, mask_of(range(1, code.n)))
        assert decision.kind == "heavy"
        assert decision.sources == tuple(range(1, code.n))

    def test_loss_when_below_k(self):
        code = ReedSolomonCode(4, 2, field=GF16)
        decision = code.planner.plan_block(0, mask_of({1, 2, 3}))
        assert not decision.feasible

    def test_readable_filters_sources(self):
        """Virtual zero-padding is usable but never read."""
        code = make_lrc(4, 2, 2, field=GF16)
        usable = set(range(1, code.n))
        decision = code.planner.plan_block(
            0, mask_of(usable), readable=mask_of(usable - {1})
        )
        assert 1 not in decision.sources

    def test_decisions_are_memoised(self):
        code = ReedSolomonCode(4, 2, field=GF16)
        planner = code.planner
        misses_before = planner.misses
        planner.plan_block(0, mask_of(range(1, code.n)))
        planner.plan_block(0, mask_of(range(1, code.n)))
        assert planner.misses == misses_before + 1
        assert planner.hits >= 1

    def test_memo_holds_every_pattern_it_has_seen(self):
        """More distinct keys than any LRU bound the memo used to have:
        the second round is all hits."""
        code = xorbas_lrc()
        planner = RepairPlanner(code)
        everything = (1 << code.n) - 1
        keys = [
            (lost, everything & ~mask_of(erased))
            for erased in combinations(range(code.n), 3)
            for lost in erased
        ]
        assert len(set(keys)) == len(keys) >= 300
        first = [planner.plan_block(lost, usable) for lost, usable in keys]
        assert planner.misses == len(keys) and planner.hits == 0
        second = [planner.plan_block(lost, usable) for lost, usable in keys]
        assert planner.misses == len(keys) and planner.hits == len(keys)
        assert all(a is b for a, b in zip(first, second))

    def test_stripe_planning(self):
        code = ReedSolomonCode(4, 2, field=GF16)
        usable = set(range(2, code.n))
        decision = code.planner.plan_stripe(mask_of((0, 1)), mask_of(usable))
        assert decision.kind == "heavy" and decision.lost == (0, 1)
        assert not code.planner.plan_stripe(
            mask_of((0, 1, 2)), mask_of(range(3, code.n))
        ).feasible


class TestIncrementalColumnSelection:
    def test_matches_seed_greedy_selection(self):
        """The incremental eliminator must accept exactly the columns the
        seed rank-per-candidate greedy accepted (same order, same set)."""
        rng = np.random.default_rng(41)
        for code in small_codes():
            for _ in range(25):
                size = int(rng.integers(code.k, code.n + 1))
                indices = sorted(
                    rng.choice(code.n, size=size, replace=False).tolist()
                )
                chosen = seed_columns(code, indices)
                incremental = gf_independent_columns(
                    code.field, code.generator, indices, target_rank=code.k
                )
                if len(chosen) == code.k:
                    assert incremental == chosen
                else:
                    assert len(incremental) < code.k

    def test_deficient_candidates(self):
        code = ReedSolomonCode(4, 2, field=GF16)
        assert code._independent_columns([0, 1]) is None
        assert code._independent_columns([0, 1, 2, 3]) == [0, 1, 2, 3]


class TestIsDecodable:
    @pytest.mark.parametrize(
        "code", small_codes() + [three_replication()], ids=lambda c: c.name
    )
    def test_rejects_positions_outside_the_stripe(self, code):
        """A position outside ``[0, n)`` names no block: it must neither
        count toward k, alias column n - 1 (``-1``) nor leak an
        ``IndexError``."""
        assert code.is_decodable(range(code.n))
        for bad in (
            range(-5, 5),
            range(code.n + 1),
            [code.n, *range(1, code.k)],
            [-1],
        ):
            with pytest.raises(ValueError, match="outside"):
                code.is_decodable(bad)

    @pytest.mark.parametrize(
        "method, args",
        [
            ("block_locality", (-1, 1)),
            ("block_locality", (16,)),
            ("solve_repair_coefficients", (0, [-16, 1])),
            ("solve_repair_coefficients", (-1, [0, 1])),
            ("solve_repair_coefficients", (16, [1, 2])),
        ],
    )
    def test_locality_helpers_reject_positions_outside_the_stripe(
        self, method, args
    ):
        """Block -1 must not alias column 15, which then "repairs itself"
        at locality 1, and a plan must never read block -16."""
        with pytest.raises(ValueError, match="outside"):
            getattr(xorbas_lrc(), method)(*args)

    @pytest.mark.parametrize(
        "code, erasures",
        [(xorbas_lrc(), (5,)), (PyramidCode(4, 2, 2, field=GF16), range(8))],
        ids=["lrc-five-erasures", "pyramid-every-pattern"],
    )
    def test_parity_check_criterion_matches_generator_rank(self, code, erasures):
        """The definition as oracle: survivors decode iff their generator
        columns have rank k.  Five erasures is where the fatal patterns
        of a d = 5 code live; one batched rank covers each erasure count."""
        fatal = 0
        for count in erasures:
            patterns = list(combinations(range(code.n), count))
            survivors = np.array(
                [[p for p in range(code.n) if p not in erased] for erased in patterns],
                dtype=int,
            )
            stack = code.generator[:, survivors].transpose(1, 0, 2)
            ranks = gf_rank_batch(code.field, stack)
            for erased, alive, rank in zip(patterns, survivors, ranks):
                assert code.is_decodable(alive) == (rank == code.k), erased
            fatal += int(np.sum(ranks < code.k))
        assert fatal > 0


class TestBatchedPlanning:
    """``decodable`` and ``RepairPlanner.plan_reads`` decide whole arrays of
    survival masks; the scalar ``is_decodable`` and ``plan_block`` are
    the same rule on a batch of one."""

    @pytest.mark.parametrize("code", [rs_10_4(), xorbas_lrc()], ids=lambda c: c.name)
    def test_every_mask_matches_generator_rank(self, code):
        """The definition as oracle, independent of the parity-check
        criterion ``decodable`` runs: a mask decodes iff its survivors'
        generator columns have rank k.  Masks with fewer than k survivors
        fail by counting; the rest are ranked as ``n x k`` stacks of the
        generator's rows with the erased ones zeroed."""
        masks = np.arange(1 << code.n, dtype=np.int64)
        bits = (masks[:, None] >> np.arange(code.n) & 1).astype(bool)
        expected = np.zeros(masks.size, dtype=bool)
        ranked = np.flatnonzero(bits.sum(axis=1) >= code.k)
        stack = code.generator.T[None] * bits[ranked, :, None]
        expected[ranked] = gf_rank_batch(code.field, stack) == code.k
        np.testing.assert_array_equal(code.decodable(masks), expected)
        assert 0 < expected.sum() < masks.size

    @pytest.mark.parametrize(
        "code", [rs_10_4(), xorbas_lrc(), three_replication()], ids=lambda c: c.name
    )
    def test_plan_reads_matches_plan_block(self, code):
        """Every ``(lost, mask)`` with the lost bit clear and at most four
        other erasures: the batched read count is the scalar decision's
        (light reads, k for a heavy decode, -1 for loss)."""
        lost, usable, expected = [], [], []
        full = (1 << code.n) - 1
        for position in range(code.n):
            others = [p for p in range(code.n) if p != position]
            for erasures in range(min(4, len(others)) + 1):
                for erased in combinations(others, erasures):
                    mask = full ^ mask_of((position, *erased))
                    decision = code.planner.plan_block(position, mask)
                    lost.append(position)
                    usable.append(mask)
                    expected.append(
                        decision.num_reads if decision.light
                        else code.k if decision.feasible else -1
                    )
        reads = code.planner.plan_reads(np.array(lost), np.array(usable))
        np.testing.assert_array_equal(reads, expected)
        assert reads.dtype == np.int64


class TestPatternMasks:
    """``mask_of`` / ``positions_of``: the only two conversions between
    position collections and the int bitmask every layer passes."""

    @given(st.integers(min_value=0, max_value=2**62 - 1))
    def test_mask_roundtrip(self, mask):
        assert mask_of(positions_of(mask)) == mask

    @given(st.sets(st.integers(min_value=0, max_value=61)))
    def test_positions_roundtrip_sorted(self, positions):
        assert positions_of(mask_of(positions)) == tuple(sorted(positions))


class TestBatchedContract:
    def test_no_code_redefines_the_scalar_calls(self):
        """Every code is its batched API: ``encode`` / ``decode`` /
        ``repair`` are defined once, on the base, as one-stripe calls,
        ``is_decodable`` once as a batch of one through ``decodable``, and
        the scalar ``execute_plan`` kernel is gone."""
        import repro.codes as codes

        seen, stack = set(), [ErasureCode]
        while stack:
            cls = stack.pop()
            for sub in cls.__subclasses__():
                if sub.__module__.startswith("repro.") and sub not in seen:
                    seen.add(sub)
                    stack.append(sub)
        exported = {
            obj
            for obj in vars(codes).values()
            if isinstance(obj, type) and issubclass(obj, ErasureCode)
        }
        assert exported - {ErasureCode} <= seen and len(seen) >= 6
        for cls in seen:
            assert not {
                "encode", "decode", "repair", "is_decodable", "execute_plan"
            } & set(vars(cls)), cls
        assert not hasattr(ErasureCode, "execute_plan")

    @pytest.mark.parametrize("make_code", [rs_10_4, xorbas_lrc])
    @pytest.mark.parametrize("bad", [-1, "n"])
    @pytest.mark.parametrize("call", ["decode", "reconstruct", "repair_stripes"])
    def test_out_of_range_position_rejected(self, make_code, bad, call):
        """A survivor key outside [0, n) raises instead of aliasing a
        generator column from the end (or leaking a numpy IndexError),
        and the failed build leaves the cache untouched."""
        code = make_code()
        bad = code.n if bad == "n" else bad
        rng = np.random.default_rng(31)
        coded = code.encode(code.field.random_elements(rng, (code.k, WIDTH)))
        available = {p: coded[p] for p in range(1, code.k)}
        available[bad] = coded[0]
        before = len(code.engine.cache)
        with pytest.raises(ValueError, match=rf"position {bad} out of range"):
            if call == "decode":
                code.decode(available)
            elif call == "reconstruct":
                code.reconstruct((0,), available)
            else:
                code.repair_stripes(0, available)
        if call == "reconstruct":  # a lost position is checked the same way
            valid = {p: coded[p] for p in range(code.k)}
            with pytest.raises(ValueError, match=rf"position {bad} out of range"):
                code.reconstruct((bad,), valid)
        assert len(code.engine.cache) == before


def _slab_layouts(coded):
    """One batch ``(stripes, n, width)`` as three survivor layouts.

    Yields ``(name, payload_of, expected)``: 1-D ``(width,)`` payloads of
    stripe 0, contiguous ``(stripes, width)`` slabs, and strided column
    views (``coded[:, p]`` of an array whose symbols sit two bytes
    apart), each with the batch the engine must answer for.
    """
    doubled = np.repeat(coded, 2, axis=2)
    yield "1d", (lambda p: np.ascontiguousarray(coded[0, p])), coded[:1]
    yield "contiguous", (lambda p: np.ascontiguousarray(coded[:, p])), coded
    yield "strided", (lambda p: doubled[:, p, ::2]), coded


def _repetition():
    """Three-way replication as a linear code: the scalar spec's view."""
    return LinearCode(GF256, np.ones((1, 3), dtype=np.uint8))


class TestSurvivorSlabLayouts:
    """Every batched entry point reads its survivors where they lie: 1-D
    payloads, contiguous slabs and strided column views give the bytes
    of the gather-only engine and of the scalar spec."""

    @pytest.mark.parametrize(
        "make_code",
        [rs_10_4, xorbas_lrc, pyramid_10_4, three_replication],
        ids=["rs", "lrc", "pyramid", "replication"],
    )
    def test_layouts_agree_with_gather_engine_and_spec(self, make_code):
        code = make_code()
        replication = code.k == 1
        spec = _repetition() if replication else code
        gather = None if replication else GatherCodecEngine(code)
        rng = np.random.default_rng(59)
        data3d = code.field.random_elements(rng, (3, code.k, 24))
        coded = code.encode_stripes(data3d)
        erasure_sets = [(p,) for p in range(code.n)]
        erasure_sets += [(0, code.n - 1), (1, code.k)] if not replication else []
        for layout, payload_of, expected in _slab_layouts(coded):
            for erased in erasure_sets:
                available = {
                    p: payload_of(p) for p in range(code.n) if p not in erased
                }
                where = (layout, erased)
                if len(erased) == 1:
                    repaired = code.repair_stripes(erased[0], available)
                    assert np.array_equal(repaired, expected[:, erased[0]]), where
                    if gather is not None:
                        assert np.array_equal(
                            repaired, gather.repair_stripes(erased[0], available)
                        ), where
                rebuilt = code.reconstruct(erased, available)
                assert np.array_equal(rebuilt, expected[:, list(erased)]), where
                decoded = code.decode_stripes(available)
                for s in range(expected.shape[0]):
                    reference = seed_decode(
                        spec, {p: np.atleast_2d(a)[s] for p, a in available.items()}
                    )
                    assert np.array_equal(decoded[s], reference), where
                if gather is not None:
                    assert np.array_equal(
                        rebuilt, gather.reconstruct(erased, available)
                    ), where
                    assert np.array_equal(
                        decoded, gather.decode_stripes(available)
                    ), where

    @pytest.mark.parametrize("make_engine", [CodecEngine, GatherCodecEngine],
                             ids=["plane", "gather"])
    @pytest.mark.parametrize("make_code", [rs_10_4, xorbas_lrc], ids=["rs", "lrc"])
    @pytest.mark.parametrize("bad", ["ndim", "width"])
    @pytest.mark.parametrize("call", ["decode_stripes", "reconstruct", "repair_stripes"])
    def test_malformed_slab_raises_value_error(self, make_engine, make_code, bad, call):
        """A survivor slab with the wrong ndim, or a width unlike the
        others, raises ValueError whichever route the pattern takes."""
        code = make_code()
        engine = make_engine(code)
        rng = np.random.default_rng(61)
        coded = engine.encode_stripes(code.field.random_elements(rng, (3, code.k, 16)))
        erased = (0, 2) if call == "reconstruct" else (0,)
        available = {
            p: coded[:, p] for p in range(code.n) if p not in erased
        }

        def run(payloads):
            if call == "decode_stripes":
                return engine.decode_stripes(payloads)
            if call == "reconstruct":
                return engine.reconstruct(erased, payloads)
            return engine.repair_stripes(0, payloads)

        run(available)  # well formed: the route is compiled and warm
        available[1] = (
            np.zeros((3, 2, 16), dtype=np.uint8) if bad == "ndim"
            else np.zeros((3, 17), dtype=np.uint8)
        )
        with pytest.raises(ValueError):
            run(available)


class TestEngineStatsScript:
    """A fixed call script pins the engine's counters: how many patterns
    were classified, how many calls each route ran and how the decoder
    cache answered.  At 32 B slabs every call takes the gather kernel; at
    4 x 64 KB every multiplicative call takes the plane, and an LRC light
    repair (four XOR passes against the gather's five) does not save
    enough to pay for its compile."""

    DISPATCHES = 18  # 2 encodes + 8 repairs + 4 reconstructs + 4 decodes

    @pytest.mark.parametrize(
        "make_code, width, expected",
        [
            (rs_10_4, 32, dict(schedule_misses=9, schedule_hits=9, xor_plane_calls=0,
                  xor_plane_stripes=0, cache_hits=10, cache_misses=12)),
            (rs_10_4, 1 << 16, dict(schedule_misses=9, schedule_hits=9,
                  xor_plane_calls=18, xor_plane_stripes=72, cache_hits=10,
                  cache_misses=12)),
            (xorbas_lrc, 32, dict(schedule_misses=9, schedule_hits=9, xor_plane_calls=0,
                  xor_plane_stripes=0, cache_hits=6, cache_misses=4)),
            (xorbas_lrc, 1 << 16, dict(schedule_misses=9, schedule_hits=9,
                  xor_plane_calls=10, xor_plane_stripes=40, cache_hits=6,
                  cache_misses=4)),
            (pyramid_10_4, 32, dict(schedule_misses=9, schedule_hits=9,
                  xor_plane_calls=0, xor_plane_stripes=0, cache_hits=7,
                  cache_misses=6)),
            (pyramid_10_4, 1 << 16, dict(schedule_misses=9, schedule_hits=9,
                  xor_plane_calls=18, xor_plane_stripes=72, cache_hits=7,
                  cache_misses=6)),
        ],
        ids=["rs-32B", "rs-64KB", "lrc-32B", "lrc-64KB", "pyramid-32B", "pyramid-64KB"],
    )
    def test_counts_after_fixed_script(self, make_code, width, expected):
        code = make_code()
        engine = CodecEngine(code)
        rng = np.random.default_rng(67)
        data3d = code.field.random_elements(rng, (4, code.k, width))
        coded = engine.encode_stripes(data3d)
        engine.encode_stripes(data3d)
        for _ in range(2):
            for lost in (0, 5, code.k, code.n - 1):
                available = {p: coded[:, p] for p in range(code.n) if p != lost}
                engine.repair_stripes(lost, available)
            for erased in ((0, 1), (2, code.k)):
                available = {p: coded[:, p] for p in range(code.n) if p not in erased}
                engine.reconstruct(erased, available)
                engine.decode_stripes(available)
        stats = engine.stats()
        counts = {
            "schedule_misses": stats.schedule_misses,
            "schedule_hits": stats.schedule_hits,
            "xor_plane_calls": stats.xor_plane_calls,
            "xor_plane_stripes": stats.xor_plane_stripes,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
        }
        assert counts == expected
        assert (stats.encode_calls, stats.stripes_encoded) == (2, 8)
        assert (stats.reconstruct_calls, stats.stripes_reconstructed) == (16, 64)
        # Every dispatch took exactly one route.
        assert stats.xor_plane_calls + stats.gather_calls == self.DISPATCHES
        assert stats.xor_plane_stripes + stats.gather_stripes == 4 * self.DISPATCHES
