"""Compiled XOR schedules: the GB/s execution plane for linear codes.

Every batched codec operation is ``out = A @ in`` for a small GF(2^w)
matrix ``A`` (generator transpose, decode matrix, rebuild matrix,
repair-plan row) over a wide byte slab.  The gather kernel
:func:`~repro.galois.linalg.gf_matmul_batch` pays one table gather per
non-unit coefficient, about 20 plain ``np.bitwise_xor`` passes.  This
module compiles ``A`` into a flat XOR program instead.
:func:`classify_rows` sorts its output rows into

* **copies** — a single unit coefficient (a generator's systematic
  prefix): one memcpy;
* **word rows** — all coefficients 1 (LRC local parities, light-repair
  plans, the implied parity): XORs of whole symbol slabs, the pure-XOR
  stream the paper's Section 2.1 ``c_i = 1`` construction admits;
* **bit rows** — the rest: expanded through the GF(2) bitmatrix
  homomorphism (:func:`~repro.galois.bitplane.gf_matrix_to_bitmatrix`)
  into XORs of packed *bit planes* (1/8 slab each), run
  :data:`CHUNK_SYMBOLS` symbols per block at a time between one pack of
  the inputs and one unpack per chunk of the outputs.

That pass is cheap and prices both routes of a call over ``symbols``
symbols per input slab as ``fixed + per_symbol * symbols``: the gather
kernel exactly, the plane by a lower bound plus the price of compiling.
:func:`compile_xor_schedule` factors both XOR programs by greedy
pairwise common-subexpression elimination (:func:`cse_rows`, Plank's
schedule optimisation) and prices the plane exactly.  The codec engine
compiles a pattern on the first call whose saving pays for the
program, so the simulator's 64 B payloads never build one, and runs
the plane where the exact price wins.

Determinism contract: a schedule computes exactly ``A @ in`` over
GF(2^w) — XOR is associative and exact, so outputs are byte-identical
to :func:`gf_matmul_batch` and to the scalar spec, for every matrix and
payload, regardless of how CSE factored the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..galois import (
    GF,
    gf_matrix_to_bitmatrix,
    gf_slabs,
    pack_bitplanes,
    unpack_bitplanes,
)

__all__ = [
    "RowClasses",
    "XorSchedule",
    "classify_rows",
    "compile_xor_schedule",
    "cse_rows",
]

# The cost model: a route's price is ``fixed + per_symbol * symbols`` in
# np.bitwise_xor passes over one symbol (~15 GB/s), fitted to both routes'
# times over 25 matrices at 64 B to 2 MB per slab (2-core reference box).
# Per symbol: a table gather beside its XOR, widening a slab to intp,
# packing an input or unpacking an output block, and a bit-plane XOR
# (1/8 slab, but a large program's workspace spills out of cache).
GATHER_PASS_COST = 19.0
INDEX_COST = 3.2
SLICE_BLOCK_COST = 7.4
WORD_OP_COST = 1.0
COPY_COST = 1.0
BIT_OP_COST = 0.4
# Fixed terms count numpy calls of ~0.7 us, an XOR pass over CALL_SYMBOLS.
# A pack plus an unpack costs ~100 us however small the block; compiling
# ~0.14 ms plus ~0.13 ms per bit row and sliced input (RS(10,4) encode 5.5 ms).
CALL_SYMBOLS = 11_000.0
GATHER_CALLS = 5.0
PLANE_CALLS = 5.0
SLICE_CALLS = 140.0
COMPILE_CALLS = 200.0
COMPILE_BIT_CALLS = 180.0

#: Symbols per block that one pass of the bit program covers: the
#: workspace holds one chunk of every non-leaf node.  Measured on RS(10,4)
#: encode and two-erasure rebuild of 2 MB blocks (2-core box): 2^17-2^19
#: are within noise of each other, 2^16 pays more ufunc calls per byte,
#: and 2^20 and up lose 15-50 % once the workspace falls out of cache.
CHUNK_SYMBOLS = 1 << 19


def _row_pairs(members: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """All within-row node pairs (a < b) of the active columns, flattened.

    Uses the ranges trick so the enumeration is a fixed number of array
    ops regardless of how many rows or how ragged they are.
    """
    row_ids, col_ids = np.nonzero(members[:, :count])
    if len(col_ids) == 0:
        return col_ids, col_ids
    lens = np.bincount(row_ids, minlength=members.shape[0])
    ends = np.cumsum(lens)[row_ids]  # end of each element's row slice
    idx = np.arange(len(col_ids))
    reps = ends - idx - 1  # pair each element with the later ones in its row
    first = np.repeat(col_ids, reps)
    offsets = np.cumsum(reps) - reps
    within = np.arange(int(reps.sum())) - np.repeat(offsets, reps)
    second = col_ids[np.repeat(idx + 1, reps) + within]
    return first, second


def cse_rows(
    rows: Sequence[Sequence[int]], num_leaves: int
) -> tuple[list[tuple[int, int]], list[tuple[int, ...]]]:
    """Greedy common-subexpression elimination over XOR rows.

    Each row is the XOR of a set of leaf nodes ``[0, num_leaves)``.
    Rounds of greedy matching: count how often every node pair co-occurs
    across rows, pick a maximal column-disjoint set of pairs appearing
    at least twice (most frequent first), and hoist each into a fresh
    node (ids continue from ``num_leaves``), until no pair repeats.
    Hoisting a pair shared by q >= 2 rows trades q XORs for 1, so every
    accepted pair strictly reduces the op count and the loop terminates.
    Disjoint merges don't invalidate each other's counts (rewriting a
    row never removes it, nor the other pair's columns), which is what
    lets a whole round apply in a few vectorised passes.

    Returns ``(defs, row_nodes)``: ``defs[i]`` is the ``(a, b)`` pair
    defining node ``num_leaves + i`` (referencing only earlier nodes),
    and ``row_nodes[r]`` the nodes whose XOR reproduces row ``r``.
    """
    num_rows = len(rows)
    total_ones = sum(len(row) for row in rows)
    capacity = num_leaves + max(1, total_ones)
    members = np.zeros((num_rows, capacity), dtype=bool)
    for r, row in enumerate(rows):
        members[r, list(row)] = True

    count = num_leaves
    defs: list[tuple[int, int]] = []
    while count < capacity:
        first, second = _row_pairs(members, count)
        keys, key_counts = np.unique(first.astype(np.int64) * capacity + second, return_counts=True)
        keys = keys[key_counts >= 2]
        if len(keys) == 0:
            break
        key_counts = key_counts[key_counts >= 2]
        # Most frequent first, smallest pair id on ties: deterministic.
        order = np.lexsort((keys, -key_counts))
        cand_a = (keys[order] // capacity).tolist()
        cand_b = (keys[order] % capacity).tolist()
        used = np.zeros(capacity, dtype=bool)
        chosen_a: list[int] = []
        chosen_b: list[int] = []
        budget = capacity - count
        for a, b in zip(cand_a, cand_b):
            if used[a] or used[b]:
                continue
            used[a] = used[b] = True
            chosen_a.append(a)
            chosen_b.append(b)
            if len(chosen_a) == budget:
                break
        a_arr = np.array(chosen_a)
        b_arr = np.array(chosen_b)
        hits = members[:, a_arr] & members[:, b_arr]
        members[:, a_arr] = members[:, a_arr] & ~hits
        members[:, b_arr] = members[:, b_arr] & ~hits
        members[:, count : count + len(chosen_a)] = hits
        defs.extend(zip(chosen_a, chosen_b))
        count += len(chosen_a)

    row_nodes = [tuple(int(n) for n in np.nonzero(members[r, :count])[0]) for r in range(num_rows)]
    return defs, row_nodes


def _chain_ops(
    defs: list[tuple[int, int]],
    row_nodes: list[tuple[int, ...]],
    num_leaves: int,
) -> tuple[list[tuple[int, int, int]], list[int], int]:
    """Flatten CSE output into executable ops over a node workspace.

    Ops are ``(dst, a, b)`` meaning ``W[dst] = W[a] ^ W[b]``, or with
    ``b == -1``, ``W[dst] ^= W[a]``.  Rows with >= 2 nodes get a fresh
    accumulator node; returns ``(ops, row_node, num_nodes)`` where
    ``row_node[r]`` is the node holding row r (-1 for an all-zero row).
    """
    ops: list[tuple[int, int, int]] = []
    next_node = num_leaves + len(defs)
    for i, (a, b) in enumerate(defs):
        ops.append((num_leaves + i, a, b))
    row_node: list[int] = []
    for nodes in row_nodes:
        if not nodes:
            row_node.append(-1)
        elif len(nodes) == 1:
            row_node.append(nodes[0])
        else:
            acc = next_node
            next_node += 1
            ops.append((acc, nodes[0], nodes[1]))
            for src in nodes[2:]:
                ops.append((acc, src, -1))
            row_node.append(acc)
    return ops, row_node, next_node


def _plane_price(
    m: int, copies: int, word_passes: int, sliced: int, bit_rows: int, bit_ops: int
) -> tuple[float, float]:
    """``(fixed, per_symbol)`` of one plane call (see the cost model)."""
    calls = PLANE_CALLS + copies + word_passes
    passes = COPY_COST * copies + WORD_OP_COST * word_passes
    if bit_rows:
        # A bit op per call, a staging copy per output plane, one write-back.
        calls += SLICE_CALLS + bit_ops + (m + 1) * bit_rows
        passes += SLICE_BLOCK_COST * (sliced + bit_rows) + BIT_OP_COST * bit_ops
    return calls * CALL_SYMBOLS, passes


@dataclass
class RowClasses:
    """``out = matrix @ in`` classified by :func:`classify_rows`, both
    routes priced ``(fixed, per_symbol)``; the codec engine caches one per
    erasure pattern.  Until :meth:`compiled` builds the
    :class:`XorSchedule`, ``plane`` is a lower bound plus the price of
    compiling (the first call to take the plane pays for the program),
    then the schedule's exact price."""

    field: GF
    matrix: np.ndarray
    copies: list[tuple[int, int]]  # (out_row, in_block)
    zero_rows: list[int]
    word_sources: list[tuple[int, list[int]]]  # (out_row, in_blocks)
    sliced_outputs: tuple[int, ...]  # the bit rows
    sliced_inputs: tuple[int, ...]
    supported: bool  # bit planes assume byte-sized symbols (m <= 8)
    gather: tuple[float, float]
    plane: tuple[float, float]
    schedule = None  # the compiled XorSchedule (not a dataclass field)

    def compiled(self) -> XorSchedule:
        """The compiled schedule, built on first use."""
        if self.schedule is None:
            self.schedule = compile_xor_schedule(self.field, self.matrix)
            self.plane = self.schedule.plane
        return self.schedule

    def plane_wins(self, symbols: int) -> bool:
        """Whether the plane prices below the gather kernel at this size."""
        (plane_fixed, plane_rate), (gather_fixed, gather_rate) = self.plane, self.gather
        return plane_fixed + plane_rate * symbols < gather_fixed + gather_rate * symbols

    def route(self, symbols: int) -> XorSchedule | None:
        """The schedule to run a call over ``symbols`` symbols per input
        slab on, or None for the gather kernel.  Compiles on the first
        call the plane wins, then decides on the exact price."""
        if not self.plane_wins(symbols):
            return None
        schedule = self.compiled()
        return schedule if self.plane_wins(symbols) else None


@dataclass
class XorSchedule(RowClasses):
    """One compiled XOR program for ``out = matrix @ in`` over a batch,
    built by :func:`compile_xor_schedule` with ``plane`` its exact price.
    :meth:`apply` is byte-identical to ``gf_matmul_batch`` on the same
    slabs."""

    word_defs: list[tuple[int, int]]  # node in_blocks+i := a ^ b
    word_rows: list[tuple[int, tuple[int, ...]]]  # (out_row, node ids)
    bit_ops: list[tuple[int, int, int]]
    bit_row_node: list[int]  # per sliced output x bit: node id or -1
    bit_nodes: int

    @property
    def word_xor_passes(self) -> int:
        return len(self.word_defs) + sum(
            max(1, len(nodes) - 1) for _, nodes in self.word_rows
        )

    @property
    def xor_bytes_per_output_byte(self) -> float:
        """Bytes XOR-written per byte of output (copies and packing excluded).

        The density metric the CLI reports: word passes write a full
        block slab each, bit ops write one plane (1/8 slab).
        """
        out_blocks = self.matrix.shape[0]
        if out_blocks == 0:
            return 0.0
        bit_m = self.field.m if self.sliced_outputs else 8
        return (self.word_xor_passes + len(self.bit_ops) / bit_m) / out_blocks

    def apply(self, slabs) -> np.ndarray:
        """Run the program: one slab per input -> ``(stripes, out, width)``.

        ``slabs`` holds one ``(stripes, width)`` slab per input block, read
        where it lies (:func:`~repro.galois.linalg.gf_slabs`: a ``(width,)``
        payload is one stripe, a ``(stripes, in, width)`` batch passes as
        its ``transpose(1, 0, 2)`` view).
        """
        slabs, stripes, width = gf_slabs(self.field, slabs)
        out_blocks, in_blocks = self.matrix.shape
        if len(slabs) != in_blocks:
            raise ValueError(f"expected {in_blocks} slabs, got {len(slabs)}")
        out = np.empty((stripes, out_blocks, width), dtype=self.field.dtype)
        for row in self.zero_rows:
            out[:, row] = 0
        for row, src in self.copies:
            out[:, row] = slabs[src]
        nodes = list(slabs)  # word node in_blocks + i follows the inputs
        for a, b in self.word_defs:
            nodes.append(np.bitwise_xor(nodes[a], nodes[b]))
        for row, nds in self.word_rows:
            dst = out[:, row]
            if len(nds) == 1:
                np.copyto(dst, nodes[nds[0]])
            else:
                np.bitwise_xor(nodes[nds[0]], nodes[nds[1]], out=dst)
                for nid in nds[2:]:
                    np.bitwise_xor(dst, nodes[nid], out=dst)
        if self.sliced_outputs:
            self._apply_bit_program(slabs, out)
        return out

    def _apply_bit_program(self, slabs: list[np.ndarray], out: np.ndarray) -> None:
        """Slice, run ``bit_ops`` one chunk of the planes at a time, unslice.

        Each sliced input is packed once; the program then runs over
        :data:`CHUNK_SYMBOLS` symbols per block at a time, its non-leaf
        nodes in one chunk-sized workspace reused for every chunk (each
        node is written before it is read, so it is never cleared), and
        each chunk's output planes unpack in one call.
        """
        stripes, _, width = out.shape
        m = self.field.m
        packed = pack_bitplanes([slabs[block] for block in self.sliced_inputs])
        plane_width = packed.shape[2]
        leaves = [planes[bit] for planes in packed for bit in range(m)]
        chunk = CHUNK_SYMBOLS // 8
        widest = min(chunk, plane_width)
        workspace = np.empty((self.bit_nodes - len(leaves), widest), dtype=np.uint8)
        outputs = len(self.sliced_outputs)
        # Output planes without a node (all-zero rows, bits >= m) stay zero.
        staged = np.zeros((outputs, 8, widest), dtype=np.uint8)
        staging = [
            (oi, bit, nid)
            for oi in range(outputs)
            for bit, nid in enumerate(self.bit_row_node[oi * m : (oi + 1) * m])
            if nid >= 0
        ]
        unpacked = np.empty((outputs, 8, plane_width), dtype=np.uint8)
        for start in range(0, plane_width, chunk):
            span = min(chunk, plane_width - start)
            nodes = [leaf[start : start + span] for leaf in leaves]
            nodes.extend(workspace[:, :span])
            for dst, a, b in self.bit_ops:
                if b < 0:
                    np.bitwise_xor(nodes[dst], nodes[a], out=nodes[dst])
                else:
                    np.bitwise_xor(nodes[a], nodes[b], out=nodes[dst])
            for oi, bit, nid in staging:
                staged[oi, bit, :span] = nodes[nid]
            symbols = unpack_bitplanes(staged[:, :, :span], 8 * span)
            unpacked[:, :, start : start + span] = symbols.reshape(outputs, 8, span)
        slab_len = stripes * width
        for oi, row in enumerate(self.sliced_outputs):
            out[:, row] = unpacked[oi].reshape(-1)[:slab_len].reshape(stripes, width)


def classify_rows(field: GF, matrix) -> RowClasses:
    """Classify the rows of ``out = matrix @ in`` and price both routes.

    ``matrix`` is an ``(out_blocks, in_blocks)`` GF(2^m) coefficient
    matrix.  One pass over its rows, no bit-matrix expansion and no CSE.
    The plane's lower bound counts one pass per word row and the fewest
    bit ops that read every needed input plane; a multiplicative row over
    a field wider than a byte prices the plane at infinity.
    """
    mat = np.asarray(matrix)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {mat.shape}")
    copies, zero_rows, word_sources, bit_rows = [], [], [], []  # see RowClasses
    for row, coeffs in enumerate(mat.tolist()):
        sources = [col for col, coeff in enumerate(coeffs) if coeff]
        if not sources:
            zero_rows.append(row)
        elif any(coeffs[col] != 1 for col in sources):
            bit_rows.append(row)
        elif len(sources) == 1:
            copies.append((row, sources[0]))
        else:
            word_sources.append((row, sources))
    bit_coeffs = mat[bit_rows]
    sliced = tuple(int(c) for c in np.nonzero(bit_coeffs.any(axis=0))[0])
    # Each bit plane of an input to a row of two or more sources is an
    # operand of some bit op: at least one op per two such planes.
    multi = bit_coeffs[np.count_nonzero(bit_coeffs, axis=1) > 1].any(axis=0)
    scaled = mat > 1
    nonzero, gathers = np.count_nonzero(mat), scaled.sum()
    indexed = scaled.any(axis=0).sum()  # slabs widened to intp, once each
    gather = (
        (GATHER_CALLS + nonzero + gathers + indexed) * CALL_SYMBOLS,
        WORD_OP_COST * nonzero + GATHER_PASS_COST * gathers + INDEX_COST * indexed,
    )
    fixed, per_symbol = _plane_price(
        field.m, len(copies), len(word_sources), len(sliced), len(bit_rows),
        -(-field.m * int(multi.sum()) // 2),
    )
    compile_calls = COMPILE_CALLS + COMPILE_BIT_CALLS * len(bit_rows) * len(sliced)
    plane = (fixed + compile_calls * CALL_SYMBOLS, per_symbol)
    supported = not (bit_rows and field.m > 8)
    return RowClasses(
        field, mat, copies, zero_rows, word_sources, tuple(bit_rows), sliced,
        supported, gather, plane if supported else (np.inf, np.inf),
    )


def compile_xor_schedule(field: GF, matrix) -> XorSchedule:
    """Compile ``out = matrix @ in`` into an :class:`XorSchedule`.

    The rows are classified by :func:`classify_rows` and both XOR
    programs are CSE-factored.  A multiplicative row over a field wider
    than a byte raises ValueError: bit planes assume byte-sized symbols.
    """
    rows = classify_rows(field, matrix)
    if not rows.supported:
        raise ValueError(f"no bit program over GF(2^{field.m}); use the gather kernel")
    in_blocks = rows.matrix.shape[1]
    word_defs, word_nodes = cse_rows([srcs for _, srcs in rows.word_sources], in_blocks)
    word_rows = [(row, nodes) for (row, _), nodes in zip(rows.word_sources, word_nodes)]
    bit_ops, bit_row_node, bit_nodes = [], [], 0  # see XorSchedule
    if rows.sliced_outputs:
        sub = rows.matrix[np.ix_(rows.sliced_outputs, rows.sliced_inputs)]
        bits = gf_matrix_to_bitmatrix(field, sub)
        leaf_count = len(rows.sliced_inputs) * field.m
        bit_sources = [[int(c) for c in np.nonzero(bit_row)[0]] for bit_row in bits]
        defs, row_nodes = cse_rows(bit_sources, leaf_count)
        bit_ops, bit_row_node, bit_nodes = _chain_ops(defs, row_nodes, leaf_count)
    schedule = XorSchedule(
        **vars(rows), word_defs=word_defs, word_rows=word_rows, bit_ops=bit_ops,
        bit_row_node=bit_row_node, bit_nodes=bit_nodes,
    )
    schedule.plane = _plane_price(
        field.m, len(schedule.copies), schedule.word_xor_passes,
        len(schedule.sliced_inputs), len(schedule.sliced_outputs), len(bit_ops),
    )
    return schedule
