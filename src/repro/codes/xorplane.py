"""Compiled XOR schedules: the GB/s execution plane for linear codes.

Every batched codec operation is ultimately ``out = A @ in`` for some
small GF(2^w) matrix ``A`` (generator transpose, decode matrix, rebuild
matrix, repair-plan row) applied across a wide byte slab.  The gather
kernel :func:`~repro.galois.linalg.gf_matmul_batch` pays one
table-gather pass per non-unit coefficient, and on this hardware a
fancy-index gather streams ~0.75 GB/s while a plain ``np.bitwise_xor``
pass streams ~13 GB/s.  This module closes that gap by *compiling* ``A``
into a flat XOR program once per cached erasure pattern and replaying it
as wide XOR passes.

A compiled :class:`XorSchedule` has three sub-programs, chosen per
output row of ``A``:

* **copies** — rows with a single unit coefficient (the systematic
  prefix of a generator) become one memcpy;
* **word program** — rows whose coefficients are all 1 (LRC local
  parities, light-repair plans, the implied-parity equation) become
  XORs of whole symbol slabs, no bit slicing at all — the pure-XOR
  stream the paper's Section 2.1 ``c_i = 1`` construction is designed
  to admit;
* **bit program** — remaining rows expand through the GF(2) bitmatrix
  homomorphism (:func:`~repro.galois.bitplane.gf_matrix_to_bitmatrix`)
  into XORs of packed *bit planes* (1/8 slab each), with the referenced
  blocks sliced in and out via the word-parallel bit transpose.

Both XOR sub-programs share intermediate sums via greedy pairwise
common-subexpression elimination (:func:`cse_rows`, the Plank-style
schedule optimisation): the most frequent co-occurring source pair is
repeatedly hoisted into a fresh node until no pair repeats.

Compilation also prices the schedule against the gather kernel with the
measured pass-unit model (:data:`GATHER_PASS_COST` etc.).  Bit-plane
slicing costs ~18 full-slab pass units per converted block, so dense
multiplicative matrices (e.g. a Pyramid light repair's non-unit
coefficients over few sources) can *lose* to the gather kernel — the
engine consults :attr:`XorSchedule.use_plane` and keeps the GF path for
those, while pure-XOR streams win by the full gather/XOR ratio.

Determinism contract: a schedule computes exactly ``A @ in`` over
GF(2^w) — XOR is associative and exact, so outputs are byte-identical
to :func:`gf_matmul_batch` and to the scalar spec, for every matrix and
payload, regardless of how CSE factored the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..galois import GF, gf_matrix_to_bitmatrix, pack_bitplanes, unpack_bitplanes

__all__ = [
    "XorSchedule",
    "compile_xor_schedule",
    "cse_rows",
    "GATHER_PASS_COST",
    "SLICE_BLOCK_COST",
    "WORD_OP_COST",
    "COPY_COST",
    "BIT_OP_COST",
]

# Cost model, in units of one full-slab np.bitwise_xor pass (~13 GB/s
# measured).  A table gather runs ~0.75 GB/s (~18 units); slicing one
# block to/from bit planes costs ~18 units (delta-swap transpose plus
# the plane copies); one bit-plane XOR touches 1/8 slab twice.
GATHER_PASS_COST = 18.0
SLICE_BLOCK_COST = 18.0
WORD_OP_COST = 1.0
COPY_COST = 1.0
BIT_OP_COST = 1.0 / 4.0


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


@dataclass
class XorSchedule:
    """One compiled XOR program for ``out = matrix @ in`` over a batch.

    Built by :func:`compile_xor_schedule`; apply with :meth:`apply` on a
    ``(stripes, in_blocks, width)`` batch to get ``(stripes, out_blocks,
    width)``, byte-identical to ``gf_matmul_batch``.
    """

    field: GF
    in_blocks: int
    out_blocks: int
    # word sub-program (whole-symbol slabs)
    copies: list[tuple[int, int]]  # (out_row, in_block)
    zero_rows: list[int]
    word_defs: list[tuple[int, int]]  # node in_blocks+i := a ^ b
    word_rows: list[tuple[int, tuple[int, ...]]]  # (out_row, node ids)
    # bit sub-program (packed bit planes of the referenced blocks)
    sliced_inputs: tuple[int, ...]
    sliced_outputs: tuple[int, ...]
    bit_ops: list[tuple[int, int, int]]
    bit_row_node: list[int]  # per sliced output x bit: node id or -1
    bit_nodes: int
    # pricing & feature support
    supported: bool  # bit program requires byte-sized symbols (m <= 8)
    xor_cost: float
    gf_cost: float

    @property
    def use_plane(self) -> bool:
        """Whether the engine should dispatch here instead of the GF path."""
        return self.supported and self.xor_cost < self.gf_cost

    @property
    def pure_xor(self) -> bool:
        """True when no bit slicing is needed: copies + word XORs only."""
        return not self.sliced_outputs

    @property
    def word_xor_passes(self) -> int:
        return len(self.word_defs) + sum(
            max(1, len(nodes) - 1) for _, nodes in self.word_rows
        )

    @property
    def bit_xor_ops(self) -> int:
        return len(self.bit_ops)

    @property
    def xor_bytes_per_output_byte(self) -> float:
        """Bytes XOR-written per byte of output (copies and packing excluded).

        The density metric the CLI reports: word passes write a full
        block slab each, bit ops write one plane (1/8 slab).
        """
        if self.out_blocks == 0:
            return 0.0
        bit_m = self.field.m if self.sliced_outputs else 8
        return (self.word_xor_passes + self.bit_xor_ops / bit_m) / self.out_blocks

    def apply(self, batch: np.ndarray) -> np.ndarray:
        """Run the program: ``(stripes, in, width)`` -> ``(stripes, out, width)``."""
        batch = np.asarray(batch, dtype=self.field.dtype)
        if batch.ndim != 3 or batch.shape[1] != self.in_blocks:
            raise ValueError(
                f"expected a (stripes, {self.in_blocks}, width) batch, "
                f"got shape {batch.shape}"
            )
        if not self.supported:
            raise ValueError("schedule unsupported for this field; use the GF path")
        stripes, _, width = batch.shape
        out = np.empty((stripes, self.out_blocks, width), dtype=self.field.dtype)
        for row in self.zero_rows:
            out[:, row] = 0
        for row, src in self.copies:
            out[:, row] = batch[:, src]

        if self.word_rows:
            nodes: dict[int, np.ndarray] = {}

            def node(nid: int) -> np.ndarray:
                return batch[:, nid] if nid < self.in_blocks else nodes[nid]

            for i, (a, b) in enumerate(self.word_defs):
                nodes[self.in_blocks + i] = np.bitwise_xor(node(a), node(b))
            for row, nds in self.word_rows:
                dst = out[:, row]
                if len(nds) == 1:
                    np.copyto(dst, node(nds[0]))
                else:
                    np.bitwise_xor(node(nds[0]), node(nds[1]), out=dst)
                    for nid in nds[2:]:
                        np.bitwise_xor(dst, node(nid), out=dst)

        if self.sliced_outputs:
            m = self.field.m
            slab_len = stripes * width
            plane_len = (slab_len + 7) // 8
            workspace = np.zeros((self.bit_nodes, plane_len), dtype=np.uint8)
            for si, block in enumerate(self.sliced_inputs):
                slab = np.ascontiguousarray(batch[:, block]).reshape(-1)
                workspace[si * m : (si + 1) * m] = pack_bitplanes(slab, m)
            for dst, a, b in self.bit_ops:
                if b < 0:
                    np.bitwise_xor(workspace[dst], workspace[a], out=workspace[dst])
                else:
                    np.bitwise_xor(workspace[a], workspace[b], out=workspace[dst])
            for oi, row in enumerate(self.sliced_outputs):
                ids = np.asarray(self.bit_row_node[oi * m : (oi + 1) * m])
                planes = workspace[np.where(ids >= 0, ids, 0)]
                planes[ids < 0] = 0
                symbols = unpack_bitplanes(planes, slab_len)
                out[:, row] = symbols.reshape(stripes, width)
        return out


def compile_xor_schedule(field: GF, matrix) -> XorSchedule:
    """Compile ``out = matrix @ in`` into an :class:`XorSchedule`.

    ``matrix`` is an ``(out_blocks, in_blocks)`` GF(2^m) coefficient
    matrix.  Rows are classified into copy / word / bit sub-programs,
    both XOR programs are CSE-factored, and the result is priced against
    the gather kernel (see module docstring).  A multiplicative row over
    a field wider than a byte returns an empty ``supported=False``
    schedule straight after classification.
    """
    mat = np.asarray(matrix)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {mat.shape}")
    out_blocks, in_blocks = mat.shape
    m = field.m

    copies: list[tuple[int, int]] = []
    zero_rows: list[int] = []
    word_sources: list[tuple[int, list[int]]] = []
    bit_rows: list[int] = []
    gf_cost = 0.0
    # Compile-time classification over the coefficient matrix's rows
    # (<= n); the compiled schedule is cached, never per-payload work.
    for row in range(out_blocks):
        sources = np.nonzero(mat[row])[0]
        coeffs = mat[row, sources]
        gf_cost += sum(WORD_OP_COST if int(c) == 1 else GATHER_PASS_COST for c in coeffs)
        if len(sources) == 0:
            zero_rows.append(row)
        elif len(sources) == 1 and int(coeffs[0]) == 1:
            copies.append((row, int(sources[0])))
        elif all(int(c) == 1 for c in coeffs):
            word_sources.append((row, [int(s) for s in sources]))
        else:
            bit_rows.append(row)

    if bit_rows and m > 8:
        # Bit planes assume byte-sized symbols, so the engine keeps the
        # GF path: compile no program it would never run (a wide RS
        # generator's bit-matrix CSE alone takes seconds).
        return XorSchedule(
            field=field,
            in_blocks=in_blocks,
            out_blocks=out_blocks,
            copies=copies,
            zero_rows=zero_rows,
            word_defs=[],
            word_rows=[],
            sliced_inputs=(),
            sliced_outputs=tuple(bit_rows),
            bit_ops=[],
            bit_row_node=[],
            bit_nodes=0,
            supported=False,
            xor_cost=float("inf"),
            gf_cost=gf_cost,
        )

    word_defs, word_row_nodes = cse_rows([srcs for _, srcs in word_sources], in_blocks)
    word_rows = [
        (row, nodes) for (row, _), nodes in zip(word_sources, word_row_nodes)
    ]

    sliced_inputs: tuple[int, ...] = ()
    sliced_outputs: tuple[int, ...] = ()
    bit_ops: list[tuple[int, int, int]] = []
    bit_row_node: list[int] = []
    bit_nodes = 0
    if bit_rows:
        sliced_inputs = tuple(
            int(c) for c in np.nonzero(mat[bit_rows].any(axis=0))[0]
        )
        sliced_outputs = tuple(bit_rows)
        bits = gf_matrix_to_bitmatrix(field, mat[np.ix_(bit_rows, list(sliced_inputs))])
        leaf_count = len(sliced_inputs) * m
        rows = [[int(c) for c in np.nonzero(bits[r])[0]] for r in range(bits.shape[0])]
        defs, row_nodes = cse_rows(rows, leaf_count)
        bit_ops, bit_row_node, bit_nodes = _chain_ops(defs, row_nodes, leaf_count)

    schedule = XorSchedule(
        field=field,
        in_blocks=in_blocks,
        out_blocks=out_blocks,
        copies=copies,
        zero_rows=zero_rows,
        word_defs=word_defs,
        word_rows=word_rows,
        sliced_inputs=sliced_inputs,
        sliced_outputs=sliced_outputs,
        bit_ops=bit_ops,
        bit_row_node=bit_row_node,
        bit_nodes=bit_nodes,
        supported=True,
        xor_cost=0.0,
        gf_cost=gf_cost,
    )
    schedule.xor_cost = (
        len(copies) * COPY_COST
        + schedule.word_xor_passes * WORD_OP_COST
        + (len(sliced_inputs) + len(sliced_outputs)) * SLICE_BLOCK_COST
        + len(bit_ops) * BIT_OP_COST
    )
    return schedule
