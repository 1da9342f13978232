"""Vectorised CSR traversal kernels (the numpy backend of the cost engine).

The list kernels in :mod:`repro.graphs.int_kernels` spend their time in
per-edge Python bytecode, which caps equilibrium checks at n in the tens.
This module re-implements the same four traversals as *array sweeps* so the
per-edge work happens inside numpy's C loops:

* :func:`bfs_hops_csr_np` — level-synchronous frontier BFS: each round
  gathers every out-edge of the current frontier in one shot
  (``np.repeat`` over the CSR ``indptr`` slices) and labels the unvisited
  heads with the next hop count;
* :func:`dijkstra_csr_np` — frontier relaxation over non-negative lengths
  (a bucketed label-correcting Dijkstra): each round relaxes all out-edges
  of the nodes whose tentative distance just improved, with
  ``np.minimum.at`` resolving duplicate heads.  Integer lengths (the
  ``int64`` dtype) keep every label in exact int space; float lengths
  converge to the same fixed point as the heap Dijkstra (see below);
* :func:`bfs_hops_csr_multi` / :func:`dijkstra_csr_multi` — the batched
  forms: one traversal computes the rows of many sources, under one shared
  mask or under **per-row masks** (row ``i`` computes ``d_{G-u_i}`` from
  ``sources[i]``), amortising the per-round dispatch overhead that otherwise
  dominates on sparse graphs (a deviation probe wants every candidate
  first-hop row of one masked node at once; ``all_costs`` wants all ``n``
  unmasked rows; a whole equilibrium report wants the rows of *every*
  probed node in one giant sweep);
* :func:`repair_hops_csr_np` / :func:`repair_dijkstra_csr_np` — the dynamic
  repair kernels of PR 4 with both phases vectorised: the affected region
  (old distances that lost support) is marked by frontier sweeps over tight
  edges, and the continuation is the same frontier relaxation seeded from
  the region's intact in-boundary (one reverse-CSR gather) plus the added
  arcs.  They repair a cached row in place — a plain list (the python
  backend's representation) or an int64/float64 array (the numpy
  backend's) — writing only the touched entries.  The cost engine no
  longer calls them: a numpy-backend engine refills stale rows in its
  fused multi-source traversal, which costs far less per row.  They stay,
  with their parity tests, because the repo benchmark's trace
  (``perfbench``) still names them as ``graphs.repair`` span targets.

**Bit-identity.**  Hop counts and integer lengths are computed in exact
``int64`` space, so equality with the list kernels is literal, and the
float conversions (``float(h) * unit``; ``float(int_distance)``) apply the
same single IEEE operations the list path applies.  For float lengths the
frontier relaxation converges to ``dist[v] = min over paths P of the
left-associated float sum along P`` — the same value the binary-heap
Dijkstra produces, because IEEE addition of non-negative doubles is
monotone (``fl(a + w) >= a``), so a node finalised later can never supply a
smaller float label, and every relaxation candidate is itself a
left-associated path sum.  ``tests/test_backend_parity.py`` pins all four
kernels against the list kernels under hypothesis (masked and unmasked,
zero-length edges, disconnected nodes, randomized edit sequences).

All kernels honour the same ``forbidden`` mask as the list kernels (the
masked node is never entered and reports unreachable), which is what lets
:class:`repro.engine.CostEngine` serve ``d_{G-u}`` rows from one shared
profile snapshot.
"""

from __future__ import annotations

import sys
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .int_kernels import UNREACHED

#: Bitset decoding views uint64 frontier words as bytes; on big-endian hosts
#: the words must be byteswapped first so bit ``s`` lands at unpacked
#: position ``s`` (matching the little-endian shift that set it).
_BIG_ENDIAN = sys.byteorder != "little"

#: Sentinel for unreachable entries of int64 distance rows.  Far above any
#: real distance (lengths are gated below ``2**53``) yet with enough headroom
#: that a stray ``sentinel + length`` could not wrap ``int64`` — though the
#: kernels never relax out of an unreached node in the first place.
INT_UNREACHED = 2**62


def csr_arrays(
    indptr: Sequence[int], indices: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Materialise list CSR arrays as int64 numpy arrays (one copy)."""
    return (
        np.asarray(indptr, dtype=np.int64),
        np.asarray(indices, dtype=np.int64),
    )


def reverse_csr(
    indptr: np.ndarray, indices: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Return the reverse graph as CSR ``(rev_indptr, rev_tails)`` arrays.

    ``rev_tails[rev_indptr[v]:rev_indptr[v + 1]]`` lists the in-neighbours of
    ``v``.  The repair kernels seed orphaned nodes from their intact
    in-boundary, which the forward CSR cannot answer.
    """
    rev_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=n), out=rev_indptr[1:])
    tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    order = np.argsort(indices, kind="stable")
    return rev_indptr, tails[order]


def _gather_edges(
    indptr: np.ndarray, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(edge_positions, tails)`` for every out-edge of ``frontier``.

    ``edge_positions`` indexes the CSR ``indices``/``lengths`` arrays;
    ``tails`` repeats each frontier node once per out-edge, aligned with it.
    """
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    offsets = np.cumsum(counts) - counts
    positions = np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)
    return positions, np.repeat(frontier, counts)


def bfs_hops_csr_np(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    source: int,
    forbidden: int = -1,
) -> np.ndarray:
    """Level-synchronous BFS: the numpy counterpart of ``bfs_hops_csr``.

    Returns an int64 array of hop counts with :data:`~repro.graphs
    .int_kernels.UNREACHED` for unreachable nodes; semantics (including the
    ``forbidden`` mask and the rejected ``forbidden == source`` case) match
    the list kernel exactly.
    """
    if forbidden == source:
        raise ValueError("the BFS source cannot be the forbidden node")
    hops = np.full(n, UNREACHED, dtype=np.int64)
    if 0 <= forbidden < n:
        hops[forbidden] = n + 1  # non-negative: blocks the visit test below
    hops[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        positions, _ = _gather_edges(indptr, frontier)
        heads = indices[positions]
        heads = heads[hops[heads] < 0]
        if heads.size == 0:
            break
        frontier = np.unique(heads)
        hops[frontier] = level
    if 0 <= forbidden < n:
        hops[forbidden] = UNREACHED
    return hops


def dijkstra_csr_np(
    indptr: np.ndarray,
    indices: np.ndarray,
    lengths: np.ndarray,
    n: int,
    source: int,
    forbidden: int = -1,
) -> np.ndarray:
    """Frontier-relaxation Dijkstra: the numpy counterpart of ``dijkstra_csr``.

    ``lengths`` is aligned with ``indices`` and its dtype selects the label
    space: an integer dtype keeps every label an exact int64 (unreachable =
    :data:`INT_UNREACHED`), a float dtype works in IEEE doubles (unreachable
    = ``inf``).  Each round applies every improvement found so far and
    relaxes the out-edges of the improved nodes; rounds continue until no
    label moves, which for non-negative lengths reproduces the heap
    Dijkstra's labels bit for bit (see the module docstring).
    """
    if forbidden == source:
        raise ValueError("the Dijkstra source cannot be the forbidden node")
    integral = lengths.dtype.kind in "iu"
    if integral:
        dist = np.full(n, INT_UNREACHED, dtype=np.int64)
        barrier = -1  # no candidate is below it, so the mask is never entered
    else:
        dist = np.full(n, np.inf, dtype=np.float64)
        barrier = -np.inf
    masked = 0 <= forbidden < n
    if masked:
        dist[forbidden] = barrier
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    while frontier.size:
        positions, tails = _gather_edges(indptr, frontier)
        if positions.size == 0:
            break
        heads = indices[positions]
        candidates = dist[tails] + lengths[positions]
        previous = dist.copy()
        np.minimum.at(dist, heads, candidates)
        frontier = np.flatnonzero(dist < previous)
    if masked:
        dist[forbidden] = INT_UNREACHED if integral else np.inf
    return dist


def _per_row_masks(sources: np.ndarray, n: int, forbidden, kernel: str):
    """Normalise ``forbidden`` for the batched kernels.

    Returns ``(scalar_mask, per_row_array)``: exactly one of the two is
    active — ``per_row_array`` is ``None`` for the original shared-mask form
    (including a per-row sequence whose entries all agree, which collapses to
    the scalar path), otherwise an int64 array aligned with ``sources`` where
    row ``i`` masks ``per_row_array[i]`` (negative = unmasked row).  The
    contradictory ``forbidden[i] == sources[i]`` is rejected like the
    single-source kernels reject it.
    """
    if isinstance(forbidden, (int, np.integer)):
        scalar = int(forbidden)
        if scalar >= 0 and bool(np.any(sources == scalar)):
            raise ValueError(f"the {kernel} source cannot be the forbidden node")
        return scalar, None
    forb = np.asarray(forbidden, dtype=np.int64)
    if forb.shape != sources.shape:
        raise ValueError(
            f"per-row forbidden masks {forb.shape} do not align with "
            f"sources {sources.shape}"
        )
    if bool(np.any((forb >= 0) & (forb == sources))):
        raise ValueError(f"the {kernel} source cannot be the forbidden node")
    if forb.size and bool(np.all(forb == forb[0])):
        return int(forb[0]), None  # uniform masks: take the shared-mask path
    return -1, forb


def bfs_hops_csr_multi(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    sources: Sequence[int],
    forbidden=-1,
    scale_unit=None,
):
    """Batched BFS: hop rows for every source at once, as an ``(S, n)`` matrix.

    With ``scale_unit`` set, returns ``(hops, scaled)`` where ``scaled`` is
    bit-identical to ``scaled_float_rows(hops, scale_unit)`` but assembled
    straight from the kernel's internal visit counter — one fewer full pass
    over the hop matrix, which matters for giant report-prefetch chunks.
    In this form ``hops`` uses the narrowest exact integer dtype (int16
    whenever the round count fits): every entry is the same exact integer
    the plain form returns, at a quarter of the matrix and cache bytes.

    Row ``i`` is exactly ``bfs_hops_csr(..., sources[i], forbidden)``.  All
    sources advance level-synchronously over **bitset frontiers**: each node
    carries one bit per source packed into ``ceil(S / 64)`` uint64 words, a
    round ORs the frontier words of every union-frontier tail into its heads
    (one ``np.bitwise_or.at``) and ticks a bit-sliced visit counter from
    which hop labels are assembled once at the end.  Per-round work is
    ``O(frontier edges * S / 64)`` words instead
    of ``O(S * E)`` bools, which is what amortises the per-round dispatch
    overhead that makes single-source array BFS lose on sparse, deep graphs
    — per-node deviation probes (a handful of sources, same mask) and whole
    ``all_costs`` sweeps (``S = n``) both stay traversal-cheap.

    ``forbidden`` is a shared int or a sequence aligned with ``sources``:
    with per-row masks, row ``i`` never enters ``forbidden[i]`` (its bit is
    cleared from every reached word via a per-node blocked bitmask), so one
    giant traversal serves ``d_{G-u_i}`` rows for *different* masked nodes
    ``u_i`` — the substrate of whole-report batched prefetch.  Each row's
    bits evolve exactly as they would alone (bits of different sources never
    interact), so per-row-masked rows stay bit-identical to the
    single-source kernel under its own mask.
    """
    sources = np.asarray(sources, dtype=np.int64)
    num = int(sources.shape[0])
    forbidden, forb_rows = _per_row_masks(sources, n, forbidden, "BFS")
    words = (num + 63) // 64
    frontier = np.zeros((n, words), dtype=np.uint64)
    bit_word = np.arange(num, dtype=np.int64) // 64
    bit_mask = np.uint64(1) << (np.arange(num, dtype=np.uint64) % np.uint64(64))
    # bitwise_or.at (not fancy |=) so repeated source nodes still set all bits.
    np.bitwise_or.at(frontier, (sources, bit_word), bit_mask)
    visited = frontier.copy()
    masked = 0 <= forbidden < n
    unblocked = None
    if forb_rows is not None:
        # blocked[v] has bit i set when row i must never enter node v; AND-ing
        # its complement out of each round's reached words is the per-row
        # analogue of zeroing the shared forbidden node's words.
        rows_masked = np.flatnonzero((forb_rows >= 0) & (forb_rows < n))
        blocked = np.zeros_like(frontier)
        np.bitwise_or.at(
            blocked,
            (forb_rows[rows_masked], bit_word[rows_masked]),
            bit_mask[rows_masked],
        )
        unblocked = ~blocked
    # Hop labels are never scattered during the sweep.  Instead each round
    # increments a bit-sliced counter over the *visited* words (a carry-save
    # ripple across ceil(log2(rounds+1)) uint64 planes, so the per-round cost
    # is a handful of word-parallel AND/XORs instead of an unpack + nonzero +
    # scatter over every fresh bit).  A bit first visited in round L is
    # counted in rounds L..R, so count = R - L + 1 and L = R + 1 - count;
    # never-visited bits keep count 0.  One unpack per plane at the end
    # replaces the per-round decode that dominated giant-chunk profiles.
    planes: list = []
    rounds = 0
    # Once the frontier covers a large slice of a wide batch, a head-grouped
    # ``bitwise_or.reduceat`` over the reverse CSR beats the
    # frontier-restricted scatter (``bitwise_or.at`` is a buffered
    # per-element loop): inactive tails contribute all-zero words, so the
    # dense sweep computes the same ``reached``.  Narrow batches stay on the
    # sparse scatter — their per-round gather traffic (all E edges * words)
    # would dwarf the scatter they replace.
    rev = None
    dense_threshold = n // 4 if words >= 4 else n + 1
    last_fresh = 0
    while True:
        if last_fresh >= dense_threshold:
            if rev is None:
                rev_indptr, rev_tails = reverse_csr(indptr, indices, n)
                # reduceat only over heads that have in-edges: empty groups
                # would repeat a neighbour's element (and a start == E is out
                # of bounds), but consecutive non-empty starts are strictly
                # increasing and span exactly each head's edge run, so none
                # of reduceat's empty-group quirks apply.
                nonempty = np.flatnonzero(rev_indptr[:-1] < rev_indptr[1:])
                rev_starts = rev_indptr[:-1][nonempty]
                rev = (
                    rev_starts,
                    rev_tails,
                    nonempty if nonempty.shape[0] < n else None,
                )
            grouped = np.bitwise_or.reduceat(frontier[rev[1]], rev[0], axis=0)
            if rev[2] is None:
                reached = grouped
            else:
                reached = np.zeros_like(frontier)
                reached[rev[2]] = grouped
        else:
            active = np.flatnonzero(frontier.any(axis=1))
            positions, tails = _gather_edges(indptr, active)
            if positions.size == 0:
                break
            heads = indices[positions]
            reached = np.zeros_like(frontier)
            np.bitwise_or.at(reached, heads, frontier[tails])
        if masked:
            reached[forbidden] = 0
        elif unblocked is not None:
            reached &= unblocked
        fresh = reached & ~visited
        rows = np.flatnonzero(fresh.any(axis=1))
        if rows.size == 0:
            break
        last_fresh = int(rows.size)
        visited[rows] |= fresh[rows]
        frontier = fresh
        rounds += 1
        carry = visited.copy()
        for plane in planes:
            carried = plane & carry
            plane ^= carry
            carry = carried
        if carry.any():
            planes.append(carry)
    scaled = None
    if not planes:
        hops = np.full(
            (num, n), UNREACHED,
            dtype=np.int64 if scale_unit is None else np.int16,
        )
        if scale_unit is not None:
            scaled = np.full((num, n), np.inf)
    else:
        # Assemble levels from the plane counters: unpack each plane's words
        # once to (n, S) bits.  bitorder='little' matches the shift direction
        # used to build bit_mask above once the words are in little-endian
        # byte order (a byteswap on big-endian hosts).  The counter uses the
        # narrowest exact dtype (counts <= rounds, bounded by 2**planes - 1)
        # so the accumulation and the transpose touch as little memory as
        # possible; counts are exact small integers either way, so the final
        # int64 subtraction is bit-identical.
        if len(planes) <= 8:
            acc_dtype = np.uint8
        elif len(planes) <= 15:
            acc_dtype = np.int16
        else:
            acc_dtype = np.int64
        # Transposing the packed bytes (words per node, a ~1% slice of the
        # full bit matrix) lands source-major cheaply, and a shift-and-mask
        # broadcast unpacks each byte row into its 8 source rows in C order
        # — byte s // 8 of a node's words holds sources 8 * (s // 8) ..
        # 8 * (s // 8) + 7, least significant bit first, matching bit_mask
        # above.  (np.unpackbits along axis 0 computes the same thing an
        # order of magnitude slower, and unpacking along axis 1 would force
        # an elementwise transpose of the full-size counter.)
        count = np.zeros((num, n), dtype=acc_dtype)
        shifts = np.arange(8, dtype=np.uint8)[None, :, None]
        for k, plane in enumerate(planes):
            if _BIG_ENDIAN:  # pragma: no cover - exercised on s390x and friends
                plane = plane.byteswap()
            pbytes = np.ascontiguousarray(plane.view(np.uint8).T)
            bits = ((pbytes[:, None, :] >> shifts) & np.uint8(1)).reshape(-1, n)
            bits = bits[:num]
            if k == 0:
                count += bits
            elif k < 8:
                count += bits << np.uint8(k)  # still uint8: k <= 7, bit <= 128
            else:
                count += bits.astype(acc_dtype) << k
        # Widen once, subtract in place, then fill the (typically few)
        # never-visited entries.  The fused giant-chunk form keeps hops in
        # int16 where exact (labels are bounded by rounds + 1, which fits
        # whenever the counter did): a quarter of the write traffic here and
        # of the hop-row cache bytes downstream.
        never = count == 0
        if scale_unit is None:
            out_dtype = np.int64
        else:
            # <= 14 planes: rounds < 2**14, so rounds + 1 and every label
            # stay well inside int16.
            out_dtype = np.int16 if len(planes) <= 14 else np.int64
        hops = count.astype(out_dtype)
        np.subtract(rounds + 1, hops, out=hops)
        hops[never] = UNREACHED
        if scale_unit is not None:
            # One multiply off the still-cache-hot hop matrix; ``never`` is
            # exactly the ``hops < 0`` set ``scaled_float_rows`` masks, so
            # this is the same IEEE product and fill, one full pass over the
            # cold matrix cheaper.
            scaled = hops * np.float64(scale_unit)
            scaled[never] = np.inf
    # Sources counted in every round (count = rounds → level 1 above), but
    # their true hop label is 0.
    hops[np.arange(num), sources] = 0
    if masked:
        hops[:, forbidden] = UNREACHED
    elif forb_rows is not None:
        # Blocked bits were never set, so these entries already hold
        # UNREACHED; the explicit write keeps the mask contract load-bearing
        # rather than incidental.
        hops[rows_masked, forb_rows[rows_masked]] = UNREACHED
    if scaled is None:
        return hops
    # Mirror the post-assembly writes above so ``scaled`` matches
    # ``scaled_float_rows(hops, scale_unit)`` bit for bit.
    scaled[np.arange(num), sources] = 0.0
    if masked:
        scaled[:, forbidden] = np.inf
    elif forb_rows is not None:
        scaled[rows_masked, forb_rows[rows_masked]] = np.inf
    return hops, scaled


def dijkstra_csr_multi(
    indptr: np.ndarray,
    indices: np.ndarray,
    lengths: np.ndarray,
    n: int,
    sources: Sequence[int],
    forbidden=-1,
) -> np.ndarray:
    """Batched frontier Dijkstra: one ``(S, n)`` matrix of distance rows.

    Row ``i`` is exactly ``dijkstra_csr_np(..., sources[i], forbidden)`` (and
    therefore exactly the heap kernel's row).  Each round relaxes the
    out-edges of the union frontier for every source at once; relaxing an
    edge for a source that did not improve its tail is a no-op (the candidate
    cannot beat the standing label), so sharing the gather across sources
    never changes any label — only the round count shrinks.

    ``forbidden`` is a shared int or a sequence aligned with ``sources``
    (row ``i`` masks ``forbidden[i]``).  With per-row masks, a node that is
    forbidden for row ``i`` can still enter the *shared* frontier through
    another row, so besides the barrier entry (which keeps relaxations into
    the mask from sticking) every round must also kill row ``i``'s
    relaxations *out of* its own forbidden tail — otherwise the barrier
    label would propagate outward for that row.  With both guards the
    relaxations applied to row ``i`` are exactly the single-mask kernel's,
    so labels (float bits included) are unchanged.
    """
    sources = np.asarray(sources, dtype=np.int64)
    num = int(sources.shape[0])
    forbidden, forb_rows = _per_row_masks(sources, n, forbidden, "Dijkstra")
    integral = lengths.dtype.kind in "iu"
    if integral:
        dist = np.full((num, n), INT_UNREACHED, dtype=np.int64)
        barrier = -1
        unreached = INT_UNREACHED
    else:
        dist = np.full((num, n), np.inf, dtype=np.float64)
        barrier = -np.inf
        unreached = np.inf
    masked = 0 <= forbidden < n
    if masked:
        dist[:, forbidden] = barrier
    forb_counts = forb_sorted_rows = forb_starts = None
    if forb_rows is not None:
        rows_masked = np.flatnonzero((forb_rows >= 0) & (forb_rows < n))
        dist[rows_masked, forb_rows[rows_masked]] = barrier
        # Group masking rows by forbidden node once, so each round's kill is
        # a ragged scatter over only the (row, edge) pairs whose tail is that
        # row's own forbidden node — O(E_round + matches) instead of the
        # (S, E_round) comparison matrix that dominates giant chunks.
        forb_counts = np.zeros(n, dtype=np.int64)
        np.add.at(forb_counts, forb_rows[rows_masked], 1)
        order = np.argsort(forb_rows[rows_masked], kind="stable")
        forb_sorted_rows = rows_masked[order]
        forb_starts = np.zeros(n, dtype=np.int64)
        forb_starts[1:] = np.cumsum(forb_counts)[:-1]
    dist[np.arange(num), sources] = 0
    flat = dist.reshape(-1)
    offsets = np.arange(num, dtype=np.int64) * n
    # The frontier is the set of columns (nodes) where any source's label
    # improved last round: relaxing an edge for a source that did not
    # improve its tail is a no-op (the candidate cannot beat the standing
    # label), so per-source frontier masking is unnecessary, and only the
    # head columns of a round need snapshotting to detect improvements —
    # copying the whole (S, n) matrix per round would dominate at S = n.
    columns = np.unique(sources)
    while True:
        positions, tails = _gather_edges(indptr, columns)
        if positions.size == 0:
            break
        heads = indices[positions]
        candidates = dist[:, tails] + lengths[positions]
        if forb_rows is not None:
            # Kill each row's relaxations out of its own forbidden tail: its
            # barrier label must never leave the masked node.
            cols = np.flatnonzero(forb_counts[tails] > 0)
            if cols.size:
                counts = forb_counts[tails[cols]]
                ends = np.cumsum(counts)
                within = np.arange(int(ends[-1]), dtype=np.int64)
                within -= np.repeat(ends - counts, counts)
                starts = np.repeat(forb_starts[tails[cols]], counts)
                kill_rows = forb_sorted_rows[starts + within]
                candidates[kill_rows, np.repeat(cols, counts)] = unreached
        head_columns = np.unique(heads)
        if 4 * head_columns.size < n:
            # Narrow round: snapshot only the columns that can change.
            previous = dist[:, head_columns]
            np.minimum.at(flat, (offsets[:, None] + heads).ravel(), candidates.ravel())
            improved = (dist[:, head_columns] < previous).any(axis=0)
            columns = head_columns[improved]
        else:
            # Wide round: the head set approaches n, where one flat copy is
            # cheaper than two fancy-index gathers of almost everything.
            previous = dist.copy()
            np.minimum.at(flat, (offsets[:, None] + heads).ravel(), candidates.ravel())
            columns = np.flatnonzero((dist < previous).any(axis=0))
        if columns.size == 0:
            break
    if masked:
        dist[:, forbidden] = INT_UNREACHED if integral else np.inf
    if forb_rows is not None:
        dist[rows_masked, forb_rows[rows_masked]] = unreached
    return dist


def int_to_float_rows(dist: np.ndarray) -> np.ndarray:
    """Convert int64 distances (row or matrix) to ``dijkstra_csr``'s floats.

    ``float(d)`` is exact for every gated distance (``< 2**53``), so each
    entry is bit-identical to the heap kernel's float label on integer
    lengths; :data:`INT_UNREACHED` becomes ``inf``.
    """
    rows = dist.astype(np.float64)
    rows[dist >= INT_UNREACHED] = np.inf
    return rows


def scaled_float_rows(hops: np.ndarray, unit: float) -> np.ndarray:
    """Vectorised ``scaled_float_row`` (row or matrix): hops scaled by ``unit``.

    Each entry is the same single IEEE product ``float(h) * unit`` the list
    helper computes; :data:`~repro.graphs.int_kernels.UNREACHED` becomes
    ``inf``.
    """
    # One fused ufunc: each int hop converts to its exact double (< 2**53)
    # before the multiply, so every entry is the same single IEEE product
    # ``float(h) * unit`` the two-step astype-then-scale spelling computes.
    rows = hops * np.float64(unit)
    rows[hops < 0] = np.inf
    return rows


# --------------------------------------------------------------------- #
# Repair kernels
# --------------------------------------------------------------------- #
def _prepare_edits(edits, forbidden, tight_of):
    """Normalise ``edits`` and collect phase-1 tight seeds.

    Returns ``(edit_map, seeds)`` like the list kernels' preamble:
    ``edit_map`` maps each mover (the masked node's edits dropped) to its
    ``(removed, added)`` frozensets, and ``seeds`` lists the heads of removed
    arcs that were *tight* under the old row (``tight_of(mover, head)``).
    """
    edit_map = {}
    seeds: List[int] = []
    for mover, removed, added in edits:
        if mover == forbidden:
            continue  # the masked graph never contained this node's arcs
        edit_map[mover] = (frozenset(removed), frozenset(added))
        for head in removed:
            if head != forbidden and tight_of(mover, head):
                seeds.append(head)
    return edit_map, seeds


def _affected_mask(
    dist: np.ndarray,
    seeds: List[int],
    edit_map,
    indptr: np.ndarray,
    indices: np.ndarray,
    edge_weights,
    pair_weights,
    source: int,
    forbidden: int,
    n: int,
) -> np.ndarray:
    """Vectorised phase 1: mark the region whose old distance lost support.

    The frontier sweep follows old-graph tight edges (``dist[y] == dist[v] +
    w(v, y)``) exactly like ``_phase1_affected``; unedited nodes' out-rows
    come from one CSR gather per round, and the handful of edited movers
    reconstruct their old rows (new row minus added arcs plus removed arcs)
    in a scalar loop.  ``edge_weights(positions)`` returns per-CSR-edge
    weights and ``pair_weights(v, heads)`` static arc weights for the
    reconstructed rows.
    """
    affected = np.zeros(n, dtype=bool)
    edited = np.zeros(n, dtype=bool)
    if edit_map:
        edited[list(edit_map)] = True
    frontier = np.unique(np.asarray(seeds, dtype=np.int64))
    while frontier.size:
        affected[frontier] = True
        plain = frontier[~edited[frontier]]
        positions, tails = _gather_edges(indptr, plain)
        heads = indices[positions]
        keep = (
            (heads != source)
            & ~affected[heads]
            & (dist[heads] == dist[tails] + edge_weights(positions))
        )
        if forbidden >= 0:
            keep &= heads != forbidden
        batches = [heads[keep]]
        for mover in frontier[edited[frontier]]:
            v = int(mover)
            removed, added = edit_map[v]
            old_out = [
                y for y in indices[indptr[v] : indptr[v + 1]].tolist() if y not in added
            ]
            old_out.extend(removed)
            if not old_out:
                continue
            ys = np.asarray(old_out, dtype=np.int64)
            keep_y = (
                (ys != source)
                & ~affected[ys]
                & (dist[ys] == dist[v] + pair_weights(v, ys))
            )
            if forbidden >= 0:
                keep_y &= ys != forbidden
            batches.append(ys[keep_y])
        frontier = np.unique(np.concatenate(batches)) if len(batches) > 1 else np.unique(batches[0])
        frontier = frontier[~affected[frontier]]
    return affected


def _boundary_seeds(
    work: np.ndarray,
    affected: np.ndarray,
    rev_indptr: np.ndarray,
    rev_tails: np.ndarray,
    in_weights,
    forbidden: int,
    unreached,
) -> np.ndarray:
    """Vectorised phase-2 seeding from the intact in-boundary.

    For every affected node ``v``, the best label reachable in one hop from a
    non-affected in-neighbour ``p`` with a finite label: ``min over p of
    work[p] + w(p, v)``.  One reverse-CSR gather replaces the per-node
    in-neighbour loops of the list kernels; ``np.minimum.at`` takes the
    per-head minimum, which is exact (no rounding happens in a min).
    """
    pending = np.full(work.shape[0], unreached, dtype=work.dtype)
    aff_nodes = np.flatnonzero(affected)
    positions, heads = _gather_edges(rev_indptr, aff_nodes)
    if positions.size:
        tails = rev_tails[positions]
        keep = ~affected[tails] & (work[tails] < unreached)
        if forbidden >= 0:
            keep &= tails != forbidden
        if keep.any():
            tails, heads = tails[keep], heads[keep]
            np.minimum.at(pending, heads, work[tails] + in_weights(tails, heads))
    return pending


def _continue_relax(
    work: np.ndarray,
    pending: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    edge_weights,
    forbidden: int,
) -> np.ndarray:
    """Frontier continuation: apply seeded labels, relax until fixed point.

    ``pending`` holds per-node candidate labels (boundary seeds plus added
    arcs); each round applies the candidates that improve ``work`` and
    relaxes the out-edges of the improved nodes, exactly the seeded-heap
    continuation of the list kernels expressed as array sweeps.  Returns the
    boolean mask of nodes whose label was (re)assigned.
    """
    changed = np.zeros(work.shape[0], dtype=bool)
    while True:
        frontier = np.flatnonzero(pending < work)
        if frontier.size == 0:
            return changed
        work[frontier] = pending[frontier]
        changed[frontier] = True
        positions, tails = _gather_edges(indptr, frontier)
        if positions.size == 0:
            continue
        heads = indices[positions]
        candidates = work[tails] + edge_weights(positions)
        if forbidden >= 0:
            keep = heads != forbidden
            heads, candidates = heads[keep], candidates[keep]
        np.minimum.at(pending, heads, candidates)


def repair_hops_csr_np(
    indptr: np.ndarray,
    indices: np.ndarray,
    hops: List[int],
    source: int,
    edits: Sequence[Tuple[int, Iterable[int], Iterable[int]]],
    rev_indptr: np.ndarray,
    rev_tails: np.ndarray,
    forbidden: int = -1,
) -> List[int]:
    """Vectorised ``repair_hops_csr``: repair a BFS hop row in place.

    Same contract as the list kernel — ``hops`` is a valid hop row of the old
    graph, ``indptr``/``indices`` (and the reverse CSR) describe the new one,
    and the returned ids are a superset of the entries that changed — but the
    affected-region marking and the seeded continuation run as array sweeps.
    The row stays a plain Python list (entries are written back as ints), so
    the engine's caches are backend-agnostic.
    """
    n = len(hops)
    dist = np.asarray(hops, dtype=np.int64)

    def tight_of(mover: int, head: int) -> bool:
        dm = hops[mover]
        return dm >= 0 and head != source and hops[head] == dm + 1

    edit_map, seeds = _prepare_edits(edits, forbidden, tight_of)
    if not edit_map:
        return []

    def unit_weight(positions):
        return 1

    def unit_pair_weight(tails, heads):
        return 1

    if seeds:
        affected = _affected_mask(
            dist, seeds, edit_map, indptr, indices,
            unit_weight, lambda v, ys: 1, source, forbidden, n,
        )
    else:
        affected = np.zeros(n, dtype=bool)

    work = np.where(dist < 0, INT_UNREACHED, dist)
    work[affected] = INT_UNREACHED
    pending = _boundary_seeds(
        work, affected, rev_indptr, rev_tails,
        unit_pair_weight, forbidden, INT_UNREACHED,
    )
    for mover, (_removed, added) in edit_map.items():
        dm = hops[mover]
        if dm < 0 or affected[mover]:
            continue
        for head in added:
            if head != forbidden and not affected[head]:
                pending[head] = min(pending[head], dm + 1)
    changed = _continue_relax(work, pending, indptr, indices, unit_weight, forbidden)

    touched = np.flatnonzero(affected | changed)
    for v in touched.tolist():
        label = work[v]
        hops[v] = int(label) if label < INT_UNREACHED else UNREACHED
    return touched.tolist()


def repair_dijkstra_csr_np(
    indptr: np.ndarray,
    indices: np.ndarray,
    lengths: np.ndarray,
    dist_row: List[float],
    source: int,
    edits: Sequence[Tuple[int, Iterable[int], Iterable[int]]],
    rev_indptr: np.ndarray,
    rev_tails: np.ndarray,
    length_matrix: np.ndarray,
    forbidden: int = -1,
) -> List[int]:
    """Vectorised ``repair_dijkstra_csr``: repair a weighted row in place.

    ``lengths`` must be the float64 per-edge lengths of the new CSR and
    ``length_matrix`` the dense float64 ``length_matrix[p, v]`` table (for
    old-row reconstruction and boundary in-edges).  The float arithmetic is
    the same single-sum-per-arc the list kernel performs, so repaired labels
    are bit-identical; on integer-valued lengths every label remains an
    exact integer in float form.
    """
    n = len(dist_row)
    dist = np.asarray(dist_row, dtype=np.float64)

    def tight_of(mover: int, head: int) -> bool:
        dm = dist_row[mover]
        if dm == float("inf"):
            return False
        return head != source and dist_row[head] == dm + length_matrix[mover, head]

    edit_map, seeds = _prepare_edits(edits, forbidden, tight_of)
    if not edit_map:
        return []

    def edge_w(positions):
        return lengths[positions]

    if seeds:
        affected = _affected_mask(
            dist, seeds, edit_map, indptr, indices,
            edge_w, lambda v, ys: length_matrix[v, ys], source, forbidden, n,
        )
    else:
        affected = np.zeros(n, dtype=bool)

    work = dist.copy()
    work[affected] = np.inf
    pending = _boundary_seeds(
        work, affected, rev_indptr, rev_tails,
        lambda tails, heads: length_matrix[tails, heads], forbidden, np.inf,
    )
    for mover, (_removed, added) in edit_map.items():
        dm = dist_row[mover]
        if dm == float("inf") or affected[mover]:
            continue
        for head in added:
            if head != forbidden and not affected[head]:
                candidate = dm + float(length_matrix[mover, head])
                if candidate < pending[head]:
                    pending[head] = candidate
    changed = _continue_relax(work, pending, indptr, indices, edge_w, forbidden)

    touched = np.flatnonzero(affected | changed)
    for v in touched.tolist():
        dist_row[v] = float(work[v])
    return touched.tolist()


__all__ = [
    "INT_UNREACHED",
    "bfs_hops_csr_multi",
    "bfs_hops_csr_np",
    "csr_arrays",
    "dijkstra_csr_multi",
    "dijkstra_csr_np",
    "int_to_float_rows",
    "repair_dijkstra_csr_np",
    "repair_hops_csr_np",
    "reverse_csr",
    "scaled_float_rows",
]
