"""Numpy-vectorized search-kernel backend (``"numpy"``).

The big-int :class:`~repro.quasiclique.kernel.SearchKernel` packs the
``indeg_ext`` counter table into 16-bit lanes of one arbitrary-precision
integer and runs every rule as a handful of big-int operations.  CPython
executes those operations as scalar 30-bit-digit loops with carry
propagation; this backend stores the same counter table as a numpy array —
one unsigned lane per working vertex — so the identical rules run through
numpy's SIMD bulk kernels instead:

* vertex retirement is vectorized: in the sibling sweep of
  :meth:`NumpySearchKernel.children` one running sum over the retired
  rows of the 0/1 adjacency matrix produces *every* sibling's counter
  vector in one batch, where the big-int kernel subtracts per sibling.
  A restriction retires its dropped candidates on the side the shared
  ``_remove`` picks: :meth:`NumpySearchKernel._subtract` takes one row
  sum over the dropped rows, :meth:`NumpySearchKernel._rebuild` one row
  sum over the kept scope's rows (used when more vertices are dropped
  than kept);
* the threshold rules (candidate filter, hopelessness, lookahead) are one
  vectorized compare ``ext_vec < required`` plus a boolean mask-reduce,
  replacing the SWAR borrow trick.

Lane-width specialisation is dtype selection: working sets of at most
:data:`~repro.quasiclique.kernel.NUMPY_UINT8_MAX_VERTICES` vertices use
``uint8`` lanes (counters are bounded by n-1, so 8 bits suffice with
headroom), larger ones ``uint16`` up to the same 32767-vertex bound as the
big-int lanes — both backends refuse exactly the same working sets, with a
typed :class:`~repro.errors.KernelCapacityError`.

:class:`NumpySearchKernel` subclasses :class:`SearchKernel`: the rule
skeleton (restriction fixpoint, small-set short-cuts, member check) is
shared, and only the lane representation is overridden, so node life
cycle, traversal order, counter accounting and pruning fixpoints are the
big-int kernel's by construction.  The big-int path is the differential
reference, and the fuzz grids assert byte-identical mining output and
search statistics across backends; :meth:`NumpySearchKernel.unpack`
serves the same per-node invariant probe.

Node state differs from the big-int node only in representation:
``ext_vec`` is an ``(n,)`` array in the selected dtype; everything else
(member tuples, int masks) is byte-for-byte the big-int node's, so the
search loop, the distance rule and the memo keys stay representation-blind.
Boolean membership arrays are derived on demand from the int masks (one
``unpackbits`` — microseconds at the lane bound) instead of being carried
on nodes; profiling showed maintaining them in lockstep cost more than
rebuilding them at the handful of vectorized decision points.  Counter
arrays are never mutated across nodes: a child either owns a fresh row of
the batch-computed sweep matrix or (the first child) aliases its parent's
vector, which is dead by then — the same zero-copy sharing discipline as
the immutable big-int lane vectors.

:func:`repro.quasiclique.kernel.make_search_kernel` selects this backend
for working sets of at least
:data:`~repro.quasiclique.kernel.NUMPY_AUTO_MIN_VERTICES` vertices.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.quasiclique.kernel import (
    NUMPY_BACKEND,
    NUMPY_UINT8_MAX_VERTICES,
    SearchKernel,
)

#: Sibling batches with at most this many *cells* (siblings × lanes) use
#: ``np.cumsum`` for the retirement sweep; larger batches run an explicit
#: row loop — one in-place SIMD row add per retired sibling — because
#: ``add.accumulate`` along axis 0 degenerates to a scalar per-column loop
#: (measured ~15x slower at 3000x3000 lanes).
_CUMSUM_CELLS_MAX = 1 << 15


class NumpyKernelNode:
    """One search-tree node with its counters in a numpy lane array.

    ``members``/``members_mask``/``candidates`` are exactly the big-int
    node's fields (tuples and int masks — the search loop is agnostic);
    ``ext_vec`` holds ``|N(v) ∩ scope|`` for every working vertex in the
    kernel's dtype.
    """

    __slots__ = ("members", "members_mask", "candidates", "ext_vec")

    def __init__(
        self,
        members: Tuple[int, ...],
        members_mask: int,
        candidates: int,
        ext_vec,
    ) -> None:
        self.members = members
        self.members_mask = members_mask
        self.candidates = candidates
        self.ext_vec = ext_vec


class NumpySearchKernel(SearchKernel):
    """Vectorized :class:`~repro.quasiclique.kernel.SearchKernel`.

    Same constructor signature, same method surface, same statistics —
    see the module docstring for the representation differences.  The
    search-rule skeleton (restriction fixpoint, small-set short-cuts,
    member check, the choice of retirement side) is inherited; this class
    overrides only the lane representation: the lane table, node
    construction, the two retirement sides and the three threshold
    compares.  ``stats.counter_updates`` counts the lane units added or
    subtracted, exactly like the big-int backend.
    """

    __slots__ = ("dtype_name", "_dtype", "_n", "_degrees", "_root_ext")

    backend_label = NUMPY_BACKEND

    def _build_lanes(self) -> None:
        """The 0/1 adjacency matrix in the lane dtype, plus root degrees."""
        adjacency = self.adjacency
        n = self._n = len(adjacency)
        if n <= NUMPY_UINT8_MAX_VERTICES:
            self._dtype = np.uint8
            self.dtype_name = "uint8"
        else:
            self._dtype = np.uint16
            self.dtype_name = "uint16"
        self._degrees = [mask.bit_count() for mask in adjacency]
        if n:
            nbytes = (n + 7) // 8
            buf = b"".join(mask.to_bytes(nbytes, "little") for mask in adjacency)
            packed = np.frombuffer(buf, dtype=np.uint8).reshape(n, nbytes)
            bits = np.unpackbits(packed, axis=1, count=n, bitorder="little")
            # 0/1 adjacency rows in the lane dtype: row u is SPREAD[u].
            self._spread = np.ascontiguousarray(bits, dtype=self._dtype)
        else:
            self._spread = np.zeros((0, 0), dtype=self._dtype)
        self._root_ext = np.array(self._degrees, dtype=self._dtype)

    # ------------------------------------------------------------------
    # mask ↔ array conversion
    # ------------------------------------------------------------------
    def _mask_to_bool(self, mask: int):
        """Boolean membership array of an int bit mask (ascending ids)."""
        n = self._n
        raw = mask.to_bytes((n + 7) // 8, "little")
        return np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8), count=n, bitorder="little"
        ).view(np.bool_)

    @staticmethod
    def _bool_to_mask(flags) -> int:
        """Int bit mask of a boolean membership array."""
        return int.from_bytes(
            np.packbits(flags, bitorder="little").tobytes(), "little"
        )

    # ------------------------------------------------------------------
    # node construction
    # ------------------------------------------------------------------
    def root(self) -> NumpyKernelNode:
        """The root node: empty X, every vertex a candidate."""
        n = self._n
        self.stats.counter_updates += n
        return NumpyKernelNode((), 0, (1 << n) - 1, self._root_ext.copy())

    def children(self, node: NumpyKernelNode) -> List[NumpyKernelNode]:
        """Expand a node into its set-enumeration children.

        Identical tree to the big-int kernel (ascending local id order,
        candidates above the extension).  All sibling sweep vectors come
        from **one** batched computation — a running sum over the retired
        candidates' adjacency rows, subtracted from the parent vector —
        so child ``i`` owns row ``i-1`` of the result, and child 0 aliases
        the parent's vector, which is never used again.  Values stay
        ≤ n-1 throughout, inside the lane dtype, so no accumulator
        widening is needed.
        """
        idx = np.flatnonzero(self._mask_to_bool(node.candidates))
        k = int(idx.size)
        if not k:
            return []
        ext_mat = None
        if k > 1:
            rows = k - 1
            if rows * self._n <= _CUMSUM_CELLS_MAX:
                cum = np.cumsum(self._spread[idx[:-1]], axis=0, dtype=self._dtype)
                ext_mat = node.ext_vec[None, :] - cum
            else:
                # ext_mat[i] = parent_ext - Σ_{j≤i} SPREAD[idx[j]]: seed
                # every row with (parent_ext - its own retired row), then
                # one in-place SIMD row-add of the previous row minus the
                # double-counted parent vector.
                ext_mat = np.subtract(node.ext_vec[None, :], self._spread[idx[:-1]])
                parent = node.ext_vec
                for i in range(1, rows):
                    row = ext_mat[i]
                    row += ext_mat[i - 1]
                    row -= parent

        members = node.members
        members_mask = node.members_mask
        degrees = self._degrees
        rest = node.candidates
        updates = 0
        children: List[NumpyKernelNode] = []
        for i, u in enumerate(idx.tolist()):
            low = 1 << u
            rest ^= low
            children.append(
                NumpyKernelNode(
                    members + (u,),
                    members_mask | low,
                    rest,
                    node.ext_vec if i == 0 else ext_mat[i - 1],
                )
            )
            if rest:
                # u leaves the scope of every higher-ranked sibling
                updates += degrees[u]
        self.stats.counter_updates += updates
        return children

    # ------------------------------------------------------------------
    # threshold compares and retirement (vectorized forms)
    # ------------------------------------------------------------------
    def _failing(self, node: NumpyKernelNode, candidates: int, required: int) -> int:
        """Mask of the ``candidates`` whose ``indeg_ext`` is below ``required``."""
        failing = self._mask_to_bool(candidates) & (node.ext_vec < required)
        return self._bool_to_mask(failing) if failing.any() else 0

    def _members_short(self, node: NumpyKernelNode, required: int) -> bool:
        """Does some member's ``indeg_ext`` fall below ``required``?"""
        return bool((node.ext_vec[list(node.members)] < required).any())

    def _scope_short(self, node: NumpyKernelNode, required: int) -> bool:
        """Does some member's or candidate's ``indeg_ext`` fall below ``required``?"""
        scope_bool = self._mask_to_bool(node.members_mask | node.candidates)
        return bool(((node.ext_vec < required) & scope_bool).any())

    def _subtract(self, node: NumpyKernelNode, dropped: int) -> None:
        """Retire ``dropped`` by one batched row-sum over its adjacency rows.

        The counter vector is replaced out of place: it may be a row view
        into a sibling sweep matrix, and no other node may observe the
        change.
        """
        degrees = self._degrees
        spread = self._spread
        if dropped & (dropped - 1) == 0:
            v = dropped.bit_length() - 1
            total = spread[v]
            updates = degrees[v]
        else:
            drop_idx = np.flatnonzero(self._mask_to_bool(dropped))
            total = spread[drop_idx].sum(axis=0, dtype=self._dtype)
            updates = sum(degrees[v] for v in drop_idx.tolist())
        node.ext_vec = node.ext_vec - total
        self.stats.counter_updates += updates

    def _rebuild(self, node: NumpyKernelNode, kept: int) -> None:
        """Recompute ``ext_vec`` as one row sum over the scope ``X ∪ kept``.

        The node carries no ``cand_high`` — the compares derive candidate
        membership from the int masks — so the row sum is the whole
        rebuild.  Counted like the big-int rebuild: the scope's degrees.
        """
        scope_idx = np.flatnonzero(self._mask_to_bool(node.members_mask | kept))
        node.ext_vec = self._spread[scope_idx].sum(axis=0, dtype=self._dtype)
        degrees = self._degrees
        self.stats.counter_updates += sum(degrees[v] for v in scope_idx.tolist())

    def unpack(self, node: NumpyKernelNode) -> List[int]:
        """The node's live ``indeg_ext`` lane values, one per vertex."""
        return node.ext_vec.tolist()


__all__ = ["NumpyKernelNode", "NumpySearchKernel"]
