"""The k-cursor sparse table (Section 4, Figures 2-5, Invariants 10/11).

Representation
--------------
The chunk tree is authoritative: every chunk stores its buffer size ``B``,
gap count/offset ``(G, gap_offset)``, cached total space ``S`` and state
(BUFFERED/UNBUFFERED).  The physical array is a *pure function* of this
state (see :mod:`repro.kcursor.layout`), so rebuild "slides" are O(1)
bookkeeping plus an analytically computed slot-move cost -- exactly the
quantity Theorems 18/19 bound.  Optionally each district also stores its
element values (LIFO order), which slides never reorder.

Algorithm
---------
``insert``/``delete`` and the cascading ``_grow``/``_return_slots``
rebuilds follow the paper's Figure 4 pseudocode plus the deletion rules in
Section 4.2.  Gap geometry follows Invariant 11; see
:mod:`repro.kcursor.chunk` for the one place where the conference text
leaves freedom (post-consumption offsets) and how we resolve it.

tau modes
---------
``tau_mode="global"`` uses a single ``tau = delta'/(H+1)`` (Section 4.1,
fixed ``k``).  ``tau_mode="local"`` gives every chunk its own ``tau``
derived from the highest district index it covers (the paper's "Creating
more cursors" refinement), which makes :meth:`append_district` free of any
global retuning and is required for growing past the initial capacity.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Protocol

from repro import faults
from repro.kcursor.chunk import Chunk, build_tree
from repro.kcursor.costmodel import CostCounter, OpStats, RebuildRecord
from repro.kcursor.params import Params, _ceil_lg


class TableObserverProto(Protocol):
    """Structural contract for k-cursor observers (repro.obs.instrument).

    Defined here so the hot layer can type its observer slot without
    importing :mod:`repro.obs` (layering, reprolint RL002)."""

    def before_op(self, table: "KCursorSparseTable", kind: str, district: int) -> None: ...

    def after_op(self, table: "KCursorSparseTable", op: OpStats, units: int) -> None: ...


class KCursorSparseTable:
    """Sparse table over ``k`` LIFO cursor districts.

    Parameters
    ----------
    k:
        initial number of districts (may grow via :meth:`append_district`
        in ``"local"`` tau mode).
    delta:
        space parameter; prefix density is kept at ``1 + delta`` via the
        paper's ``delta' = 1/ceil(9/delta)`` derivation.
    params:
        pre-resolved :class:`Params` (overrides ``delta``).
    track_values:
        when True, stores the actual inserted values per district (LIFO);
        when False the table is purely positional (the scheduler's use).
    tau_mode:
        ``"global"`` (paper Section 4.1) or ``"local"`` (paper's
        "Creating more cursors" variant, per-chunk tau).
    gaps_enabled:
        ablation switch (default True = the paper's structure).  With
        False the gap machinery of Section 4.2 is disabled: every
        left-chunk rebuild must slide its entire right sibling.  The
        structure stays correct and dense but loses the n-independent
        cost bound under drastically unbalanced districts (bench:
        ``benchmarks/bench_ablation.py``).
    """

    def __init__(
        self,
        k: int,
        delta: float = 0.5,
        *,
        params: Optional[Params] = None,
        track_values: bool = False,
        tau_mode: str = "global",
        gaps_enabled: bool = True,
    ) -> None:
        if tau_mode not in ("global", "local"):
            raise ValueError(f"tau_mode must be 'global' or 'local', got {tau_mode!r}")
        params = params if params is not None else Params.from_delta(k, delta)
        params.validate()
        root, leaves = build_tree(params.H)
        self._setup(params, tau_mode, root, leaves, params.k, gaps_enabled, track_values)
        self._assign_inv_tau(root)

    @classmethod
    def from_tree(
        cls, root: Chunk, leaves: list[Chunk], *, params: Params, tau_mode: str, k: int
    ) -> "KCursorSparseTable":
        """A positional table over ``k`` districts of a complete chunk tree
        whose every chunk field, ``it`` included, is already set (a
        snapshot restore): nothing is rebuilt or reassigned."""
        out = cls.__new__(cls)
        out._setup(params, tau_mode, root, leaves, k, True, False)
        out._n = sum(leaf.count for leaf in leaves)
        return out

    def _setup(
        self,
        params: Params,
        tau_mode: str,
        root: Chunk,
        leaves: list[Chunk],
        k: int,
        gaps_enabled: bool,
        track_values: bool,
    ) -> None:
        self.params = params
        self.tau_mode = tau_mode
        self.gaps_enabled = gaps_enabled
        self._k = k
        self._height = root.level
        self._root = root
        self._leaves = leaves
        self._values: Optional[list[list[Any]]] = (
            [[] for _ in range(len(leaves))] if track_values else None
        )
        self._n = 0
        self.counter = CostCounter()
        self.last_op: Optional[OpStats] = None
        self._op: Optional[OpStats] = None
        # Optional obs hook (repro.obs.instrument.KCursorObserver); None =
        # uninstrumented, costing one attribute test per operation.
        self._observer: Optional[TableObserverProto] = None

    # ------------------------------------------------------------------
    # Parameterization

    def _chunk_inv_tau(self, level: int, index: int) -> int:
        """``1/tau`` for the chunk at (level, index)."""
        if self.tau_mode == "global":
            return self.params.delta_prime_inv * (self._height + 1)
        # local mode: tau' = delta' / (ceil(lg l) + 1) where l-1 is the
        # highest district index the chunk covers (paper, Section 4.3 end).
        covered = (index + 1) << level  # districts strictly below this bound
        return self.params.delta_prime_inv * (_ceil_lg(covered) + 1)

    def _assign_inv_tau(self, node: Chunk) -> None:
        node.it = self._chunk_inv_tau(node.level, node.index)
        if node.left is not None:
            assert node.right is not None  # internal chunks have both children
            self._assign_inv_tau(node.left)
            self._assign_inv_tau(node.right)

    # ------------------------------------------------------------------
    # Introspection

    @property
    def k(self) -> int:
        """Number of districts currently exposed."""
        return self._k

    @property
    def capacity(self) -> int:
        return len(self._leaves)

    def __len__(self) -> int:
        return self._n

    def district_len(self, j: int) -> int:
        return self._leaf(j).count

    @property
    def total_span(self) -> int:
        """Total array slots in use (elements + buffers + gaps)."""
        return self._root.S

    def _leaf(self, j: int) -> Chunk:
        if not (0 <= j < self._k):
            raise IndexError(f"district {j} out of range [0, {self._k})")
        return self._leaves[j]

    # ------------------------------------------------------------------
    # Positions

    def _abs_pos(self, node: Chunk, s: int) -> int:
        """Absolute array position of slot ``s`` of ``node``'s own slots."""
        while node.parent is not None:
            p = node.parent
            if node.is_right_child:
                assert p.left is not None  # internal chunks have both children
                s += p.left.S + p.gaps_before_slot(s, p.it)
            node = p
        return s

    def district_extent(self, j: int) -> tuple[int, int]:
        """Half-open absolute interval spanned by district ``j``'s elements.

        Empty districts yield a zero-length interval at their position.
        Higher-level gaps interleaved inside the interval are counted in
        its length (they are empty schedule slack for the scheduler).
        """
        return self.district_extents((j,))[0]

    def district_extents(self, districts: Optional[Iterable[int]] = None) -> list[tuple[int, int]]:
        """:meth:`district_extent` of each of ``districts`` (default: every
        district), in the order given, from one call.

        Each district's two ends come from one upward walk from its leaf
        (the absolute positions of its first and last element, side by
        side); the walks share no state, so any order is valid.
        """
        leaves = self._leaves
        k = self._k
        out: list[tuple[int, int]] = []
        for j in range(k) if districts is None else districts:
            if not 0 <= j < k:
                raise IndexError(f"district {j} out of range [0, {k})")
            node = leaves[j]
            count = node.count
            first = 0
            last = count - 1 if count else 0
            p = node.parent
            while p is not None:
                if node.is_right_child:
                    assert p.left is not None  # internal chunks have both children
                    s_left = p.left.S
                    if p.gaps:
                        it = p.it
                        first += s_left + p.gaps_before_slot(first, it)
                        last += s_left + p.gaps_before_slot(last, it)
                    else:
                        first += s_left
                        last += s_left
                node = p
                p = node.parent
            out.append((first, last + 1) if count else (first, first))
        return out

    def element_position(self, j: int, i: int) -> int:
        """Absolute position of the ``i``-th element of district ``j``."""
        leaf = self._leaf(j)
        if not (0 <= i < leaf.count):
            raise IndexError(f"element {i} out of range in district {j}")
        return self._abs_pos(leaf, i)

    def district_values(self, j: int) -> list[Any]:
        if self._values is None:
            raise RuntimeError("table was built with track_values=False")
        self._leaf(j)
        return list(self._values[j])

    # ------------------------------------------------------------------
    # Global-rank view (elements of all districts, in array order)

    def rank_of(self, j: int, i: int) -> int:
        """Global rank (0-indexed, in array order) of district ``j``'s
        ``i``-th element."""
        leaf = self._leaf(j)
        if not (0 <= i < leaf.count):
            raise IndexError(f"element {i} out of range in district {j}")
        return sum(self._leaves[d].count for d in range(j)) + i

    def locate(self, rank: int) -> tuple[int, int]:
        """Inverse of :meth:`rank_of`: global rank -> (district, ordinal)."""
        if not (0 <= rank < self._n):
            raise IndexError(f"rank {rank} out of range [0, {self._n})")
        for j in range(self._k):
            c = self._leaves[j].count
            if rank < c:
                return (j, rank)
            rank -= c
        raise AssertionError("unreachable: rank bookkeeping corrupt")

    def value_at(self, rank: int) -> Any:
        """Value of the element with the given global rank."""
        if self._values is None:
            raise RuntimeError("table was built with track_values=False")
        j, i = self.locate(rank)
        return self._values[j][i]

    def __iter__(self) -> Iterator[Any]:
        """Iterate values in array order (requires track_values=True)."""
        if self._values is None:
            raise RuntimeError("table was built with track_values=False")
        for j in range(self._k):
            yield from self._values[j]

    # ------------------------------------------------------------------
    # Updates

    def insert(self, j: int, value: Any = None) -> None:
        """INSERT(x, j): append one element to district ``j``."""
        leaf = self._leaf(j)
        obs = self._observer
        if obs is not None:
            obs.before_op(self, "insert", j)
        op = OpStats(kind="insert", district=j)
        self._op = op
        if leaf.buf == 0:
            self._grow(leaf, 1)
        leaf.count += 1
        leaf.buf -= 1  # S(leaf) is unchanged: an empty slot became full
        self._n += 1
        if self._values is not None:
            self._values[j].append(value)
        self._op = None
        self.last_op = op
        self.counter.absorb(op)
        if obs is not None:
            obs.after_op(self, op, 1)

    def extend(self, j: int, m: int) -> int:
        """Append ``m`` anonymous elements to district ``j`` in one batch.

        Semantically identical to ``m`` INSERTs; the leaf requests all
        ``m`` slots in a single rebuild cascade (amortized cost can only
        be lower), which is how the scheduler syncs a whole job's volume
        at once.  Counted as ``m`` operations.

        Returns the end of the moved range: only districts ``j`` up to,
        not including, the returned index can have changed their extent.
        With no rebuild only ``j`` itself changed.  Otherwise the range
        ends with the last leaf under the parent ``P`` of the highest chunk
        rebuilt: rebuilds move district boundaries one way (Theorem 19), so
        nothing left of ``j`` moves, and a rebuild of chunk ``c`` changes
        ``S(c)`` and ``P``'s gaps and buffer but not ``S(P)`` -- the slots
        ``c`` takes from or returns to ``P`` exactly balance its growth or
        shrink and the gap change (:meth:`_grow`, :meth:`_return_slots`) --
        so no slot outside ``P``'s subtree moves.  A rebuilt root reaches
        every district (its "parent" would cover twice the capacity).
        """
        if m <= 0:
            if m < 0:
                raise ValueError("m must be >= 0")
            return j
        leaf = self._leaf(j)
        obs = self._observer
        if obs is not None:
            obs.before_op(self, "insert", j)
        op = OpStats(kind="insert", district=j)
        self._op = op
        end = j + 1
        if leaf.buf < m:
            self._grow(leaf, m)
            # A chunk's record follows its parent's (the parent grows
            # first), so the first record is the highest chunk rebuilt.
            top = op.rebuilds[0].level + 1  # P's level
            end = ((j >> top) + 1) << top
            if end > self._k:
                end = self._k
        leaf.count += m
        leaf.buf -= m
        self._n += m
        if self._values is not None:
            self._values[j].extend([None] * m)
        self._op = None
        self.last_op = op
        self.counter.absorb(op, units=m)
        if obs is not None:
            obs.after_op(self, op, m)
        return end

    def shrink(self, j: int, m: int) -> int:
        """Remove the last ``m`` elements of district ``j`` in one batch.

        Returns the end of the moved range, as :meth:`extend` does."""
        if m <= 0:
            if m < 0:
                raise ValueError("m must be >= 0")
            return j
        leaf = self._leaf(j)
        if leaf.count < m:
            raise IndexError(f"district {j} holds {leaf.count} < {m} elements")
        obs = self._observer
        if obs is not None:
            obs.before_op(self, "delete", j)
        op = OpStats(kind="delete", district=j)
        self._op = op
        leaf.count -= m
        leaf.buf += m
        self._n -= m
        if self._values is not None:
            del self._values[j][-m:]
        self._maybe_shrink(leaf)
        self._op = None
        self.last_op = op
        self.counter.absorb(op, units=m)
        if obs is not None:
            obs.after_op(self, op, m)
        if not op.rebuilds:
            return j + 1
        # A chunk's record precedes its parent's (the parent shrinks
        # after), so the last record is the highest chunk rebuilt.
        top = op.rebuilds[-1].level + 1  # P's level
        end = ((j >> top) + 1) << top
        return end if end < self._k else self._k

    def delete(self, j: int) -> Any:
        """DELETE(j): remove and return the last element of district ``j``."""
        leaf = self._leaf(j)
        if leaf.count == 0:
            raise IndexError(f"district {j} is empty")
        obs = self._observer
        if obs is not None:
            obs.before_op(self, "delete", j)
        op = OpStats(kind="delete", district=j)
        self._op = op
        leaf.count -= 1
        leaf.buf += 1  # the vacated slot returns to the district's buffer
        self._n -= 1
        value = self._values[j].pop() if self._values is not None else None
        self._maybe_shrink(leaf)
        self._op = None
        self.last_op = op
        self.counter.absorb(op)
        if obs is not None:
            obs.after_op(self, op, 1)
        return value

    # ------------------------------------------------------------------
    # Insertion-direction rebuild (paper Figure 4, REBUILD)

    def _grow(self, c: Chunk, X: int) -> None:
        """Give chunk ``c`` enough parent space to grow by ``X`` slots.

        Postcondition: ``B(c)`` equals the desired buffer size for
        nonbuffer space ``N(c)+X``, *plus* the ``X`` slots the caller is
        about to consume.
        """
        plan = faults.ACTIVE
        if plan is not None:
            plan.hit("kcursor.rebuild.enter")
        it = c.it
        if c.N + X >= 2 * it * it:  # threshold: chunk becomes BUFFERED
            c.buffered = True
        d = (c.N + X) // (2 * it) if c.buffered else 0  # desired buffer size
        Y = d - c.buf + X  # slots to take from the parent; always >= 1 here
        rec = RebuildRecord(level=c.level, grow=True, space_delta=Y, slots_moved=0)
        p = c.parent

        if p is None:
            # Root: the "parent" is the infinite empty tail of the array;
            # extending into it moves nothing.
            c.buf += Y
            c.S += Y
            self._op.rebuilds.append(rec)
            if plan is not None:
                plan.hit("kcursor.rebuild.exit")
            return

        pit = p.it
        assert p.right is not None  # parents are internal chunks
        if not c.is_right_child:
            # Left child: consume the leftmost parent gaps first (they are
            # nearest), then parent buffer slots, which must cross the whole
            # right sibling.
            g_taken = min(p.gaps, Y)
            if not self.gaps_enabled:
                g_taken = 0
            Z = Y - g_taken
            if Z > p.buf:
                self._grow(p, Z)
            if Z > 0:
                # All gaps (if any) were consumed and the entire right
                # sibling slides right by Z: each of its S slots moves once.
                if plan is not None:
                    plan.hit("kcursor.chunk.slide")
                rec.slots_moved += p.right.S
            elif g_taken > 0:
                # Only the right sibling's prefix up to the last consumed
                # gap slides right to fill the gaps.
                rec.slots_moved += p.gap_offset + (g_taken - 1) * pit
            if g_taken:
                p.gaps -= g_taken
                p.gap_offset = p.gap_offset + g_taken * pit if p.gaps else 0
                rec.gaps_consumed = g_taken
            p.buf -= Z
        else:
            # Right child: its buffer is contiguous with the parent's, but
            # growing S(c_R) may require tagging fresh level-(i+1) gaps in
            # the appended space (Invariant 11).
            s_r_new = c.S + Y
            if not self.gaps_enabled:
                g = 0
                new_offset = 0
            elif p.gaps == 0:
                g = p.gaps_fitting(s_r_new, pit)
                new_offset = p.min_gap_offset(pit) if g > 0 else 0
            else:
                g = max(0, (s_r_new - p.last_gap_offset(pit)) // pit)
                new_offset = p.gap_offset
            Z = Y + g
            if Z > p.buf:
                self._grow(p, Z)
            p.buf -= Z
            if g:
                p.gaps += g
                p.gap_offset = new_offset
                rec.gaps_created = g
            # The Z slots are reassigned/tagged in place (all empty).
            self._op.slots_scanned += Z

        c.buf += Y
        c.S += Y
        self._op.slots_moved += rec.slots_moved
        self._op.rebuilds.append(rec)
        if plan is not None:
            plan.hit("kcursor.rebuild.exit")

    # ------------------------------------------------------------------
    # Deletion-direction rebuild (Section 4.2, "Deletions")

    def _maybe_shrink(self, c: Chunk) -> None:
        """Restore Invariant 10 on ``c`` after it gained buffer slots,
        cascading upward as returned slots inflate ancestors' buffers."""
        it = c.it
        if c.buffered and c.N < it * it:  # threshold: chunk turns UNBUFFERED
            c.buffered = False
        if c.buffered:
            if c.buf * it <= c.N:  # B <= tau * N holds
                return
            d = c.N // (2 * it)
        else:
            if c.buf == 0:
                return
            d = 0
        Y = c.buf - d
        if Y <= 0:
            return
        self._return_slots(c, Y)
        if c.parent is not None:
            self._maybe_shrink(c.parent)

    def _return_slots(self, c: Chunk, Y: int) -> None:
        """Return ``Y`` of ``c``'s buffer slots to its parent."""
        plan = faults.ACTIVE
        if plan is not None:
            plan.hit("kcursor.rebuild.enter")
        rec = RebuildRecord(level=c.level, grow=False, space_delta=Y, slots_moved=0)
        c.buf -= Y
        c.S -= Y
        p = c.parent

        if p is None:
            # Root: slots dissolve into the infinite empty tail for free.
            self._op.rebuilds.append(rec)
            if plan is not None:
                plan.hit("kcursor.rebuild.exit")
            return

        pit = p.it
        assert p.right is not None  # parents are internal chunks
        if not c.is_right_child:
            # Left child: the freed space sits at the right sibling's left
            # boundary.  Re-introduce front gaps up to Invariant 11's
            # canonical position; the remainder slides through to the
            # parent's buffer at the far right.
            o0 = p.min_gap_offset(pit)  # uses the *post-shrink* S(c_L)
            if not self.gaps_enabled:
                g_new = 0
                new_offset = 0
            elif p.gaps > 0:
                can_add = max(0, (p.gap_offset - o0) // pit)
                g_new = min(Y, can_add)
                new_offset = p.gap_offset - g_new * pit
            else:
                g_new = min(Y, p.gaps_fitting(p.right.S, pit))
                new_offset = o0 if g_new > 0 else 0
            z_ret = Y - g_new
            if z_ret > 0:
                # Whole right sibling (and its embedded gaps) slides left.
                if plan is not None:
                    plan.hit("kcursor.chunk.slide")
                rec.slots_moved += p.right.S
            elif g_new > 0:
                # Prefix of the right sibling up to the last new gap slides
                # left to open the interleaved gaps.
                rec.slots_moved += new_offset + (g_new - 1) * pit
            if g_new:
                p.gaps += g_new
                p.gap_offset = new_offset
                rec.gaps_created = g_new
            p.buf += z_ret
        else:
            # Right child: returned slots are adjacent to the parent's
            # buffer; any parent gaps embedded beyond the new extent are
            # returned along with them.
            s_r_new = c.S
            keep = p.gaps_before_slot(s_r_new, pit) if p.gaps else 0
            g_ret = p.gaps - keep
            if g_ret:
                p.gaps = keep
                if keep == 0:
                    p.gap_offset = 0
                rec.gaps_returned = g_ret
            p.buf += Y + g_ret
            self._op.slots_scanned += Y + g_ret

        self._op.slots_moved += rec.slots_moved
        self._op.rebuilds.append(rec)
        if plan is not None:
            plan.hit("kcursor.rebuild.exit")

    # ------------------------------------------------------------------
    # Dynamic districts ("Creating more cursors", Section 4.3)

    def append_district(self) -> int:
        """Add one district at the end of the structure; returns its index.

        Free while within the current tree capacity.  Beyond it, the tree
        gains a level: the old root becomes the left child of a fresh root
        whose right subtree is empty -- nothing moves, because all new
        space lies to the right of every existing slot.  Requires
        ``tau_mode="local"`` so existing chunks keep their tau.
        """
        j = self._k
        if j >= self.capacity:
            if self.tau_mode != "local":
                raise RuntimeError(
                    "growing beyond initial capacity requires tau_mode='local' "
                    "(paper, 'Creating more cursors')"
                )
            self._grow_tree()
        self._k += 1
        return j

    def _grow_tree(self) -> None:
        old_root = self._root
        self._height += 1
        new_root = Chunk(level=self._height, index=0)
        new_root.left = old_root
        old_root.parent = new_root
        old_root.is_right_child = False
        # Build the (empty) right sibling subtree.
        right = Chunk(level=self._height - 1, index=1, parent=new_root)
        right.is_right_child = True
        new_root.right = right
        stack = [right]
        new_leaves: list[Chunk] = []

        def expand(node: Chunk) -> None:
            if node.level == 0:
                new_leaves.append(node)
                return
            node.left = Chunk(node.level - 1, node.index * 2, parent=node)
            node.right = Chunk(node.level - 1, node.index * 2 + 1, parent=node)
            node.right.is_right_child = True
            expand(node.left)
            expand(node.right)

        for node in stack:
            expand(node)
        new_root.S = old_root.S
        self._assign_inv_tau_subtree(new_root)
        self._root = new_root
        self._leaves.extend(new_leaves)
        if self._values is not None:
            self._values.extend([] for _ in new_leaves)

    def _assign_inv_tau_subtree(self, node: Chunk) -> None:
        """Assign inv_tau to the new root and its fresh right subtree only
        (existing chunks keep theirs -- that is the point of local tau)."""
        node.it = self._chunk_inv_tau(node.level, node.index)
        right = node.right
        assert right is not None  # _grow_tree always builds the right subtree
        self._assign_inv_tau(right)

    # ------------------------------------------------------------------

    def iter_chunks(self) -> Iterator[Chunk]:
        """All chunks, preorder (invariant checks, snapshots).  One flat
        walk with an explicit stack: no generator per level."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            yield node
            if node.left is not None:
                assert node.right is not None  # internal chunks have both children
                stack.append(node.right)
                stack.append(node.left)

    @property
    def root(self) -> Chunk:
        return self._root

    @property
    def leaves(self) -> list[Chunk]:
        return self._leaves
