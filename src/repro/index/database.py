"""Temporal text database.

Stores *occurrences*: a run of text visible on screen from ``start_us``
until ``end_us`` (open while still visible), with the contextual
information the accessibility layer provides — "the name and type of the
application that generated the text, window focus, and special properties
about the text (e.g. if it is a menu item or an HTML link)" (section 4.2).

"By indexing the full state of the desktop's text over time, DejaView is
able to access the temporal relationships and state transitions of all
displayed text as database queries" — occurrences capture exactly those
state transitions: a node's text change closes one occurrence and opens the
next.

An inverted index maps each token to the occurrences containing it; query
evaluation in :mod:`repro.index.search` converts postings to visibility
intervals and applies interval algebra.

Posting lists are **partitioned into fixed-width time epochs** so that a
time-bounded query only scans — and is only charged virtual cost for —
the buckets overlapping its window.  An occurrence is registered in the
bucket of its ``start_us`` when it opens, and back-filled into every
further bucket its visibility interval covers when it closes; occurrences
still open are tracked separately per token (they extend to "now" and
therefore overlap any window that begins before they end).  The result is
that windowed retrieval touches a superset of the occurrences overlapping
the window and *none* of the history outside it: query cost scales with
the window, not with the length of the recording.

Two secondary structures support the rest of the query path:

* a **per-node occurrence index**, so ``occurrences_for_node`` is a
  direct lookup instead of a full-table scan;
* a monotonically increasing **mutation epoch**, bumped by every write
  (open, close, annotate), which the search engine's interval cache uses
  for invalidation.
"""

from dataclasses import dataclass

from repro.common.costs import DEFAULT_COSTS
from repro.common.errors import IndexError_
from repro.common.faults import InjectedFault, resolve_faults
from repro.common.telemetry import resolve_telemetry
from repro.common.units import seconds
from repro.index.tokenizer import tokenize

FP_INGEST_POST_OPEN = "index.ingest.post_open"
FP_CLOSE_MID_BACKFILL = "index.close.mid_backfill"

DEFAULT_EPOCH_WIDTH_US = seconds(60)
"""Default posting-bucket width.  One minute keeps bucket counts small for
the benchmark scenarios (minutes of simulated time) while still letting a
"last few minutes of a long day" query skip almost all of the history."""


@dataclass
class Occurrence:
    """One visibility span of a piece of on-screen text."""

    occ_id: int
    node_id: int
    app: str
    window: str
    text: str
    tokens: frozenset
    focused: bool
    properties: dict
    start_us: int
    end_us: int = None  # None while the text is still on screen
    committed: bool = True
    """False only while the occurrence's postings are being inserted; a
    crash mid-insert leaves it False, and :meth:`TemporalTextDatabase.
    recover` drops such partially indexed occurrences."""

    def interval(self, now_us):
        """The occurrence's visibility interval, closing open ones at
        ``now_us`` (text still visible counts up to the present)."""
        end = self.end_us if self.end_us is not None else now_us
        return (self.start_us, max(end, self.start_us + 1))

    @property
    def is_annotation(self):
        return bool(self.properties.get("annotation"))


class _TokenPostings:
    """One token's posting list, partitioned into time-epoch buckets.

    ``order`` holds every occurrence id exactly once in insertion order
    (ascending, since ids are allocated monotonically) — the full-history
    scan path.  ``buckets`` maps epoch number to the ids visible during
    that epoch (start bucket at open; the remaining covered buckets are
    back-filled at close).  ``open_ids`` are occurrences not yet closed:
    they only have their start bucket, but extend to "now", so windowed
    scans consider them separately.
    """

    __slots__ = ("order", "buckets", "open_ids")

    def __init__(self):
        self.order = []
        self.buckets = {}
        self.open_ids = []


class TemporalTextDatabase:
    """Occurrences + epoch-partitioned inverted token index."""

    def __init__(self, clock, costs=DEFAULT_COSTS, telemetry=None,
                 epoch_width_us=DEFAULT_EPOCH_WIDTH_US, faults=None):
        if epoch_width_us <= 0:
            raise ValueError("epoch width must be positive")
        self.clock = clock
        self.costs = costs
        self.epoch_width_us = int(epoch_width_us)
        self.telemetry = resolve_telemetry(telemetry)
        self.faults = resolve_faults(faults)
        metrics = self.telemetry.metrics
        self._m_inserts = metrics.counter("index.inserts")
        self._m_closes = metrics.counter("index.closes")
        self._m_postings_scanned = metrics.counter("index.postings_scanned")
        self._m_postings_pruned = metrics.counter("index.postings_pruned")
        self._m_buckets_skipped = metrics.counter("index.buckets_skipped")
        self._m_noop_reopens = metrics.counter("index.noop_reopens")
        self._m_tokens = metrics.histogram("index.tokens_per_insert")
        self._occurrences = {}  # occ id -> Occurrence
        self._next_occ_id = 1
        self._open_by_node = {}  # node id -> occ id
        self._index = {}  # token -> _TokenPostings
        self._by_node = {}  # node id -> [occ ids] (insertion order)
        self.insert_count = 0
        self.mutation_epoch = 0
        """Bumped by every write (open / close / annotate); the search
        engine's interval cache is valid only while this is unchanged."""

    # ------------------------------------------------------------------ #
    # Epoch arithmetic

    def _epoch(self, time_us):
        return max(int(time_us), 0) // self.epoch_width_us

    def window_key(self, window):
        """The ``(first_epoch, last_epoch)`` bucket range a window maps
        to — the cache-key component for windowed retrieval (two windows
        with the same key scan exactly the same buckets).  ``None`` for
        a full-history scan; ``last_epoch`` is None for an open-ended
        window."""
        if window is None:
            return None
        start_us, end_us = window
        first = self._epoch(start_us)
        last = None if end_us is None else self._epoch(max(end_us - 1, 0))
        return (first, last)

    # ------------------------------------------------------------------ #
    # Ingest (called by the indexing daemon)

    def open_occurrence(self, node_id, text, app, window="", focused=False,
                        properties=None):
        """Record that ``text`` became visible on ``node_id`` now.

        Any occurrence currently open for the node is closed first (a text
        *change* is a state transition: old text disappears, new appears).
        Re-signalling identical state is **not** a transition: if the
        node's open occurrence already has the same text and context, it is
        left open untouched (the accessibility layer replays subtrees on
        focus events, and the naive ablation daemon replays whole trees —
        closing and reopening an identical occurrence would split its
        visibility interval into adjacent pieces that interval algebra
        merges right back, at real ingest cost for nothing).
        Returns the occurrence (new or still-open), or None for token-free
        text.
        """
        properties = dict(properties or {})
        open_id = self._open_by_node.get(node_id)
        if open_id is not None:
            occ = self._occurrences[open_id]
            if (occ.text == text and occ.app == app
                    and occ.window == window and occ.focused == focused
                    and occ.properties == properties):
                self._m_noop_reopens.inc()
                return occ
        self.close_occurrence(node_id)
        tokens = frozenset(tokenize(text))
        if not tokens:
            return None
        occ = Occurrence(
            occ_id=self._next_occ_id,
            node_id=node_id,
            app=app,
            window=window,
            text=text,
            tokens=tokens,
            focused=focused,
            properties=properties,
            start_us=self.clock.now_us,
            committed=False,
        )
        self._next_occ_id += 1
        self._occurrences[occ.occ_id] = occ
        self._open_by_node[node_id] = occ.occ_id
        self._by_node.setdefault(node_id, []).append(occ.occ_id)
        start_epoch = self._epoch(occ.start_us)
        ordered = sorted(tokens)
        fire_at = len(ordered) // 2
        try:
            for position, token in enumerate(ordered):
                if position == fire_at:
                    # A crash here leaves a partially indexed occurrence
                    # with committed=False — recover() drops it.  A
                    # transient fault is rolled back below instead.
                    self.faults.check(FP_INGEST_POST_OPEN)
                postings = self._index.get(token)
                if postings is None:
                    postings = self._index[token] = _TokenPostings()
                postings.order.append(occ.occ_id)
                postings.buckets.setdefault(start_epoch, []).append(occ.occ_id)
                postings.open_ids.append(occ.occ_id)
        except InjectedFault:
            # Transient I/O error: roll the insert back entirely — it
            # never happened, and the caller may retry.
            for token in ordered:
                postings = self._index.get(token)
                if postings is None:
                    continue
                if postings.order and postings.order[-1] == occ.occ_id:
                    postings.order.pop()
                    postings.buckets[start_epoch].pop()
                    postings.open_ids.pop()
            del self._occurrences[occ.occ_id]
            del self._open_by_node[node_id]
            self._by_node[node_id].remove(occ.occ_id)
            self._next_occ_id = occ.occ_id
            raise
        occ.committed = True
        self.insert_count += 1
        self.mutation_epoch += 1
        self._m_inserts.inc()
        self._m_tokens.observe(len(tokens))
        self.clock.advance_us(len(tokens) * self.costs.index_token_us)
        return occ

    def close_occurrence(self, node_id):
        """Record that the node's text left the screen now."""
        occ_id = self._open_by_node.pop(node_id, None)
        if occ_id is None:
            return None
        occ = self._occurrences[occ_id]
        occ.end_us = self.clock.now_us
        # Back-fill the epochs the occurrence's interval covers beyond its
        # start bucket, so windowed scans over any part of its visibility
        # still find it.
        first_epoch = self._epoch(occ.start_us)
        effective_end = max(occ.end_us, occ.start_us + 1)
        last_epoch = self._epoch(effective_end - 1)
        ordered = sorted(occ.tokens)
        fire_at = len(ordered) // 2
        backfilled = []
        try:
            for position, token in enumerate(ordered):
                if position == fire_at:
                    # A crash here leaves the close half-applied: end_us
                    # set, some tokens back-filled, the rest still open —
                    # recover() rebuilds the index and finishes the job.
                    # A transient fault is rolled back below instead.
                    self.faults.check(FP_CLOSE_MID_BACKFILL)
                postings = self._index[token]
                postings.open_ids.remove(occ_id)
                for epoch in range(first_epoch + 1, last_epoch + 1):
                    postings.buckets.setdefault(epoch, []).append(occ_id)
                backfilled.append(token)
        except InjectedFault:
            # Transient I/O error: undo the partial close; the occurrence
            # stays open and the daemon will close it again later.
            for token in backfilled:
                postings = self._index[token]
                postings.open_ids.append(occ_id)
                for epoch in range(first_epoch + 1, last_epoch + 1):
                    postings.buckets[epoch].remove(occ_id)
            occ.end_us = None
            self._open_by_node[node_id] = occ_id
            raise
        self.mutation_epoch += 1
        self._m_closes.inc()
        self.clock.advance_us(len(occ.tokens) * self.costs.index_token_us)
        return occ

    def annotate_node(self, node_id, annotation_text=None):
        """Mark the node's current occurrence with the annotation
        attribute (section 4.4's explicit annotation mechanism)."""
        occ_id = self._open_by_node.get(node_id)
        if occ_id is None:
            raise IndexError_("no visible text on node %d to annotate" % node_id)
        occ = self._occurrences[occ_id]
        occ.properties["annotation"] = True
        if annotation_text:
            occ.properties["annotation_text"] = annotation_text
        self.mutation_epoch += 1
        return occ

    # ------------------------------------------------------------------ #
    # Crash recovery

    def recover(self):
        """Post-crash repair of the index.

        The occurrence table is the table of record (an occurrence is
        fully described by its own row); the inverted index is derived
        data.  Recovery drops occurrences left uncommitted by a crash
        mid-insert, then rebuilds the inverted index from the surviving
        table — which also finishes any back-fill a crash mid-close left
        half-applied.  Bumps the mutation epoch so interval caches
        invalidate.
        """
        dropped = []
        for occ_id, occ in list(self._occurrences.items()):
            if occ.committed:
                continue
            del self._occurrences[occ_id]
            if self._open_by_node.get(occ.node_id) == occ_id:
                del self._open_by_node[occ.node_id]
            node_ids = self._by_node.get(occ.node_id)
            if node_ids and occ_id in node_ids:
                node_ids.remove(occ_id)
            dropped.append(occ_id)
        self._index = {}
        postings_rebuilt = 0
        for occ_id in sorted(self._occurrences):
            occ = self._occurrences[occ_id]
            first_epoch = self._epoch(occ.start_us)
            if occ.end_us is None:
                last_epoch = first_epoch
            else:
                effective_end = max(occ.end_us, occ.start_us + 1)
                last_epoch = self._epoch(effective_end - 1)
            for token in sorted(occ.tokens):
                postings = self._index.get(token)
                if postings is None:
                    postings = self._index[token] = _TokenPostings()
                postings.order.append(occ_id)
                for epoch in range(first_epoch, last_epoch + 1):
                    postings.buckets.setdefault(epoch, []).append(occ_id)
                if occ.end_us is None:
                    postings.open_ids.append(occ_id)
                postings_rebuilt += 1
        self.mutation_epoch += 1
        self.clock.advance_us(postings_rebuilt * self.costs.index_token_us)
        return {
            "uncommitted_dropped": dropped,
            "postings_rebuilt": postings_rebuilt,
        }

    # ------------------------------------------------------------------ #
    # Lookup (called by the search engine)

    def posting_count(self, token):
        """Total postings for ``token`` — O(1) planner metadata (a
        maintained length, not a scan), so selectivity ordering is free."""
        postings = self._index.get(token)
        return len(postings.order) if postings is not None else 0

    def postings_for(self, token, window=None):
        """Occurrences containing ``token``, as an immutable tuple.

        With ``window=(start_us, end_us)`` (``end_us`` may be None for
        open-ended), only the epoch buckets overlapping the window are
        scanned and charged; everything outside is pruned without cost.
        The windowed result is the set of occurrences whose visibility
        interval *could* overlap the window (bucket-granular, so a small
        superset) in insertion order — callers clamp intervals exactly.
        """
        self.clock.advance_us(self.costs.index_query_term_us)
        postings = self._index.get(token)
        if postings is None:
            return ()
        if window is None:
            occ_ids = postings.order
            self._m_postings_scanned.inc(len(occ_ids))
            self.clock.advance_us(len(occ_ids) * self.costs.index_posting_us)
            return tuple(self._occurrences[i] for i in occ_ids)
        first_epoch, last_epoch = self.window_key(window)
        end_us = window[1]
        seen = set()
        scanned = 0
        buckets_visited = 0
        for epoch, occ_ids in postings.buckets.items():
            if epoch < first_epoch or (last_epoch is not None
                                       and epoch > last_epoch):
                continue
            buckets_visited += 1
            scanned += len(occ_ids)
            seen.update(occ_ids)
        # Still-open occurrences extend to "now": any that began before
        # the window's end overlaps it, even if its start bucket lies
        # before the scanned range.
        for occ_id in postings.open_ids:
            if occ_id not in seen:
                if end_us is None or self._occurrences[occ_id].start_us < end_us:
                    scanned += 1
                    seen.add(occ_id)
        self._m_postings_scanned.inc(scanned)
        self._m_postings_pruned.inc(len(postings.order) - len(seen))
        self._m_buckets_skipped.inc(len(postings.buckets) - buckets_visited)
        self.clock.advance_us(scanned * self.costs.index_posting_us)
        return tuple(self._occurrences[i] for i in sorted(seen))

    def occurrence(self, occ_id):
        return self._occurrences[occ_id]

    def occurrences_for_node(self, node_id):
        """All occurrences recorded for ``node_id``, via the per-node
        secondary index — charged per occurrence returned, never a
        full-table scan."""
        occ_ids = self._by_node.get(node_id, ())
        self.clock.advance_us(len(occ_ids) * self.costs.index_posting_us)
        return tuple(self._occurrences[i] for i in occ_ids)

    def all_occurrences(self):
        return list(self._occurrences.values())

    def vocabulary(self):
        """All distinct indexed tokens."""
        return sorted(self._index)

    def approximate_bytes(self):
        """Approximate on-disk size of the index (storage accounting for
        the Figure 4 experiment): row overhead per occurrence plus text,
        plus one posting entry per (token, occurrence) pair."""
        row_overhead = 48
        posting_entry = 12
        total = 0
        for occ in self._occurrences.values():
            total += row_overhead + len(occ.text.encode("utf-8"))
            total += posting_entry * len(occ.tokens)
        return total

    def __len__(self):
        return len(self._occurrences)
