"""The execution event log: every nondeterministic input, as TLV records.

rr's deployability insight (PAPERS.md: "Engineering Record And Replay For
Deployability") is that a recording needs only the *nondeterministic
inputs* — everything else is cheaper to re-derive by re-execution.  In
this reproduction the vex substrate is deterministic by construction, so
the recorded inputs double as *assertions*: replay re-executes the same
scripted workload on a fresh session and checks, in lockstep, that every
event crossing the nondeterminism boundary — clock advances, signal
deliveries, socket opens, scheduler picks, workload RNG draws, viewer
input — re-derives bit-identically.  Any code path that silently breaks
determinism (the invariant the fleet isolation suites depend on) becomes
a hard replay divergence naming the first bad event instead of a latent
flake.

The log reuses the v2 CRC-framed TLV codec from :mod:`repro.common.serial`
(one stream kind per artifact, checksum trailer per record), so a crash
mid-append leaves a detectable torn tail, recovered exactly like the
display log: truncate to the longest valid prefix.  Payloads are compact
sorted-key JSON of ``[seq, data]``; the embedded sequence number makes a
divergence report stable even when the byte offsets move.

Event taxonomy (what is *logged*; everything else is re-derived):

========== ==========================================================
EV_BEGIN   stream metadata: format, clock batch, scenario (replayer
           rebuilds the driver from this), always seq 0
EV_CLOCK   a batch of virtual-clock advances: count + rolling CRC-32
           of the packed deltas + the clock after the last one
EV_SIGNAL  one kernel signal delivery (pid, signum, time, acted)
EV_SOCKET  one application socket open (proto, endpoints)
EV_SCHED   one scheduler decision (workload unit dispatch, or a fleet
           pick)
EV_RNG     one workload RNG consumption (app, op, CRC-32 of the drawn
           bytes)
EV_INPUT   one viewer input routed to the focused app
EV_ANCHOR  one checkpoint: id, timestamp, framebuffer SHA-1, stored
           frame fingerprint — the bit-identity gate, and the resume
           point for ``--from-checkpoint``
EV_RECOVER crash-recovery barrier: the log's torn tail was truncated
           here; replay verifies the prefix before it and stops
EV_END     clean end of recording (final virtual clock)
========== ==========================================================
"""

import json

from repro.common.errors import DejaViewError
from repro.common.faults import InjectedCrash, InjectedFault, resolve_faults
from repro.common.serial import RecordWriter, scan_valid_prefix

#: Stream-kind header field for replay event logs.
STREAM_KIND_REPLAY = 0x4EE1

#: The event log's failpoint: fires in :meth:`EventLog.append` after the
#: record is encoded but before it lands (crash leaves a torn TLV event
#: at the log tail).
FP_LOG_APPEND = "replay.log.append"

EV_BEGIN = 0x01
EV_CLOCK = 0x02
EV_SIGNAL = 0x03
EV_SOCKET = 0x04
EV_SCHED = 0x05
EV_RNG = 0x06
EV_INPUT = 0x07
EV_ANCHOR = 0x08
EV_RECOVER = 0x09
EV_END = 0x0A

EV_NAMES = {
    EV_BEGIN: "begin",
    EV_CLOCK: "clock",
    EV_SIGNAL: "signal",
    EV_SOCKET: "socket",
    EV_SCHED: "sched",
    EV_RNG: "rng",
    EV_INPUT: "input",
    EV_ANCHOR: "anchor",
    EV_RECOVER: "recover",
    EV_END: "end",
}


def event_name(etype):
    """Human name of an event tag (unknown tags print as ``ev#N``)."""
    return EV_NAMES.get(etype, "ev#%d" % etype)


class ReplayError(DejaViewError):
    """A replay request could not be satisfied (bad log, missing anchor,
    no driver)."""


class ReplayEvent:
    """One decoded event: ``(seq, etype, data)`` plus its byte offset."""

    __slots__ = ("seq", "etype", "data", "offset")

    def __init__(self, seq, etype, data, offset=None):
        self.seq = seq
        self.etype = etype
        self.data = data
        self.offset = offset

    @property
    def type_name(self):
        return event_name(self.etype)

    def to_dict(self):
        return {"seq": self.seq, "type": self.type_name, "data": self.data}

    def __repr__(self):
        return "ReplayEvent(seq=%d, %s, %r)" % (
            self.seq, self.type_name, self.data)


def encode_event(seq, data):
    """Canonical payload bytes for one event (sorted keys, so the byte
    encoding is insertion-order independent — the golden fixture relies
    on this)."""
    return json.dumps([seq, data], separators=(",", ":"),
                      sort_keys=True).encode("utf-8")


def decode_event(etype, payload, offset=None):
    seq, data = json.loads(payload.decode("utf-8"))
    return ReplayEvent(seq, etype, data, offset)


class EventLog:
    """Append side of the execution event log.

    Framing, torn-tail semantics, and recovery mirror the display
    command log: a crash mid-append leaves a torn record that
    :meth:`recover` (or :meth:`resume`, for a reopened stream) truncates
    away, so the surviving prefix always parses and checksums clean.
    """

    def __init__(self, fileobj=None, faults=None):
        self._writer = RecordWriter(fileobj, kind=STREAM_KIND_REPLAY)
        self.faults = resolve_faults(faults)
        self.next_seq = 0
        self._m_events = None
        self._m_bytes = None

    def bind_faults(self, faults):
        """Route appends through a fault plan (the ``replay.log.append``
        site)."""
        self.faults = resolve_faults(faults)

    def bind_telemetry(self, metrics):
        self._m_events = metrics.counter("replay.events")
        self._m_bytes = metrics.counter("replay.log_bytes")

    @property
    def bytes_written(self):
        return self._writer.bytes_written

    @property
    def event_count(self):
        """Events appended so far (== the next event's sequence number)."""
        return self.next_seq

    def append(self, etype, data):
        """Append one event; returns the :class:`ReplayEvent` written.

        An injected crash tears the in-flight record (header plus partial
        payload, no checksum) before re-raising — exactly what dying
        mid-``write`` leaves on disk.  An injected transient IO fault
        models a retried journal write: the event still lands.
        """
        payload = encode_event(self.next_seq, data)
        try:
            self.faults.check(FP_LOG_APPEND)
        except InjectedCrash:
            self._writer.write_torn(etype, payload)
            raise
        except InjectedFault:
            pass  # transient journal write error: retried, the event lands
        offset = self._writer.write(etype, payload)
        event = ReplayEvent(self.next_seq, etype, data, offset)
        self.next_seq += 1
        if self._m_events is not None:
            self._m_events.inc()
            self._m_bytes.inc(self._writer.bytes_written - offset)
        return event

    def getvalue(self):
        return self._writer.getvalue()

    def recover(self):
        """Post-crash recovery: truncate a torn tail in place.

        Returns ``{"torn_bytes_dropped", "events"}``; the sequence
        counter rewinds to just past the last intact event so appends
        continue contiguously.
        """
        end, records = scan_valid_prefix(self.getvalue(),
                                         expect_kind=STREAM_KIND_REPLAY)
        dropped = 0
        if self._writer.bytes_written > end:
            dropped = self._writer.truncate_to(end)
        self.next_seq = len(records)
        return {"torn_bytes_dropped": dropped, "events": len(records)}

    @classmethod
    def resume(cls, fileobj, faults=None):
        """Reopen a (possibly torn) log for appending —
        :meth:`RecordWriter.resume` semantics.  Returns ``(log,
        dropped_bytes, event_count)``."""
        writer, dropped, count = RecordWriter.resume(
            fileobj, expect_kind=STREAM_KIND_REPLAY)
        log = cls.__new__(cls)
        log._writer = writer
        log.faults = resolve_faults(faults)
        log.next_seq = count
        log._m_events = None
        log._m_bytes = None
        return log, dropped, count


def read_events(data):
    """Decode a replay log, tolerating a torn tail.

    Returns ``(events, torn_tail_bytes)`` where ``events`` is the longest
    valid prefix.  Raises :class:`~repro.common.serial.StreamCorrupt`
    only when the stream header itself is unusable.
    """
    end, records = scan_valid_prefix(data, expect_kind=STREAM_KIND_REPLAY)
    torn = max(0, len(data) - end) if isinstance(
        data, (bytes, bytearray, memoryview)) else 0
    events = [decode_event(tag, payload, offset)
              for tag, payload, offset in records]
    return events, torn


def write_events(events, fileobj=None):
    """Re-serialize decoded events into a fresh stream (the mutation
    tests rebuild logs this way); returns the :class:`RecordWriter`."""
    writer = RecordWriter(fileobj, kind=STREAM_KIND_REPLAY)
    for event in events:
        writer.write(event.etype, encode_event(event.seq, event.data))
    return writer

