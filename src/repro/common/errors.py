"""Exception hierarchy for the DejaView reproduction.

Every subsystem raises exceptions derived from :class:`DejaViewError` so that
callers can catch failures from the whole stack with a single except clause
while still being able to discriminate by subsystem.
"""


class DejaViewError(Exception):
    """Base class for all errors raised by this library."""


class DisplayError(DejaViewError):
    """Error in the virtual display subsystem (driver, recorder, playback)."""


class VexError(DejaViewError):
    """Error in the virtual execution environment (simulated kernel)."""


class ProcessError(VexError):
    """A process-level operation failed (bad pid, invalid state transition)."""


class VirtualMemoryError(VexError):
    """A virtual-memory operation failed (bad address, protection mismatch)."""


class NamespaceError(VexError):
    """A virtual namespace operation failed (duplicate name, missing entry)."""


class CheckpointError(DejaViewError):
    """Checkpointing a session failed or produced an inconsistent image."""


class ReviveError(DejaViewError):
    """Reviving a session from a checkpoint image failed."""


class FileSystemError(DejaViewError):
    """Error in the log-structured or union file system."""


class SnapshotError(FileSystemError):
    """A file system snapshot could not be created or resolved."""


class IndexError_(DejaViewError):
    """Error in the text capture / indexing subsystem.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class QueryError(IndexError_):
    """A search query was malformed or referenced unknown context fields."""


class PolicyError(DejaViewError):
    """A checkpoint-policy rule was misconfigured."""

