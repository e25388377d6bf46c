"""Exception hierarchy shared by all lakekernel modules.

Every domain failure raised by the public API derives from LakeError so the
CLI can map it to exit code 1 with the originating reason string.
"""


class LakeError(Exception):
    """Base class for all domain errors."""


# --- store ---------------------------------------------------------------

class InvalidTable(LakeError):
    pass


class StorageFailure(LakeError):
    pass


class NotFound(LakeError):
    pass


class CorruptSnapshot(LakeError):
    pass


# --- catalog -------------------------------------------------------------

class BranchExists(LakeError):
    pass


class UnknownRef(LakeError):
    pass


class UnknownBranch(UnknownRef):
    pass


class UnknownSnapshot(LakeError):
    pass


class UnknownTable(LakeError):
    pass


class StaleHead(LakeError):
    """Compare-and-swap on a branch ref failed; re-read the head and retry."""


class NoCommonAncestor(LakeError):
    pass


# --- engine --------------------------------------------------------------

class ParseError(LakeError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{message}{loc}")


class CycleOrForwardRef(ParseError):
    pass


class UnknownInput(LakeError):
    pass


class QueryTypeError(LakeError):
    """Static type error in a query, reported at plan time."""


class EvalError(LakeError):
    """Runtime error while executing a query (e.g. division by zero)."""


# --- governance ----------------------------------------------------------

class InvalidPolicy(LakeError):
    pass


class Denied(LakeError):
    """An authorization check returned Deny; carries the reason string."""


# --- runner / verify / healer --------------------------------------------

class UnknownRun(LakeError):
    pass


class CorruptRun(LakeError):
    """A run report file that is torn, not JSON, or not a report."""


class DuplicateName(LakeError):
    pass


class ShapeError(LakeError):
    pass


class StaleProposal(LakeError):
    pass


class MergeRefused(LakeError):
    """Manual merge blocked by a recorded verifier failure on the source head."""


class TooLarge(LakeError):
    """Trace exceeds the brute-force bound of the serializability checker."""
