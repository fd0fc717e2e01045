"""Exception hierarchy. Every error carries a stable machine-readable code."""


class PermlatError(Exception):
    code = "ERROR"

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details


class FormatError(PermlatError):
    code = "FORMAT"


class NotALatticeError(PermlatError):
    code = "NOT_A_LATTICE"


class NonDistributiveError(PermlatError):
    code = "NON_DISTRIBUTIVE"


class InvalidFactorError(PermlatError):
    code = "INVALID_FACTOR"


class TopBottomMismatchError(PermlatError):
    code = "TOP_BOTTOM_MISMATCH"


class NotConvexError(PermlatError):
    code = "NOT_CONVEX"


class UndefinedRestrictionError(PermlatError):
    code = "UNDEFINED_RESTRICTION"


class MeetReducibleBottomError(PermlatError):
    code = "MEET_REDUCIBLE_BOTTOM"


class MissingMeetIrreducibleError(PermlatError):
    code = "MISSING_MEET_IRREDUCIBLE"


class SizeCapError(PermlatError):
    code = "SIZE_CAP"


class CollapsedCompletionError(PermlatError):
    code = "COLLAPSED_COMPLETION"


class InvalidStructureError(PermlatError):
    code = "INVALID_STRUCTURE"


class UsageError(PermlatError):
    code = "USAGE"
