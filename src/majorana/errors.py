"""Exception types for numerical failure modes.

Argument and range validation raises plain ValueError; the classes here mark
genuinely numerical conditions a caller may want to catch and handle
separately (retry, fall back, report a distinct exit code).
"""

__all__ = ["MajoranaError", "NonConvergence", "DegenerateConstellation", "LabelMismatch"]


class MajoranaError(Exception):
    """Base class for numerical failures in this package."""


class NonConvergence(MajoranaError):
    """An iterative routine exhausted its budget without meeting tolerances."""


class DegenerateConstellation(MajoranaError):
    """An operation requiring distinct finite stars met a degenerate one."""


class LabelMismatch(MajoranaError):
    """Two objects with different spin labels were combined."""
