"""Exceptions shared across the laboratory.

Every failure mode here is loud on purpose: truncated-precision models must
never silently return a value whose correctness depends on unknown digits.
"""


class LLCError(Exception):
    """Base class for all package specific errors."""


class InsufficientPrecision(LLCError):
    """A computation needs coefficients beyond the stored precision."""


class PrecisionNotStabilized(LLCError):
    """An integral evaluated at precision m and m+1 gave different values."""


class ZeroInput(LLCError):
    """A multiplicative character was evaluated at zero."""


class EmptyFacet(LLCError):
    """The facet parameters describe the empty facet (t = 1 with one block)."""


class NotNonBarycenter(LLCError):
    """A destabilizing cocharacter was requested at a barycenter."""


class SizeGuardExceeded(LLCError):
    """A brute-force enumeration would exceed the configured size guard."""


class InconsistentTable(LLCError):
    """An epsilon table does not come from any single supercuspidal datum."""
