"""Exception hierarchy shared across the package, the one byte cap and the
step budgets.

The CLI maps these onto process exit codes, so library code should raise
these (rather than bare ValueError) for user-facing failure modes.  Each
budget is read where it is checked, as ``check_bytes`` reads BYTE_CAP, and
passing it raises ResourceLimitError (exit 3).
"""

# most bytes a census, NB trace, eigen-solve, simulate_limit call or CLI run may take
BYTE_CAP = 2**31
# most steps of one cycle search: letters tried on a permutation graph, path
# extensions on a simple graph
SEARCH_STEPS = 10**8
# most words, (2d)^k, a word-class enumeration at length k may span
WORD_SEQUENCES = 10**7
# most pairing-model attempts one uniform graph may take
PAIRING_RETRIES = 10**5


class RegraphError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(RegraphError):
    """A precondition on user-supplied input was violated (exit code 2)."""


class ResourceLimitError(RegraphError):
    """A configured work/memory budget would be exceeded (exit code 3)."""


class NumericError(RegraphError):
    """A numeric computation failed to reach the required accuracy (exit code 4)."""


def check_bytes(need: float, what: str) -> None:
    """Refuse ``what``, before it allocates, when ``need`` bytes pass BYTE_CAP as it is now."""
    if need > BYTE_CAP:
        raise ResourceLimitError(f"{what} needs about {need:.0f} bytes, over {BYTE_CAP}")
