"""Resource budgets for enumeration-heavy operations.

The amplitude budget caps the number of nonzero amplitudes a simulated
state may carry; the enumeration budget caps exhaustive sweeps over
codewords or over Sigma^n, and the hash family's key-bit matrix; the table
budget caps the oracle table bits of one instance and the hash tables a
totality scan holds.  ``NULLCODE_BUDGET`` in the environment overrides
the amplitude budget, and only it; it must be an integer >= 1.  The
other two are fixed.
"""

import os

from .errors import UsageError

DEFAULT_AMPLITUDE_BUDGET = 1 << 26
DEFAULT_ENUM_BUDGET = 1 << 16
DEFAULT_TABLE_BUDGET = 1 << 26  # bits per instance


def amplitude_budget() -> int:
    raw = os.environ.get("NULLCODE_BUDGET")
    if raw is None:
        return DEFAULT_AMPLITUDE_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise UsageError(f"NULLCODE_BUDGET={raw!r} is not an integer >= 1")
    return value
