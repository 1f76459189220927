"""Fixed resource budgets for enumeration-heavy operations.

The cell budget caps the 3^f subcube counts a density check tables; the
enumeration budget caps exhaustive sweeps over codewords, over Sigma^n
or over the cells codewords touch, and the hash family's key-bit
matrix; the table budget caps the oracle table bits of one instance and
the hash tables a totality scan holds.  None of them can be overridden,
so a run's outputs depend only on its arguments.
"""

DEFAULT_CELL_BUDGET = 1 << 26
DEFAULT_ENUM_BUDGET = 1 << 16
DEFAULT_TABLE_BUDGET = 1 << 26  # bits per instance
