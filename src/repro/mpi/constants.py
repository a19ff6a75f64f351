"""MPI-style constants."""

ANY_SOURCE = -1
ANY_TAG = -1
UNDEFINED = -32766  # color for ranks excluded from a split (MPI_UNDEFINED)

# Tags below COLL_TAG_BASE belong to user code, and are all an ANY_TAG
# receive matches; collective traffic (repro.colls.util) lives in
# [COLL_TAG_BASE, INTERNAL_TAG_BASE).
COLL_TAG_BASE = 1 << 28

# Tags >= INTERNAL_TAG_BASE are reserved for runtime-internal traffic
# (e.g. the built-in barrier); user code should stay below it.
INTERNAL_TAG_BASE = 1 << 30
