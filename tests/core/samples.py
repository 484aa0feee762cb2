"""Shared test helper: read a profiling database's retained samples."""

from repro.core.database import PairKey, ProfilingDatabase


def sample_count(db: ProfilingDatabase, key: PairKey) -> int:
    """How many samples ``db`` retains for ``key``, read from its checkpoint."""
    for record in db.state_dict()["entries"]:
        if (record["platform"], record["workload"]) == tuple(key):
            return len(record["powers"])
    return 0
