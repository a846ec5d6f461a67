"""Output checks: a canonical dataset digest and query-log digests.

Pickle bytes are not canonical -- object-mode and wire-mode datasets
compare ``==`` yet pickle differently (shared-object memo references,
dict insertion order) -- so :func:`dataset_digest` hashes the dataset's
*value* instead, following ``Dataset.__eq__``: dict entries in sorted
key order (dict equality ignores order), lists and tuples in order,
records slot by slot. Value-equal datasets get equal digests, and a
changed observation changes the digest.

:func:`armed_query_logs` turns on ``log_queries`` on every authoritative
server of every ``World`` built while it is active, and
:func:`query_log_digests` hashes those logs per server: the ROADMAP's
second equivalence verdict (identical per-server query logs across
execution shapes). Logging costs a ``to_text`` per query, so it stays
out of timed runs.
"""

from __future__ import annotations

import contextlib
import datetime
import enum
import hashlib
from typing import Callable, Dict, Iterator, List

_Write = Callable[[bytes], None]


def _feed(write: _Write, value) -> None:
    """Write a type-tagged, length-prefixed encoding of *value*."""
    if value is None:
        write(b"N")
    elif value is True or value is False:
        write(b"T" if value else b"F")
    elif isinstance(value, int):
        write(b"i%d;" % value)
    elif isinstance(value, float):
        write(b"f" + repr(value).encode() + b";")
    elif isinstance(value, str):
        data = value.encode("utf-8", "surrogatepass")
        write(b"s%d:" % len(data))
        write(data)
    elif isinstance(value, (bytes, bytearray)):
        write(b"b%d:" % len(value))
        write(bytes(value))
    elif isinstance(value, datetime.date) and not isinstance(value, datetime.datetime):
        write(b"d" + value.isoformat().encode() + b";")
    elif isinstance(value, enum.Enum):
        write(b"e" + type(value).__qualname__.encode() + b"=")
        _feed(write, value.value)
    elif isinstance(value, (tuple, list)):
        write(b"(%d" % len(value) if isinstance(value, tuple) else b"[%d" % len(value))
        for item in value:
            _feed(write, item)
        write(b")")
    elif isinstance(value, dict):
        write(b"{%d" % len(value))
        for key, item in sorted(
            ((_encode(key), item) for key, item in value.items()),
            key=lambda pair: pair[0],
        ):
            write(key)
            _feed(write, item)
        write(b"}")
    elif isinstance(value, (set, frozenset)):
        write(b"<%d" % len(value))
        for item in sorted(_encode(item) for item in value):
            write(item)
        write(b">")
    elif hasattr(type(value), "_astuple"):
        # The dataset's __slots__ records compare slot by slot.
        write(b"o" + type(value).__qualname__.encode() + b":")
        _feed(write, value._astuple())
    else:
        raise TypeError(f"no canonical encoding for {type(value).__qualname__}")


def _encode(value) -> bytes:
    parts: List[bytes] = []
    _feed(parts.append, value)
    return b"".join(parts)


def dataset_digest(dataset) -> str:
    """SHA-256 of the dataset's value: the fields ``Dataset.__eq__``
    compares, and nothing else (``run_stats`` is diagnostic)."""
    digest = hashlib.sha256(b"repro-dataset-v1:")
    _feed(
        digest.update,
        (
            dataset.population,
            dataset.seed,
            dataset.day_step,
            dataset.snapshots,
            dataset.ech_observations,
            dataset.dnssec_snapshot,
            dataset.dnssec_snapshot_date,
        ),
    )
    return digest.hexdigest()


@contextlib.contextmanager
def armed_query_logs() -> Iterator[list]:
    """Arm query logging on every world constructed inside the block;
    yields the list those worlds are appended to."""
    from repro.simnet.world import World
    from studybench.trace import Patches

    worlds: list = []

    def logged(build):
        def logged_build(world, *args, **kwargs):
            build(world, *args, **kwargs)
            for server in world.network._dns_servers.values():
                if hasattr(server, "query_log"):
                    server.log_queries = True
            worlds.append(world)

        return logged_build

    patches = Patches()
    patches.replace(World, "__init__", logged)
    try:
        yield worlds
    finally:
        patches.restore()


def query_log_digests(worlds) -> Dict[str, str]:
    """Every logging server's ``"<query count> <sha256 of its log>"``,
    keyed by address."""
    digests: Dict[str, str] = {}
    for world in worlds:
        for ip, server in sorted(world.network._dns_servers.items()):
            log = getattr(server, "query_log", None)
            if log is None:
                continue
            digest = hashlib.sha256()
            for name, rdtype in log:
                digest.update(name.encode())
                digest.update(rdtype.to_bytes(2, "big"))
            digests[ip] = f"{len(log)} {digest.hexdigest()}"
    return digests


def combined_digest(per_server: Dict[str, str]) -> str:
    """One SHA-256 over the per-server digests, servers in address order."""
    lines = "\n".join(f"{ip} {per_server[ip]}" for ip in sorted(per_server))
    return hashlib.sha256(lines.encode()).hexdigest()
