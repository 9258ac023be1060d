"""Route lookup and forwarding: longest-prefix match tries.

Two LPM implementations with the same API:

- :class:`LpmTable` is a real bit-trie (inserts ``addr/len`` prefixes,
  walks bits on lookup) so lookup cost scales with prefix length exactly
  as in a software router;
- :class:`Stride8LpmTable` walks a byte at a time (stride-8 with
  controlled prefix expansion inside each node — the classic multibit-trie
  trade: 256-wide nodes for a 4-step IPv4 walk), and adds a bounded
  ``lookup_cached`` per-destination result cache that route changes
  invalidate.

:class:`Forwarder` resolves each packet's next hop over the stride-8 table
and emits it on the outgoing connection named after the next hop;
:meth:`Forwarder.push_batch` groups a batch per hop so each downstream
connection is crossed once per batch.  The lookup key (``packet.net.dst``)
is byte-path agnostic: on wire-resident packets it is a single
``struct.unpack_from`` on the packet's memoryview
(:class:`repro.netsim.wire.V4View.dst`), so route resolution never
materialises a header.
"""

from __future__ import annotations

from typing import Any

from repro.netsim.packet import Packet
from repro.router.components.base import PushComponent, release_dropped
from repro.router.filters import FilterError, parse_prefix


class _TrieNode:
    __slots__ = ("children", "value")

    def __init__(self) -> None:
        self.children: list[_TrieNode | None] = [None, None]
        self.value: Any = None


class LpmTable:
    """Longest-prefix-match table over a binary trie.

    Keys are ``"a.b.c.d/len"`` (or IPv6 ``"x::/len"``) strings; values are
    arbitrary (normally next-hop names).  Separate tries per address
    family.
    """

    def __init__(self) -> None:
        self._roots: dict[int, _TrieNode] = {4: _TrieNode(), 6: _TrieNode()}
        self._sizes: dict[int, int] = {4: 0, 6: 0}

    def insert(self, prefix: str, value: Any) -> None:
        """Insert or replace a prefix route."""
        version, network, length = parse_prefix(prefix)
        bits = 32 if version == 4 else 128
        node = self._roots[version]
        for i in range(length):
            bit = (network >> (bits - 1 - i)) & 1
            if node.children[bit] is None:
                node.children[bit] = _TrieNode()
            node = node.children[bit]
        if node.value is None:
            self._sizes[version] += 1
        node.value = value

    def remove(self, prefix: str) -> None:
        """Remove a prefix route (unknown prefixes raise FilterError)."""
        version, network, length = parse_prefix(prefix)
        bits = 32 if version == 4 else 128
        node = self._roots[version]
        for i in range(length):
            bit = (network >> (bits - 1 - i)) & 1
            nxt = node.children[bit]
            if nxt is None:
                raise FilterError(f"prefix {prefix!r} not in table")
            node = nxt
        if node.value is None:
            raise FilterError(f"prefix {prefix!r} not in table")
        node.value = None
        self._sizes[version] -= 1

    def lookup(self, address: int, *, version: int = 4) -> Any:
        """Longest-prefix match; returns the stored value or None."""
        bits = 32 if version == 4 else 128
        node = self._roots[version]
        best = node.value
        for i in range(bits):
            bit = (address >> (bits - 1 - i)) & 1
            nxt = node.children[bit]
            if nxt is None:
                break
            node = nxt
            if node.value is not None:
                best = node.value
        return best

    def load(self, routes: dict[str, Any]) -> None:
        """Bulk-insert a prefix -> value mapping."""
        for prefix, value in routes.items():
            self.insert(prefix, value)

    def size(self, *, version: int = 4) -> int:
        """Number of live prefixes in one family's trie."""
        return self._sizes[version]


#: Cache-miss sentinel (``None`` is a legitimate cached lookup result).
_MISS = object()


class _Stride8Node:
    """One 8-bit-stride trie node: 256 children plus 256 expanded entries
    ``(prefix_len, value)`` for prefixes ending within this node's byte."""

    __slots__ = ("children", "entries")

    def __init__(self) -> None:
        self.children: list[_Stride8Node | None] = [None] * 256
        self.entries: list[tuple[int, Any] | None] = [None] * 256


class Stride8LpmTable:
    """Longest-prefix-match table over an 8-bit multibit trie.

    API-compatible with :class:`LpmTable` (insert/remove/lookup/load/size)
    but a lookup walks at most 4 bytes for IPv4 (16 for IPv6) instead of
    up to 32 (128) bits.  Prefixes whose length is not a byte multiple are
    expanded across the covered entry range of their final node
    (controlled prefix expansion); longer prefixes always win an entry.

    ``remove`` rebuilds the family's trie from the retained exact-prefix
    store — route withdrawal is control-plane-rate, lookups are not.

    :meth:`lookup_cached` adds a bounded per-destination result cache so
    flow-locality traffic skips the walk entirely; every table mutation
    invalidates it.  Per-packet callers may probe the dict :attr:`cache`
    directly (a hit is the lookup's result) and call :meth:`lookup_cached`
    on a miss, which fills it.
    """

    #: Destination-cache bound; the cache is cleared wholesale when full
    #: (cheap, and steady-state traffic re-warms it in one batch).
    CACHE_CAP = 8192

    def __init__(self) -> None:
        self._roots: dict[int, _Stride8Node] = {4: _Stride8Node(), 6: _Stride8Node()}
        #: /0 routes per family, stored as (0, value) to distinguish "no
        #: default" from "default of None".
        self._defaults: dict[int, tuple[int, Any] | None] = {4: None, 6: None}
        #: Exact prefixes per family: (network, length) -> value.
        self._prefixes: dict[int, dict[tuple[int, int], Any]] = {4: {}, 6: {}}
        #: Destination cache: ``(version, address)`` → lookup result.
        self.cache: dict[tuple[int, int], Any] = {}

    def insert(self, prefix: str, value: Any) -> None:
        """Insert or replace a prefix route."""
        version, network, length = parse_prefix(prefix)
        self._prefixes[version][(network, length)] = value
        self._insert_raw(version, network, length, value)
        self.cache.clear()

    def _insert_raw(self, version: int, network: int, length: int, value: Any) -> None:
        if length == 0:
            self._defaults[version] = (0, value)
            return
        bits = 32 if version == 4 else 128
        node = self._roots[version]
        last = (length - 1) // 8
        for i in range(last):
            byte = (network >> (bits - 8 * (i + 1))) & 0xFF
            child = node.children[byte]
            if child is None:
                child = node.children[byte] = _Stride8Node()
            node = child
        rem = length - 8 * last  # 1..8 bits land in the final byte
        byte = (network >> (bits - 8 * (last + 1))) & 0xFF
        lo = byte & ((0xFF << (8 - rem)) & 0xFF)
        entries = node.entries
        for b in range(lo, lo + (1 << (8 - rem))):
            current = entries[b]
            if current is None or current[0] <= length:
                entries[b] = (length, value)

    def remove(self, prefix: str) -> None:
        """Remove a prefix route (unknown prefixes raise FilterError)."""
        version, network, length = parse_prefix(prefix)
        store = self._prefixes[version]
        if (network, length) not in store:
            raise FilterError(f"prefix {prefix!r} not in table")
        del store[(network, length)]
        # Rebuild the family trie: expanded entries shadowed by the removed
        # prefix must fall back to the next-longest cover, which the
        # insert-time max rule recomputes for free.
        self._roots[version] = _Stride8Node()
        self._defaults[version] = None
        for (net, plen), value in store.items():
            self._insert_raw(version, net, plen, value)
        self.cache.clear()

    def lookup(self, address: int, *, version: int = 4) -> Any:
        """Longest-prefix match; returns the stored value or None."""
        default = self._defaults[version]
        best = default[1] if default is not None else None
        node = self._roots[version]
        shift = 24 if version == 4 else 120
        while shift >= 0:
            byte = (address >> shift) & 0xFF
            entry = node.entries[byte]
            if entry is not None:
                # Entries deeper in the walk always belong to longer
                # prefixes, so the latest hit is the longest match.
                best = entry[1]
            node = node.children[byte]
            if node is None:
                break
            shift -= 8
        return best

    def lookup_cached(self, address: int, *, version: int = 4) -> Any:
        """:meth:`lookup` through the per-destination result cache."""
        key = (version, address)
        cache = self.cache
        value = cache.get(key, _MISS)
        if value is _MISS:
            value = self.lookup(address, version=version)
            if len(cache) >= self.CACHE_CAP:
                cache.clear()
            cache[key] = value
        return value

    def load(self, routes: dict[str, Any]) -> None:
        """Bulk-insert a prefix -> value mapping."""
        for prefix, value in routes.items():
            self.insert(prefix, value)

    def size(self, *, version: int = 4) -> int:
        """Number of live prefixes in one family's table."""
        return len(self._prefixes[version])

    def values(self) -> set[Any]:
        """Every distinct stored value (next hop), both families."""
        return {value for store in self._prefixes.values() for value in store.values()}


class Forwarder(PushComponent):
    """Next-hop resolution and per-hop emission.

    The outgoing connection for a packet is the next-hop value from the
    LPM table (so ``out`` connections are named after next hops, e.g.
    neighbour node names).  A ``default_route`` value catches everything
    when set.  Unroutable packets count ``drop:no-route-entry``.

    Lookups run over a :class:`Stride8LpmTable` through its
    per-destination cache, so per-flow traffic pays the trie walk once.
    """

    STATE_ATTRS = ("table",)

    def __init__(self, *, default_route: str | None = None) -> None:
        super().__init__()
        self.table = Stride8LpmTable()
        self.default_route = default_route

    def add_route(self, prefix: str, next_hop: str) -> None:
        """Install one route."""
        self.table.insert(prefix, next_hop)

    def load_routes(self, routes: dict[str, str]) -> None:
        """Install many routes."""
        self.table.load(routes)

    def push_batch(self, packets: list[Packet]) -> None:
        """Resolve per packet (a destination-cache hit is one dict probe),
        emit one grouped batch per next hop."""
        self.count("rx", len(packets))
        table = self.table
        probe = table.cache.get
        lookup = table.lookup_cached
        default = self.default_route
        groups: dict[str, list[Packet]] = {}
        unroutable = 0
        for packet in packets:
            version = packet.version
            dst = packet.net.dst
            next_hop = probe((version, dst), _MISS)
            if next_hop is _MISS:
                next_hop = lookup(dst, version=version)
            if next_hop is None:
                next_hop = default
            if next_hop is None:
                unroutable += 1
                release_dropped(packet)
                continue
            packet.metadata["next_hop"] = next_hop
            group = groups.get(next_hop)
            if group is None:
                group = groups[next_hop] = []
            group.append(packet)
        for next_hop, group in groups.items():
            self.count(f"hop:{next_hop}", len(group))
            self.emit_batch(group, next_hop)
        if unroutable:
            self.count("drop:no-route-entry", unroutable)

    # -- compiled hot path (see repro.opencom.compile) ---------------------
    #
    # Both kernels read ``self.table`` / ``self.default_route`` per batch
    # (not at compile time), so route-table swaps and route changes reach
    # the compiled path immediately — ``Stride8LpmTable`` already clears
    # its destination cache on every mutation, no revocation needed.

    def compiled_batch_kernel(self, next_map):
        """Closure-composed ``push_batch``: group per hop, call kernels.

        A hop value with no bound connection replicates ``emit_batch``'s
        unbound-connection accounting (``drop:no-route`` plus the
        per-connection key, every packet released).
        """
        if not next_map:
            return None
        kernels = dict(next_map)
        counters = self.counters

        def kernel(
            packets,
            _c=counters,
            _kernels=kernels,
            _self=self,
            _release=release_dropped,
        ):
            _c["rx"] += len(packets)
            lookup = _self.table.lookup_cached
            default = _self.default_route
            groups: dict[str, list[Packet]] = {}
            unroutable = 0
            for packet in packets:
                next_hop = lookup(packet.net.dst, version=packet.version)
                if next_hop is None:
                    next_hop = default
                if next_hop is None:
                    unroutable += 1
                    _release(packet)
                    continue
                packet.metadata["next_hop"] = next_hop
                group = groups.get(next_hop)
                if group is None:
                    group = groups[next_hop] = []
                group.append(packet)
            for next_hop, group in groups.items():
                _c[f"hop:{next_hop}"] += len(group)
                sink = _kernels.get(next_hop)
                if sink is None:
                    _c["drop:no-route"] += len(group)
                    _c[f"drop:no-route:{next_hop}"] += len(group)
                    for packet in group:
                        _release(packet)
                    continue
                sink(group)
                _c["tx"] += len(group)
            if unroutable:
                _c["drop:no-route-entry"] += unroutable

        return kernel
