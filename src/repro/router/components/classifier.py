"""The classifier component: IClassifier over a filter table.

The canonical IClassifier plug-in of the Router CF: packets entering
``in0`` are matched against the installed :class:`FilterSpec` table and
emitted on the *named outgoing connection* the winning filter designates —
the exact semantics rule 2 of the CF binds IClassifier components to.

Key extraction is byte-path agnostic: filter matching reads match fields
through the packet's header objects, so on wire-resident packets
(:mod:`repro.netsim.wire`) every ``src``/``dst``/``proto``/port read is a
``struct.unpack_from`` on the packet's memoryview — no header is
materialised to classify.
"""

from __future__ import annotations

from typing import Any

from repro.netsim.packet import Packet
from repro.opencom.component import Provided
from repro.router.components.base import PushComponent, release_dropped
from repro.router.filters import FilterSpec, FilterTable
from repro.router.interfaces import IClassifier

class Classifier(PushComponent):
    """Filter-table packet classifier.

    Parameters
    ----------
    default_output:
        Connection name for packets no filter matches; ``None`` means
        unmatched packets are dropped (counted ``drop:unclassified``).
    """

    PROVIDES = PushComponent.PROVIDES + (Provided("classifier", IClassifier),)

    def __init__(self, *, default_output: str | None = None) -> None:
        super().__init__()
        self.table = FilterTable()
        self.default_output = default_output

    # -- IClassifier -------------------------------------------------------------

    def register_filter(self, spec: FilterSpec | str) -> int:
        """Install a filter (spec object or filter-language text)."""
        return self.table.add(spec)

    def remove_filter(self, filter_id: int) -> None:
        """Remove a filter by id."""
        self.table.remove(filter_id)

    def list_filters(self) -> list[dict[str, Any]]:
        """Describe installed filters, highest priority first."""
        return self.table.describe()

    # -- data path ------------------------------------------------------------------

    def push_batch(self, packets: list[Packet]) -> None:
        """Classify per packet, emit one grouped batch per output class.

        Per-output order matches arrival order; different classes leave in
        first-seen class order rather than interleaved.
        """
        self.count("rx", len(packets))
        default = self.default_output
        if not self.table and default is not None:
            # No filters installed: the whole batch is default class.
            for packet in packets:
                packet.metadata["class"] = default
            self.count(f"class:{default}", len(packets))
            self.emit_batch(packets, default)
            return
        classify = self.table.classify
        groups: dict[str, list[Packet]] = {}
        unclassified = 0
        for packet in packets:
            spec = classify(packet)
            output = spec.output if spec is not None else default
            if output is None:
                unclassified += 1
                release_dropped(packet)
                continue
            packet.metadata["class"] = output
            group = groups.get(output)
            if group is None:
                group = groups[output] = []
            group.append(packet)
        for output, group in groups.items():
            self.count(f"class:{output}", len(group))
            self.emit_batch(group, output)
        if unclassified:
            self.count("drop:unclassified", unclassified)

    # -- compiled hot path (see repro.opencom.compile) ---------------------

    def compiled_batch_kernel(self, next_map):
        """Closure-composed ``push_batch``.

        ``self.table`` / ``self.default_output`` are read per batch, so
        filter installs/removals reach the compiled path immediately.
        Output names without a bound connection replicate ``emit_batch``'s
        unbound-connection drop accounting.
        """
        if not next_map:
            return None
        kernels = dict(next_map)
        counters = self.counters

        def deliver(output, group, _c=counters, _kernels=kernels):
            _c[f"class:{output}"] += len(group)
            sink = _kernels.get(output)
            if sink is None:
                _c["drop:no-route"] += len(group)
                _c[f"drop:no-route:{output}"] += len(group)
                for packet in group:
                    release_dropped(packet)
                return
            sink(group)
            _c["tx"] += len(group)

        def kernel(
            packets,
            _c=counters,
            _self=self,
            _deliver=deliver,
            _release=release_dropped,
        ):
            _c["rx"] += len(packets)
            default = _self.default_output
            table = _self.table
            if not table and default is not None:
                for packet in packets:
                    packet.metadata["class"] = default
                # Interpreted fast path counts the class key even for an
                # empty batch (emit_batch then no-ops) — mirror both.
                if packets:
                    _deliver(default, packets)
                else:
                    _c[f"class:{default}"] += 0
                return
            classify = table.classify
            groups: dict[str, list[Packet]] = {}
            unclassified = 0
            for packet in packets:
                spec = classify(packet)
                output = spec.output if spec is not None else default
                if output is None:
                    unclassified += 1
                    _release(packet)
                    continue
                packet.metadata["class"] = output
                group = groups.get(output)
                if group is None:
                    group = groups[output] = []
                group.append(packet)
            for output, group in groups.items():
                _deliver(output, group)
            if unclassified:
                _c["drop:unclassified"] += unclassified

        return kernel
