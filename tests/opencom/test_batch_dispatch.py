"""Batch dispatch: invoke_batch, fuse_batch, batch watchers, and the
interception safety invariant on the vectorised path — push-shaped
(absorb/ISink) and pull-shaped (draw/IWell) alike."""

import pytest

from repro.opencom import FusedBatchCall, InterfaceError, VTable
from repro.opencom.interfaces import Interface


class ISink(Interface):
    """Test interface: a push-style single-argument void method."""

    def absorb(self, item):
        """Take one item."""
        ...


class IWell(Interface):
    """Test interface: a pull-style zero-argument producer method."""

    def draw(self):
        """Produce the next item, or None when dry."""
        ...


class LoopedSink:
    """Implements ISink with no native batch method."""

    def __init__(self):
        self.items = []

    def absorb(self, item):
        self.items.append(item)


class VectorSink(LoopedSink):
    """Implements ISink plus a native absorb_batch."""

    def __init__(self):
        super().__init__()
        self.batch_calls = 0

    def absorb_batch(self, items):
        self.batch_calls += 1
        self.items.extend(items)


class LoopedWell:
    """Implements IWell with no native batch method."""

    def __init__(self, items):
        self.items = list(items)

    def draw(self):
        return self.items.pop(0) if self.items else None


class VectorWell(LoopedWell):
    """Implements IWell plus a native draw_batch."""

    def __init__(self, items):
        super().__init__(items)
        self.batch_calls = 0

    def draw_batch(self, max_n):
        self.batch_calls += 1
        got, self.items = self.items[:max_n], self.items[max_n:]
        return got


@pytest.fixture
def looped():
    impl = LoopedSink()
    return impl, VTable(ISink, impl, "in")


@pytest.fixture
def vector():
    impl = VectorSink()
    return impl, VTable(ISink, impl, "in")


@pytest.fixture
def looped_well():
    impl = LoopedWell([1, 2, 3, 4, 5])
    return impl, VTable(IWell, impl, "well")


@pytest.fixture
def vector_well():
    impl = VectorWell([1, 2, 3, 4, 5])
    return impl, VTable(IWell, impl, "well")


class TestInvokeBatch:
    def test_loops_impl_in_order(self, looped):
        impl, vtable = looped
        vtable.invoke_batch("absorb", [1, 2, 3])
        assert impl.items == [1, 2, 3]

    def test_uses_native_batch_when_unintercepted(self, vector):
        impl, vtable = vector
        vtable.invoke_batch("absorb", [1, 2])
        assert impl.batch_calls == 1
        assert impl.items == [1, 2]

    def test_unknown_method_raises(self, looped):
        _, vtable = looped
        with pytest.raises(InterfaceError, match="no method"):
            vtable.invoke_batch("drain", [1])

    def test_interceptor_sees_every_item(self, vector):
        impl, vtable = vector
        seen = []
        vtable.add_pre("absorb", "spy", lambda ctx: seen.append(ctx.args[0]))
        vtable.invoke_batch("absorb", [7, 8, 9])
        # The native batch method is bypassed: interposed per-item calls.
        assert impl.batch_calls == 0
        assert seen == [7, 8, 9]
        assert impl.items == [7, 8, 9]

    def test_native_batch_resumes_after_interceptor_removed(self, vector):
        impl, vtable = vector
        vtable.add_pre("absorb", "spy", lambda ctx: None)
        vtable.invoke_batch("absorb", [1])
        vtable.remove_interceptor("absorb", "spy")
        vtable.invoke_batch("absorb", [2, 3])
        assert impl.batch_calls == 1
        assert impl.items == [1, 2, 3]


class TestInvokeInlineCache:
    def test_warm_invoke_still_observes_new_interceptors(self, looped):
        impl, vtable = looped
        vtable.invoke("absorb", 1)  # warm the inline cache
        seen = []
        vtable.add_pre("absorb", "spy", lambda ctx: seen.append(ctx.args[0]))
        vtable.invoke("absorb", 2)
        assert seen == [2]

    def test_warm_invoke_observes_interceptor_removal(self, looped):
        impl, vtable = looped
        seen = []
        vtable.add_pre("absorb", "spy", lambda ctx: seen.append(ctx.args[0]))
        vtable.invoke("absorb", 1)
        vtable.remove_interceptor("absorb", "spy")
        vtable.invoke("absorb", 2)
        assert seen == [1]
        assert impl.items == [1, 2]


class TestFuseBatch:
    def test_fused_batch_targets_native(self, vector):
        impl, vtable = vector
        handle = vtable.fuse_batch("absorb")
        assert isinstance(handle, FusedBatchCall)
        assert handle.revoked is False
        handle([1, 2])
        assert impl.batch_calls == 1

    def test_fused_batch_loops_raw_without_native(self, looped):
        impl, vtable = looped
        handle = vtable.fuse_batch("absorb")
        handle([4, 5])
        assert impl.items == [4, 5]

    def test_interceptor_revokes_mid_run(self, vector):
        impl, vtable = vector
        handle = vtable.fuse_batch("absorb")
        handle([1, 2])
        seen = []
        vtable.add_pre("absorb", "spy", lambda ctx: seen.append(ctx.args[0]))
        assert handle.revoked is True
        # The handle still works but every item now crosses the interceptor.
        handle([3, 4])
        assert seen == [3, 4]
        assert impl.items == [1, 2, 3, 4]
        assert impl.batch_calls == 1  # only the pre-interception batch

    def test_refused_after_interceptor_removed(self, vector):
        impl, vtable = vector
        handle = vtable.fuse_batch("absorb")
        vtable.add_pre("absorb", "spy", lambda ctx: None)
        vtable.remove_interceptor("absorb", "spy")
        assert handle.revoked is False
        handle([1])
        assert impl.batch_calls == 1

    def test_fusing_intercepted_slot_yields_revoked_handle(self, vector):
        impl, vtable = vector
        vtable.add_pre("absorb", "spy", lambda ctx: None)
        handle = vtable.fuse_batch("absorb")
        assert handle.revoked is True
        handle([1])
        assert impl.items == [1]

    def test_fuse_batch_unknown_method_raises(self, looped):
        _, vtable = looped
        with pytest.raises(InterfaceError):
            vtable.fuse_batch("drain")


class TestInvokePullBatch:
    def test_loops_impl_in_order_until_max_n(self, looped_well):
        impl, vtable = looped_well
        assert vtable.invoke_pull_batch("draw", 3) == [1, 2, 3]
        assert impl.items == [4, 5]

    def test_stops_at_first_none(self, looped_well):
        _, vtable = looped_well
        assert vtable.invoke_pull_batch("draw", 99) == [1, 2, 3, 4, 5]
        assert vtable.invoke_pull_batch("draw", 99) == []

    def test_uses_native_batch_when_unintercepted(self, vector_well):
        impl, vtable = vector_well
        assert vtable.invoke_pull_batch("draw", 2) == [1, 2]
        assert impl.batch_calls == 1

    def test_unknown_method_raises(self, looped_well):
        _, vtable = looped_well
        with pytest.raises(InterfaceError, match="no method"):
            vtable.invoke_pull_batch("drain", 1)

    def test_shape_guard_rejects_push_method(self, looped):
        _, vtable = looped
        with pytest.raises(InterfaceError, match="pull-batch"):
            vtable.invoke_pull_batch("absorb", 1)

    def test_shape_guard_rejects_pull_method_on_push_api(self, looped_well):
        _, vtable = looped_well
        with pytest.raises(InterfaceError, match="invoke_pull_batch"):
            vtable.invoke_batch("draw", [1])

    def test_shape_guard_rejects_multi_argument_methods(self):
        class IPair(Interface):
            """Two-argument method: no batch shape at all."""

            def combine(self, a, b):
                """Merge two values."""
                ...

        class Pairer:
            def combine(self, a, b):
                return (a, b)

        vtable = VTable(IPair, Pairer(), "pair")
        with pytest.raises(InterfaceError, match="no batch shape"):
            vtable.invoke_batch("combine", [(1, 2)])
        with pytest.raises(InterfaceError, match="pull-batch"):
            vtable.invoke_pull_batch("combine", 1)

    def test_interceptor_sees_every_item(self, vector_well):
        """The native batch method is bypassed on interception: per-item
        interposed pulls, each item observed through ctx.result."""
        impl, vtable = vector_well
        seen = []
        vtable.add_post("draw", "spy", lambda ctx: seen.append(ctx.result))
        assert vtable.invoke_pull_batch("draw", 3) == [1, 2, 3]
        assert impl.batch_calls == 0
        assert seen == [1, 2, 3]

    def test_around_interceptor_can_filter_items(self, vector_well):
        """An around interceptor on the scalar slot shapes the batch."""
        _, vtable = vector_well

        def censor(proceed, ctx):
            item = proceed()
            return None if item == 2 else item

        vtable.add_around("draw", "censor", censor)
        # The None from the censored item ends the batch early — exactly
        # what a scalar pull loop would have observed.
        assert vtable.invoke_pull_batch("draw", 5) == [1]

    def test_native_batch_resumes_after_interceptor_removed(self, vector_well):
        impl, vtable = vector_well
        vtable.add_post("draw", "spy", lambda ctx: None)
        assert vtable.invoke_pull_batch("draw", 1) == [1]
        vtable.remove_interceptor("draw", "spy")
        assert vtable.invoke_pull_batch("draw", 2) == [2, 3]
        assert impl.batch_calls == 1


class TestWatchPullBatchSlot:
    def test_setter_called_immediately_with_native(self, vector_well):
        impl, vtable = vector_well
        installed = []
        vtable.watch_pull_batch_slot("draw", installed.append)
        assert installed[-1] == impl.draw_batch

    def test_native_callable_drains_in_one_batch(self, vector_well):
        impl, vtable = vector_well
        installed = []
        vtable.watch_pull_batch_slot("draw", installed.append)
        assert installed[-1](2) == [1, 2]
        assert impl.batch_calls == 1

    def test_setter_loops_raw_without_native(self, looped_well):
        impl, vtable = looped_well
        installed = []
        vtable.watch_pull_batch_slot("draw", installed.append)
        assert installed[-1](4) == [1, 2, 3, 4]
        assert impl.items == [5]

    def test_interceptor_mid_stream_observes_later_items(self, vector_well):
        """Installing an interceptor between two batches of a watched
        stream swaps the call site to per-item interposed pulls, and the
        interceptor observes every subsequent item."""
        impl, vtable = vector_well
        installed = []
        vtable.watch_pull_batch_slot("draw", installed.append)
        assert installed[-1](2) == [1, 2]
        seen = []
        vtable.add_post("draw", "spy", lambda ctx: seen.append(ctx.result))
        assert installed[-1](3) == [3, 4, 5]
        assert seen == [3, 4, 5]
        assert impl.batch_calls == 1  # only the pre-interception batch

    def test_shape_guard_rejects_push_method(self, looped):
        _, vtable = looped
        with pytest.raises(InterfaceError, match="pull-batch"):
            vtable.watch_pull_batch_slot("absorb", lambda fn: None)

    def test_unknown_method_raises(self, looped_well):
        _, vtable = looped_well
        with pytest.raises(InterfaceError, match="no method"):
            vtable.watch_pull_batch_slot("drain", lambda fn: None)

    def test_setter_swapped_on_interception_and_back(self, vector_well):
        impl, vtable = vector_well
        installed = []
        vtable.watch_pull_batch_slot("draw", installed.append)
        vtable.add_post("draw", "spy", lambda ctx: None)
        # The interposed pull-batch callable loops the dispatch closure.
        assert installed[-1](2) == [1, 2]
        assert impl.batch_calls == 0
        vtable.remove_interceptor("draw", "spy")
        assert installed[-1] == impl.draw_batch

    def test_watching_intercepted_slot_yields_interposed_callable(self, vector_well):
        """A port fused onto an already-intercepted pull slot gets the
        interposed per-item draw loop, never the native batch method."""
        impl, vtable = vector_well
        seen = []
        vtable.add_post("draw", "spy", lambda ctx: seen.append(ctx.result))
        installed = []
        vtable.watch_pull_batch_slot("draw", installed.append)
        assert installed[-1] != impl.draw_batch
        assert installed[-1](2) == [1, 2]
        assert seen == [1, 2]
        assert impl.batch_calls == 0

    def test_unsubscribe_stops_updates(self, vector_well):
        _, vtable = vector_well
        installed = []
        unsubscribe = vtable.watch_pull_batch_slot("draw", installed.append)
        count = len(installed)
        unsubscribe()
        vtable.add_post("draw", "spy", lambda ctx: None)
        assert len(installed) == count


class TestWatchBatchSlot:
    def test_setter_called_immediately_with_native(self, vector):
        impl, vtable = vector
        installed = []
        vtable.watch_batch_slot("absorb", installed.append)
        assert installed[-1] == impl.absorb_batch

    def test_shape_guard_rejects_pull_method(self, looped_well):
        _, vtable = looped_well
        with pytest.raises(InterfaceError, match="watch_pull_batch_slot"):
            vtable.watch_batch_slot("draw", lambda fn: None)

    def test_setter_swapped_on_interception_and_back(self, vector):
        impl, vtable = vector
        installed = []
        vtable.watch_batch_slot("absorb", installed.append)
        vtable.add_pre("absorb", "spy", lambda ctx: None)
        # The interposed batch callable loops the dispatch closure.
        installed[-1]([1, 2])
        assert impl.batch_calls == 0
        assert impl.items == [1, 2]
        vtable.remove_interceptor("absorb", "spy")
        assert installed[-1] == impl.absorb_batch

    def test_unsubscribe_stops_updates(self, vector):
        _, vtable = vector
        installed = []
        unsubscribe = vtable.watch_batch_slot("absorb", installed.append)
        count = len(installed)
        unsubscribe()
        vtable.add_pre("absorb", "spy", lambda ctx: None)
        assert len(installed) == count
