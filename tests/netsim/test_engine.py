"""The discrete-event engine."""

import pytest

from repro.netsim import Engine, EngineError


@pytest.fixture
def engine():
    return Engine()


class TestScheduling:
    def test_events_fire_in_time_order(self, engine):
        order = []
        engine.schedule(2.0, lambda: order.append("b"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.run()
        assert order == ["a", "b"]
        assert engine.now == 2.0

    def test_same_time_fifo(self, engine):
        order = []
        engine.schedule(1.0, lambda: order.append(1))
        engine.schedule(1.0, lambda: order.append(2))
        engine.run()
        assert order == [1, 2]

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(EngineError):
            engine.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(EngineError):
            engine.schedule_at(0.5, lambda: None)

    def test_cancel(self, engine):
        fired = []
        handle = engine.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        engine.run()
        assert fired == []

    def test_events_scheduled_during_run(self, engine):
        log = []

        def cascade():
            log.append(engine.now)
            if len(log) < 3:
                engine.schedule(1.0, cascade)

        engine.schedule(1.0, cascade)
        engine.run()
        assert log == [1.0, 2.0, 3.0]

    def test_run_until_stops_at_deadline(self, engine):
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(5.0, lambda: fired.append(5))
        engine.run_until(2.0)
        assert fired == [1]
        assert engine.now == 2.0
        assert engine.pending() == 1

    def test_callback_errors_contained(self, engine):
        def bad():
            raise ValueError("callback bug")

        fired = []
        engine.schedule(1.0, bad)
        engine.schedule(2.0, lambda: fired.append(1))
        engine.run()
        assert fired == [1]
        assert len(engine.callback_errors) == 1

    def test_periodic(self, engine):
        ticks = []
        engine.schedule_periodic(1.0, lambda: ticks.append(engine.now), until=3.5)
        engine.run()
        assert ticks == [1.0, 2.0, 3.0]

    def test_periodic_cancel(self, engine):
        ticks = []
        handle = engine.schedule_periodic(1.0, lambda: ticks.append(1))
        engine.schedule(2.5, handle.cancel)
        engine.run_until(10.0)
        assert ticks == [1, 1]

    def test_events_processed_counter(self, engine):
        for i in range(5):
            engine.schedule(i + 1.0, lambda: None)
        engine.run()
        assert engine.events_processed == 5


class TestEventEntries:
    """Heap entries order by (time, schedule order); a cancelled entry
    stays in the heap and is skipped wherever the engine meets it."""

    def test_equal_time_events_fire_in_schedule_order(self, engine):
        order = []
        for i in range(20):
            engine.schedule_at(1.0 + (i % 2), lambda i=i: order.append(i))
        engine.run()
        assert order == list(range(0, 20, 2)) + list(range(1, 20, 2))

    def test_cancelled_head_is_skipped_by_step(self, engine):
        fired = []
        head = engine.schedule(1.0, lambda: fired.append("head"))
        engine.schedule(2.0, lambda: fired.append("next"))
        head.cancel()
        assert engine.step()
        assert fired == ["next"]
        assert engine.now == 2.0
        assert engine.events_processed == 1
        assert not engine.step()

    def test_cancelled_head_is_skipped_by_run_until(self, engine):
        fired = []
        engine.schedule(1.0, lambda: fired.append("head")).cancel()
        engine.schedule(3.0, lambda: fired.append("late"))
        assert engine.run_until(2.0) == 0
        assert fired == [] and engine.now == 2.0
        assert engine.run_until(3.0) == 1
        assert fired == ["late"]

    def test_pending_excludes_cancelled_and_handle_time(self, engine):
        engine.run_until(0.5)
        handles = [engine.schedule(delay, lambda: None) for delay in (1.0, 2.0, 0.25)]
        assert [h.time for h in handles] == [1.5, 2.5, 0.75]
        assert engine.pending() == 3
        handles[0].cancel()
        handles[0].cancel()  # idempotent
        assert engine.pending() == 2
        assert handles[0].time == 1.5  # a cancelled handle keeps its time
        assert engine.run() == 2

    def test_periodic_series_stops_on_cancel(self, engine):
        ticks = []
        series = engine.schedule_periodic(1.0, lambda: ticks.append(engine.now))
        assert series.time == 1.0
        engine.run_until(2.5)
        assert ticks == [1.0, 2.0]
        assert series.time == 3.0  # the current arm
        series.cancel()
        assert engine.pending() == 0
        engine.run_until(10.0)
        assert ticks == [1.0, 2.0]

    def test_periodic_series_cancelled_before_first_tick(self, engine):
        ticks = []
        engine.schedule_periodic(1.0, lambda: ticks.append(1)).cancel()
        engine.run_until(5.0)
        assert ticks == [] and engine.events_processed == 0


class TestBackoffPolicy:
    def test_capped_exponential_without_jitter(self):
        from repro.netsim import BackoffPolicy

        policy = BackoffPolicy(base=0.01, factor=2.0, cap=0.05, jitter=0.0)
        assert [policy.delay(a) for a in range(5)] == [
            0.01, 0.02, 0.04, 0.05, 0.05
        ]

    def test_jitter_is_seeded_and_bounded(self):
        from repro.netsim import BackoffPolicy

        def schedule():
            policy = BackoffPolicy(base=0.01, cap=1.0, jitter=0.5, seed=42)
            return [policy.delay(a) for a in range(10)]

        first, second = schedule(), schedule()
        assert first == second  # pure function of (parameters, seed)
        raw = BackoffPolicy(base=0.01, cap=1.0, jitter=0.0)
        for attempt, delay in enumerate(first):
            assert 0.5 * raw.delay(attempt) <= delay <= 1.5 * raw.delay(attempt)

    def test_parameter_validation(self):
        from repro.netsim import BackoffPolicy

        with pytest.raises(EngineError):
            BackoffPolicy(base=0)
        with pytest.raises(EngineError):
            BackoffPolicy(factor=0.5)
        with pytest.raises(EngineError):
            BackoffPolicy(base=1.0, cap=0.5)
        with pytest.raises(EngineError):
            BackoffPolicy(jitter=1.0)
        policy = BackoffPolicy()
        with pytest.raises(EngineError):
            policy.delay(-1)


class TestRetryTimer:
    def _timer(self, engine, *, max_attempts, expired, exhausted):
        from repro.netsim import BackoffPolicy, RetryTimer

        return RetryTimer(
            engine,
            policy=BackoffPolicy(base=0.01, jitter=0.0),
            max_attempts=max_attempts,
            on_expire=lambda attempt: expired.append((engine.now, attempt)),
            on_exhausted=lambda: exhausted.append(engine.now),
        )

    def test_expiries_follow_the_backoff_schedule(self, engine):
        expired, exhausted = [], []
        timer = self._timer(engine, max_attempts=4, expired=expired, exhausted=exhausted)
        timer.start()
        engine.run()
        # Retries at base, base+2*base, base+2*base+4*base ... then the
        # fourth firing exhausts instead of retrying.
        assert [a for _, a in expired] == [1, 2, 3]
        assert [t for t, _ in expired] == pytest.approx([0.01, 0.03, 0.07])
        assert exhausted == pytest.approx([0.15])
        assert timer.exhausted

    def test_cancel_stops_the_series(self, engine):
        expired, exhausted = [], []
        timer = self._timer(engine, max_attempts=5, expired=expired, exhausted=exhausted)
        timer.start()
        engine.schedule(0.015, timer.cancel)
        engine.run()
        assert [a for _, a in expired] == [1]
        assert exhausted == []
        timer.start()  # restart after cancel is a no-op
        engine.run()
        assert [a for _, a in expired] == [1]

    def test_max_attempts_validation(self, engine):
        from repro.netsim import BackoffPolicy, RetryTimer

        with pytest.raises(EngineError):
            RetryTimer(
                engine,
                policy=BackoffPolicy(),
                max_attempts=0,
                on_expire=lambda attempt: None,
            )
