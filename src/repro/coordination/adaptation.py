"""Closed-loop self-adaptation: monitor → policy → rule-checked actuation.

Every reconfiguration this repo can perform — queue-discipline swap,
scheduler swap, batch/steal retune, elastic resize — so far happened
because a test called it.  This module closes the loop in the style the
paper argues reflective middleware exists for: a monitor samples the
running system *through its meta-models* into a sliding
:class:`ContextWindow`, a :class:`PolicyEngine` maps window conditions
to :class:`AdaptationAction`\\ s, and **every** action is validated
against a typed rule set before it reaches the actuation machinery.  A
bad adaptation is not deployed and rolled back — it is *vetoed with a
typed reason* (:class:`AdaptationVeto`), observable state untouched.

Governance before actuation, concretely:

- ``no-resize-during-round`` — an elastic resize must not start while a
  two-phase round (resize or recovery) holds the datapath quiesced;
- ``no-swap-on-live-port`` — a discipline swap must quiesce the
  admission port it mutates (an action opting out via
  ``params["quiesce"]=False`` on a live port is refused);
- ``decompile-before-vtable-mutation`` — compiled hot-path regions must
  be torn down before any swap mutates a vtable (opting out via
  ``params["decompile"]=False`` while shards run compiled is refused);
- ``cf-admissible`` — the replacement component itself must satisfy the
  admission tier's Router-CF rules (:mod:`repro.cf.rules`) before the
  swap is attempted.

The adaptation rules are :class:`repro.cf.rules.Rule` subclasses that
check (action, view) pairs, so :func:`~repro.cf.rules.explain_rules`
produces the typed (rule, reason) pairs for both CF plug-in rules and
adaptation rules.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.cf.rules import Rule, Violation, explain_rules


class AdaptationError(Exception):
    """Raised on malformed actions or actuation misuse (not on vetoes —
    a veto is an outcome, not an error)."""


# ---------------------------------------------------------------------------
# Context window
# ---------------------------------------------------------------------------


class ContextWindow:
    """Sliding window of monitor samples (newest last).

    Each sample is a flat ``signal -> value`` dict; the monitor stamps
    virtual time under ``"t"``.  Accessors skip samples that lack the
    requested signal, so sources can come and go without poisoning the
    whole window.
    """

    def __init__(self, size: int = 16) -> None:
        if size < 1:
            raise AdaptationError(f"window size must be >= 1, got {size}")
        self.size = size
        self._samples: deque[dict[str, float]] = deque(maxlen=size)

    def record(self, sample: dict[str, float]) -> dict[str, float]:
        """Append one reading (stored as a copy); returns the stored dict."""
        stored = dict(sample)
        self._samples.append(stored)
        return stored

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> tuple[dict[str, float], ...]:
        return tuple(self._samples)

    def series(self, signal: str, *, ticks: int | None = None) -> list[float]:
        """Values of *signal* oldest→newest, restricted to the last
        *ticks* samples when given."""
        values = [s[signal] for s in self._samples if signal in s]
        if ticks is not None:
            values = values[-ticks:]
        return values

    def latest(self, signal: str, default: float = 0.0) -> float:
        for sample in reversed(self._samples):
            if signal in sample:
                return sample[signal]
        return default

    def mean(self, signal: str, *, ticks: int | None = None) -> float:
        values = self.series(signal, ticks=ticks)
        return sum(values) / len(values) if values else 0.0

    def delta(self, signal: str, *, ticks: int | None = None) -> float:
        """Newest minus oldest value over the (restricted) window."""
        values = self.series(signal, ticks=ticks)
        return values[-1] - values[0] if len(values) >= 2 else 0.0

    def rate(self, signal: str, *, ticks: int | None = None) -> float:
        """Per-virtual-time rate of a cumulative signal: Δsignal / Δt
        over the (restricted) window; 0 when time has not advanced."""
        samples = [s for s in self._samples if signal in s and "t" in s]
        if ticks is not None:
            samples = samples[-ticks:]
        if len(samples) < 2:
            return 0.0
        dt = samples[-1]["t"] - samples[0]["t"]
        if dt <= 0:
            return 0.0
        return (samples[-1][signal] - samples[0][signal]) / dt

    def sustained(
        self, signal: str, predicate: Callable[[float], bool], ticks: int
    ) -> bool:
        """*predicate* holds on every one of the last *ticks* samples
        (False when fewer than *ticks* readings exist yet)."""
        values = self.series(signal, ticks=ticks)
        return len(values) >= ticks and all(predicate(v) for v in values)

    def sustained_increase(self, signal: str, ticks: int) -> bool:
        """The cumulative *signal* grew across each of the last *ticks*
        consecutive sample pairs (needs ``ticks + 1`` readings)."""
        values = self.series(signal, ticks=ticks + 1)
        if len(values) < ticks + 1:
            return False
        return all(b > a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Actions, vetoes, system view
# ---------------------------------------------------------------------------

#: The action catalog: every kind the actuator understands.
ACTION_KINDS = (
    "swap-queue",
    "swap-scheduler",
    "set-batch",
    "set-steal-watermark",
    "resize",
)


@dataclass(frozen=True)
class AdaptationAction:
    """One proposed adaptation.

    ``params`` by kind:

    - ``swap-queue``: ``class`` (traffic class), ``factory`` (queue
      component factory), optional ``label``; ``quiesce``/``decompile``
      default True — the safe actuation protocol.  Setting either False
      requests skipping that step, which the rule engine refuses
      whenever the step is actually needed.
    - ``swap-scheduler``: ``factory``, optional ``label``, same
      ``quiesce``/``decompile`` escape hatches.
    - ``set-batch`` / ``set-steal-watermark``: ``n``.
    - ``resize``: ``shards``.
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    reason: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ACTION_KINDS:
            raise AdaptationError(
                f"unknown action kind {self.kind!r}; catalog: {ACTION_KINDS}"
            )

    def describe(self) -> str:
        label = self.params.get("label")
        detail = label if label else ", ".join(
            f"{k}={v!r}" for k, v in self.params.items() if k != "factory"
        )
        return f"{self.kind}({detail})" + (f" [{self.reason}]" if self.reason else "")


@dataclass(frozen=True)
class AdaptationVeto:
    """One refused adaptation: the action, the rule that stopped it, and
    the rule's reason — the typed (rule, reason) pair the tentpole
    requires instead of a deployed-then-rolled-back failure."""

    action: AdaptationAction
    rule: str
    reason: str

    def __str__(self) -> str:
        return f"VETO {self.action.describe()}: [{self.rule}] {self.reason}"


@dataclass
class SystemView:
    """What the rules and policies may observe: the sharded datapath, the
    edge admission tier, optional placement model, and any extra
    round-open probes (e.g. a distributed coordinator's in-flight
    rounds)."""

    datapath: Any
    admission: Any
    placement: Any = None
    round_probes: tuple[Callable[[], bool], ...] = ()

    def round_open(self) -> bool:
        if self.datapath.round_open:
            return True
        return any(probe() for probe in self.round_probes)

    def compiled_regions(self) -> list[str]:
        """Names of live compiled regions a vtable mutation would race."""
        regions = [f"shard{i}" for i in self.datapath.compiled_shards()]
        pipeline = getattr(self.admission, "pipeline", None)
        if pipeline is not None and pipeline.compiled_active:
            regions.append("admission")
        return regions


# ---------------------------------------------------------------------------
# Adaptation rules (check(action, view) -> list[str], explain_rules-shaped)
# ---------------------------------------------------------------------------


class NoResizeDuringRound(Rule):
    """An elastic resize must not start while a two-phase round is open
    (the rounds are mutually exclusive inside the datapath; this rule
    turns the late refusal into an up-front typed veto)."""

    name = "no-resize-during-round"

    def check(self, action: AdaptationAction, view: SystemView) -> list[str]:
        if action.kind != "resize":
            return []
        if view.round_open():
            return [
                "a two-phase round (resize/recovery) is open; a second "
                "structural change must wait for commit or rollback"
            ]
        return []


class NoSwapOnLivePort(Rule):
    """Discipline swaps must quiesce the admission port they mutate: an
    action opting out (``quiesce=False``) while the port is live is
    refused."""

    name = "no-swap-on-live-port"

    def check(self, action: AdaptationAction, view: SystemView) -> list[str]:
        if action.kind not in ("swap-queue", "swap-scheduler"):
            return []
        if action.params.get("quiesce", True):
            return []
        if not view.admission.quiesced:
            return [
                "swap requests quiesce=False but the admission port is "
                "live; quiesce the port (or let the actuator do it)"
            ]
        return []


class DecompileBeforeVtableMutation(Rule):
    """Compiled hot-path regions must be torn down before a swap mutates
    vtables: an action opting out (``decompile=False``) while regions
    run compiled is refused."""

    name = "decompile-before-vtable-mutation"

    def check(self, action: AdaptationAction, view: SystemView) -> list[str]:
        if action.kind not in ("swap-queue", "swap-scheduler"):
            return []
        if action.params.get("decompile", True):
            return []
        regions = view.compiled_regions()
        if regions:
            return [
                "swap requests decompile=False with compiled regions "
                f"active ({', '.join(regions)}); a vtable mutation must "
                "not race a specialised chain"
            ]
        return []


class CfAdmissible(Rule):
    """The replacement component must itself satisfy the admission
    tier's CF rules — the :mod:`repro.cf.rules` half of validation.  A
    probe instance is built from the action's factory and checked
    *before* any swap machinery runs."""

    name = "cf-admissible"

    def check(self, action: AdaptationAction, view: SystemView) -> list[str]:
        if action.kind not in ("swap-queue", "swap-scheduler"):
            return []
        factory = action.params.get("factory")
        if factory is None:
            return ["swap action carries no replacement factory"]
        try:
            probe = factory()
        except Exception as exc:  # noqa: BLE001 - any factory failure is a veto
            return [f"replacement factory failed: {exc!r}"]
        failures = view.admission.pipeline.cf.validate_component(probe)
        return [f"replacement rejected by CF: {failure}" for failure in failures]


def adaptation_rules() -> list[Rule]:
    """The stock adaptation rule set (fresh instances)."""
    return [
        NoResizeDuringRound(),
        NoSwapOnLivePort(),
        DecompileBeforeVtableMutation(),
        CfAdmissible(),
    ]


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


class Policy:
    """One condition → action mapping over the context window."""

    name = "policy"

    def evaluate(
        self, window: ContextWindow, view: SystemView
    ) -> list[AdaptationAction]:
        raise NotImplementedError


class SustainedBurstPolicy(Policy):
    """Sustained burst pressure → drop-tail→RED on the configured class,
    plus batch/steal retuning so the fleet drains deeper backlogs.

    Fires when the drop signal grew across each of the last *ticks*
    sample pairs (cumulative counters: growth == fresh drops) — a single
    spike never triggers it — and only while the class still runs a
    non-RED queue, so the swap is emitted once.
    """

    name = "sustained-burst"

    def __init__(
        self,
        *,
        queue_class: str,
        red_factory: Callable[[], Any],
        drop_signal: str = "admission_drops",
        ticks: int = 3,
        batch: int | None = None,
        steal_watermark: int | None = None,
    ) -> None:
        self.queue_class = queue_class
        self.red_factory = red_factory
        self.drop_signal = drop_signal
        self.ticks = ticks
        self.batch = batch
        self.steal_watermark = steal_watermark

    def evaluate(
        self, window: ContextWindow, view: SystemView
    ) -> list[AdaptationAction]:
        if not window.sustained_increase(self.drop_signal, self.ticks):
            return []
        reason = (
            f"{self.drop_signal} grew {self.ticks} consecutive ticks "
            f"(+{window.delta(self.drop_signal, ticks=self.ticks + 1):.0f})"
        )
        actions: list[AdaptationAction] = []
        shape = view.admission.describe()
        if shape["queues"].get(self.queue_class) != "RedQueue":
            actions.append(
                AdaptationAction(
                    "swap-queue",
                    {
                        "class": self.queue_class,
                        "factory": self.red_factory,
                        "label": f"{self.queue_class}: drop-tail -> RED",
                    },
                    reason=reason,
                )
            )
        if self.batch is not None and view.datapath.batch != self.batch:
            actions.append(
                AdaptationAction("set-batch", {"n": self.batch}, reason=reason)
            )
        if (
            self.steal_watermark is not None
            and getattr(view.datapath, "steal_watermark", None) != self.steal_watermark
        ):
            actions.append(
                AdaptationAction(
                    "set-steal-watermark",
                    {"n": self.steal_watermark},
                    reason=reason,
                )
            )
        return actions


class ClassStarvationPolicy(Policy):
    """A latency class pinned at depth under a fair scheduler → strict
    priority, so the starved class drains first.

    Fires when the class's admission depth stayed at or above
    *min_depth* for *ticks* consecutive samples and the tier is not
    already running the target scheduler.
    """

    name = "class-starvation"

    def __init__(
        self,
        *,
        klass: str,
        scheduler_factory: Callable[[], Any],
        scheduler_type: str = "PriorityLinkScheduler",
        min_depth: int = 1,
        ticks: int = 3,
    ) -> None:
        self.klass = klass
        self.scheduler_factory = scheduler_factory
        self.scheduler_type = scheduler_type
        self.min_depth = min_depth
        self.ticks = ticks

    def evaluate(
        self, window: ContextWindow, view: SystemView
    ) -> list[AdaptationAction]:
        if view.admission.describe()["scheduler"] == self.scheduler_type:
            return []
        signal = f"admission_depth:{self.klass}"
        if not window.sustained(signal, lambda v: v >= self.min_depth, self.ticks):
            return []
        return [
            AdaptationAction(
                "swap-scheduler",
                {
                    "factory": self.scheduler_factory,
                    "label": f"scheduler -> {self.scheduler_type}",
                },
                reason=(
                    f"class {self.klass!r} pinned >= {self.min_depth} deep "
                    f"for {self.ticks} ticks (starved under fair sharing)"
                ),
            )
        ]


class PlacementResizePolicy(Policy):
    """Load-driven elastic sizing through the placement model.

    - *Scale up*: sustained offered load (admitted-rate over the window,
      scaled by *rate_scale*) asks the placement model
      (:meth:`ShardPlacement.recommend`) for the smallest covering fleet;
      a recommendation above the current live fleet — with backlog
      *balanced* (divergence at most *max_divergence*: skew means steal
      or recovery work, not capacity) — emits a resize.
    - *Scale down*: a quiet system (admission empty, backlog empty, rate
      under *quiet_rate*) for *ticks* samples shrinks back to
      *min_shards*.
    """

    name = "placement-resize"

    def __init__(
        self,
        *,
        placement: Any,
        rate_scale: float = 1.0,
        headroom: float = 1.25,
        max_divergence: float = 64.0,
        quiet_rate: float = 1.0,
        ticks: int = 3,
        min_shards: int = 1,
        max_shards: int | None = None,
    ) -> None:
        self.placement = placement
        self.rate_scale = rate_scale
        self.headroom = headroom
        self.max_divergence = max_divergence
        self.quiet_rate = quiet_rate
        self.ticks = ticks
        self.min_shards = min_shards
        self.max_shards = max_shards

    def evaluate(
        self, window: ContextWindow, view: SystemView
    ) -> list[AdaptationAction]:
        if len(window) < self.ticks:
            return []
        current = len(view.datapath.shards)
        rate = window.rate("admitted_total", ticks=self.ticks) * self.rate_scale
        if rate >= self.quiet_rate:
            if window.mean("backlog_divergence", ticks=self.ticks) > self.max_divergence:
                return []
            target = self.placement.recommend(rate, headroom=self.headroom)
            if self.max_shards is not None:
                target = min(target, self.max_shards)
            if target > current:
                return [
                    AdaptationAction(
                        "resize",
                        {"shards": target},
                        reason=(
                            f"offered load ~{rate:.0f} pps exceeds the "
                            f"{current}-shard envelope; placement recommends "
                            f"{target}"
                        ),
                    )
                ]
            return []
        quiet = (
            window.sustained("admission_depth", lambda v: v <= 0, self.ticks)
            and window.sustained("backlog_total", lambda v: v <= 0, self.ticks)
        )
        if quiet and current > self.min_shards:
            return [
                AdaptationAction(
                    "resize",
                    {"shards": self.min_shards},
                    reason=(
                        f"quiet for {self.ticks} ticks (rate {rate:.1f} < "
                        f"{self.quiet_rate}); shrinking to {self.min_shards}"
                    ),
                )
            ]
        return []


class PolicyEngine:
    """Evaluates every policy against the window, in order."""

    def __init__(self, policies: Iterable[Policy] = ()) -> None:
        self.policies: list[Policy] = list(policies)

    def decide(
        self, window: ContextWindow, view: SystemView
    ) -> list[AdaptationAction]:
        decided: list[AdaptationAction] = []
        for policy in self.policies:
            decided.extend(policy.evaluate(window, view))
        return decided


# ---------------------------------------------------------------------------
# Manager + monitor thread
# ---------------------------------------------------------------------------


class AdaptationManager:
    """The closed loop: sample → decide → rule-check → actuate.

    ``monitor`` is a :class:`~repro.appservices.monitor.MonitorCF` (its
    ``sample_all()`` is the merged reading); ``clock`` defaults to the
    datapath's virtual clock and stamps each sample's ``"t"``.  Every
    action — policy-decided or externally :meth:`request`\\ ed — passes
    the rule set first; refusals append an :class:`AdaptationVeto` and
    leave the system untouched.
    """

    def __init__(
        self,
        view: SystemView,
        monitor: Any,
        *,
        policies: Sequence[Policy] = (),
        rules: Sequence[Rule] | None = None,
        window_size: int = 16,
        clock: Any = None,
    ) -> None:
        self.view = view
        self.monitor = monitor
        self.engine = PolicyEngine(policies)
        self.rules: list[Rule] = (
            list(rules) if rules is not None else adaptation_rules()
        )
        self.window = ContextWindow(window_size)
        self.clock = clock if clock is not None else view.datapath.threads.clock
        self.applied: list[AdaptationAction] = []
        self.vetoes: list[AdaptationVeto] = []

    # -- the loop ----------------------------------------------------------

    def sample(self) -> dict[str, float]:
        """Take one merged monitor reading into the window."""
        reading = self.monitor.sample_all()
        reading["t"] = self.clock.now
        return self.window.record(reading)

    def tick(self) -> list[AdaptationAction]:
        """One control-loop iteration: sample, decide, request each
        decided action; returns the actions actually applied."""
        self.sample()
        applied: list[AdaptationAction] = []
        for action in self.engine.decide(self.window, self.view):
            if self.request(action):
                applied.append(action)
        return applied

    def request(self, action: AdaptationAction) -> bool:
        """Validate and (only if clean) actuate one action.

        Returns True when applied.  On refusal every (rule, reason) pair
        becomes an :class:`AdaptationVeto` and *nothing* is actuated —
        the typed-veto guarantee the property suite pins down as
        byte-identical observable state.
        """
        violations: list[Violation] = explain_rules(self.rules, action, self.view)
        if violations:
            self.vetoes.extend(
                AdaptationVeto(action=action, rule=v.rule, reason=v.reason)
                for v in violations
            )
            return False
        self._actuate(action)
        self.applied.append(action)
        return True

    def audit(self) -> list[str]:
        """Re-validate every governed CF (admission + monitor); a
        rule-valid system returns ``[]`` — the post-application check
        the property suite runs after every applied action."""
        failures: list[str] = []
        for cf in (self.view.admission.pipeline.cf, self.monitor):
            for name, plugin_failures in cf.validate_all().items():
                failures.extend(f"{name}: {f}" for f in plugin_failures)
        return failures

    # -- actuation ---------------------------------------------------------

    def _actuate(self, action: AdaptationAction) -> None:
        datapath = self.view.datapath
        admission = self.view.admission
        params = action.params
        if action.kind == "set-batch":
            datapath.retune_batch(params["n"])
            return
        if action.kind == "set-steal-watermark":
            datapath.retune_steal_watermark(params["n"])
            return
        if action.kind == "resize":
            if params["shards"] != len(datapath.shards):
                datapath.resize(params["shards"])
            return
        # swap-queue / swap-scheduler: quiesce the port and tear down
        # compiled regions around the mutation (the rule set already
        # refused any action that opted out while the step was needed).
        quiesce = params.get("quiesce", True)
        decompile = params.get("decompile", True)
        was_quiesced = admission.quiesced
        recompile_after = False
        if quiesce and not was_quiesced:
            admission.quiesce()
        try:
            if decompile:
                recompile_after = bool(datapath.compiled_shards())
                datapath.decompile_all()
                admission.pipeline.decompile()
            if action.kind == "swap-queue":
                admission.swap_queue(params["class"], params["factory"])
            else:
                admission.swap_scheduler(params["factory"])
        finally:
            if recompile_after:
                datapath.recompile_all()
            if quiesce and not was_quiesced:
                admission.resume()


class MonitorThread:
    """The monitor as a SimThread on the existing engine: one
    :meth:`AdaptationManager.tick` every *period* quanta, sharing the
    virtual clock with the workers it observes."""

    def __init__(
        self,
        manager: AdaptationManager,
        *,
        period: int = 1,
        name: str = "adaptation-monitor",
    ) -> None:
        if period < 1:
            raise AdaptationError(f"period must be >= 1, got {period}")
        self.manager = manager
        self.period = period
        self.name = name
        self.thread: Any = None
        self._stop = False
        self.ticks = 0

    def body(self):
        while not self._stop:
            self.manager.tick()
            self.ticks += 1
            for _ in range(self.period):
                yield
                if self._stop:
                    return

    def spawn(self, threads: Any) -> Any:
        """Spawn onto a :class:`~repro.osbase.scheduler.ThreadManagerCF`;
        returns the SimThread."""
        self.thread = threads.spawn(self.name, self.body())
        return self.thread

    def stop(self) -> None:
        """Ask the body to finish at its next quantum."""
        self._stop = True
