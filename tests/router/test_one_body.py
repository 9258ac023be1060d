"""The one-body rule: every datapath component writes its logic once.

A push component defines either ``process`` (per-packet logic the base
batches) or ``push_batch``, never both, and never a scalar ``push`` beside
its ``push_batch`` — scalar ``push`` is the inherited batch of one.  A link
scheduler writes only ``pull_batch``; its scalar ``pull`` is the base's
first item of ``pull_batch(1)``.  Checked on each class's own
``__dict__``, so a hand-written second copy anywhere in the hierarchy
fails here.  Below the components, the NIC follows the same rule: its
scalar ``transmit`` and ``receive_frame`` are batches of one.
"""

import inspect

import pytest

import repro.appservices
import repro.router
from repro.osbase import Nic
from repro.router import LinkSchedulerBase, PacketComponent
from repro.router.components.base import DequeSource

#: The one shared deque provider: its ``pull`` stays a direct ``popleft``
#: because DRR/WFQ refill their heads through it once per packet.
PULL_PAIR_ALLOWED = (DequeSource,)


def component_classes():
    """Every PacketComponent class exported by the router and appservices
    packages, with every PacketComponent base along their MROs."""
    found = set()
    for package in (repro.router, repro.appservices):
        for name in package.__all__:
            exported = getattr(package, name)
            if inspect.isclass(exported) and issubclass(exported, PacketComponent):
                found.update(
                    cls for cls in exported.__mro__
                    if issubclass(cls, PacketComponent) and cls is not PacketComponent
                )
    return sorted(found, key=lambda cls: cls.__qualname__)


CLASSES = component_classes()


def test_the_census_sees_the_datapath():
    names = {cls.__name__ for cls in CLASSES}
    assert {
        "Forwarder", "Classifier", "FifoQueue", "RedQueue", "DrrScheduler",
        "CollectorSink", "InjectorSink", "ExecutionEnvironment", "DequeSource",
    } <= names


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_push_side_has_one_body(cls):
    own = vars(cls)
    assert not ("process" in own and "push_batch" in own), (
        f"{cls.__name__} writes both process and push_batch"
    )
    assert not ("push" in own and "push_batch" in own), (
        f"{cls.__name__} writes a scalar push beside push_batch"
    )


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_pull_side_has_one_body(cls):
    own = vars(cls)
    if issubclass(cls, LinkSchedulerBase) and cls is not LinkSchedulerBase:
        assert "pull" not in own, f"{cls.__name__} writes a scalar pull"
    if cls not in PULL_PAIR_ALLOWED:
        assert not ("pull" in own and "pull_batch" in own), (
            f"{cls.__name__} writes both pull and pull_batch"
        )


@pytest.mark.parametrize(
    "scalar, batch", [("transmit", "transmit_batch"), ("receive_frame", "receive_batch")]
)
def test_nic_scalar_is_a_batch_of_one(scalar, batch):
    names = set(getattr(Nic, scalar).__code__.co_names)
    assert batch in names
    assert not names & {"_tx", "_rx", "counters"}, f"Nic.{scalar} writes a second body"
