"""OpenCOM meta-models: architecture (structural reflection), interface
(introspection), interception (vtable-level behavioural reflection), and
resources (task/resource management)."""

from repro.opencom.metamodel.architecture import (
    ActionSet,
    ArchitectureMetaModel,
    GraphView,
)
from repro.opencom.metamodel.interception import Interceptor, intercept_interface
from repro.opencom.metamodel.interface_meta import describe_component, describe_interface
from repro.opencom.metamodel.resources import (
    ResourceMetaModel,
    ResourcePool,
    Task,
)

__all__ = [
    "ActionSet",
    "ArchitectureMetaModel",
    "GraphView",
    "Interceptor",
    "intercept_interface",
    "describe_component",
    "describe_interface",
    "ResourceMetaModel",
    "ResourcePool",
    "Task",
]
