"""OpenCOM: the reflective component model underpinning NETKIT.

Public surface of the component runtime: interface declaration, components
with receptacles, capsules and the bind primitive, the four meta-models
(interface, architecture, interception, resources), binding fusion and
inter-capsule IPC bindings.
"""

from repro.opencom.binding import Binding, BindRequest
from repro.opencom.capsule import Capsule
from repro.opencom.component import Component, InterfaceRef, Provided, Required
from repro.opencom.errors import (
    AccessDenied,
    BindError,
    CapsuleError,
    ConstraintViolation,
    InterfaceError,
    IpcFault,
    LifecycleError,
    MarshalError,
    OpenComError,
    PlacementError,
    QuiesceTimeout,
    ReceptacleError,
    ResourceError,
    RuleViolation,
)
from repro.opencom.compile import (
    CompilationPlan,
    CompileError,
    CompiledBatchCall,
    compile_push_chain,
)
from repro.opencom.fusion import FusionPlan, fuse_component, fuse_pipeline
from repro.opencom.interfaces import (
    ILifeCycle,
    IMetaInterface,
    Interface,
    MethodSignature,
    implements,
    lookup_interface,
    methods_of,
    registered_interfaces,
)
from repro.opencom.ipc import IpcChannel, RemoteBinding, RemoteProxy, bind_across
from repro.opencom.metamodel.architecture import ArchitectureMetaModel, GraphView
from repro.opencom.metamodel.interception import (
    AdmissionGate,
    CallCounter,
    CallTrace,
    Interceptor,
    intercept_interface,
)
from repro.opencom.metamodel.interface_meta import (
    describe_component,
    describe_interface,
    type_library,
)
from repro.opencom.metamodel.resources import ResourceMetaModel, ResourcePool, Task
from repro.opencom.receptacle import Port, Receptacle
from repro.opencom.registry import GLOBAL_REGISTRY, ComponentRegistry, RegisteredType
from repro.opencom.vtable import (
    CallContext,
    FusedBatchCall,
    FusedCall,
    VTable,
)

__all__ = [
    "AccessDenied",
    "AdmissionGate",
    "ArchitectureMetaModel",
    "BindError",
    "BindRequest",
    "Binding",
    "CallContext",
    "CallCounter",
    "CallTrace",
    "Capsule",
    "CapsuleError",
    "CompilationPlan",
    "CompileError",
    "CompiledBatchCall",
    "Component",
    "ComponentRegistry",
    "ConstraintViolation",
    "FusedBatchCall",
    "FusedCall",
    "FusionPlan",
    "GLOBAL_REGISTRY",
    "GraphView",
    "ILifeCycle",
    "IMetaInterface",
    "Interceptor",
    "Interface",
    "InterfaceError",
    "InterfaceRef",
    "IpcChannel",
    "IpcFault",
    "LifecycleError",
    "MarshalError",
    "MethodSignature",
    "OpenComError",
    "PlacementError",
    "Port",
    "Provided",
    "QuiesceTimeout",
    "Receptacle",
    "ReceptacleError",
    "RegisteredType",
    "RemoteBinding",
    "RemoteProxy",
    "Required",
    "ResourceError",
    "ResourceMetaModel",
    "ResourcePool",
    "RuleViolation",
    "Task",
    "VTable",
    "bind_across",
    "compile_push_chain",
    "describe_component",
    "describe_interface",
    "fuse_component",
    "fuse_pipeline",
    "implements",
    "intercept_interface",
    "lookup_interface",
    "methods_of",
    "registered_interfaces",
    "type_library",
]
