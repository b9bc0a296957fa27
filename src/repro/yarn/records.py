"""Protocol records exchanged between RM, NMs and ApplicationMasters."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.yarn.ids import ContainerId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Node
    from repro.yarn.state_machine import RMContainerStateMachine

__all__ = ["ResourceSpec", "ExecutionType", "ResourceRequest", "ContainerGrant", "LaunchSpec"]


@dataclass(frozen=True, slots=True)
class ResourceSpec:
    """A container shape: <memory, vcores> (YARN's resource ensemble)."""

    memory_mb: int
    vcores: int

    def __post_init__(self) -> None:
        if self.memory_mb < 1 or self.vcores < 1:
            raise ValueError(f"invalid resource spec {self.memory_mb}MB/{self.vcores}vc")

    def __str__(self) -> str:
        return f"<memory:{self.memory_mb}, vCores:{self.vcores}>"


class ExecutionType(enum.Enum):
    """Hadoop 3 execution types (section IV-A: the hybrid scheduler)."""

    GUARANTEED = "GUARANTEED"
    OPPORTUNISTIC = "OPPORTUNISTIC"


@dataclass(slots=True)
class ResourceRequest:
    """An AM's ask for ``count`` containers of one shape."""

    spec: ResourceSpec
    count: int
    execution_type: ExecutionType = ExecutionType.GUARANTEED

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"request count must be >= 1, got {self.count}")


@dataclass(slots=True)
class ContainerGrant:
    """A container the scheduler has bound to a node for an app."""

    container_id: ContainerId
    node: "Node"
    spec: ResourceSpec
    execution_type: ExecutionType = ExecutionType.GUARANTEED
    #: RM-side state machine, attached at allocation time.
    rm_container: Optional["RMContainerStateMachine"] = None
    allocated_at: float = 0.0

    def __str__(self) -> str:
        return str(self.container_id)


@dataclass(slots=True)
class LaunchSpec:
    """Everything the NM needs to localize and launch one container.

    ``run`` is the instance body: a callable that receives a
    :class:`~repro.yarn.app.ContainerContext` and returns the process
    generator of the launched JVM (Spark driver, Spark executor, MR
    task, ...).  ``instance_type`` uses the paper's Fig 9a codes:
    spm / spe / mrm / mrsm / mrsr.
    """

    instance_type: str
    run: Callable[..., Any]
    #: Localization payload: HDFS files the NM downloads before launch
    #: (job jars, dependencies, and the Fig 8 "-f" extra uploads).
    files: list = field(default_factory=list)
    #: Launch inside a Docker container (Fig 9b).
    docker: bool = False
    #: Free-form bag for framework-specific launch parameters.
    env: dict = field(default_factory=dict)
