"""Save/load named parameters to ``.npz`` -- the model cache's storage layer."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .layers import Module, Parameter


def state_dict(module: Module) -> dict[str, np.ndarray]:
    """Snapshot of all parameter values (copies, detached from the module)."""
    return {name: parameter.value.copy() for name, parameter in module.parameters().items()}


def load_state_dict(module: Module, state: dict[str, np.ndarray], strict: bool = True) -> None:
    """Write ``state`` into the module's parameters, validating names/shapes."""
    parameters = module.parameters()
    missing = set(parameters) - set(state)
    unexpected = set(state) - set(parameters)
    if strict and (missing or unexpected):
        raise KeyError(f"state mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
    for name, value in state.items():
        if name not in parameters:
            continue
        parameter: Parameter = parameters[name]
        if parameter.value.shape != value.shape:
            raise ValueError(
                f"shape mismatch for {name!r}: model {parameter.value.shape}, state {value.shape}"
            )
        parameter.value[...] = value


def save_module(module: Module, path: str | Path) -> None:
    """Serialise a module's parameters to a compressed npz file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **state_dict(module))


def load_module(module: Module, path: str | Path, strict: bool = True) -> None:
    """Load parameters previously written by :func:`save_module`."""
    with np.load(Path(path)) as archive:
        state = {name: archive[name] for name in archive.files}
    load_state_dict(module, state, strict=strict)
