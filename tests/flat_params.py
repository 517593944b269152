"""Flatten a name -> array dict into one vector and back.

The finite-difference gradient checks perturb a network's parameters as one
vector; these two helpers map between that vector and the tensor dict.
"""

import numpy as np


def flatten_arrays(arrays: dict[str, np.ndarray]) -> tuple[np.ndarray, list[tuple[str, tuple[int, ...]]]]:
    """Concatenate a name->array dict into one vector plus a shape layout.

    Iteration follows the dict's insertion order, so a round trip through
    unflatten_arrays is exact as long as the same dict is used.
    """
    layout = [(name, arr.shape) for name, arr in arrays.items()]
    if not layout:
        return np.zeros(0), layout
    flat = np.concatenate([np.ravel(arr) for arr in arrays.values()])
    return flat.astype(np.float64), layout


def unflatten_arrays(flat: np.ndarray, layout: list[tuple[str, tuple[int, ...]]]) -> dict[str, np.ndarray]:
    """Inverse of flatten_arrays."""
    out: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in layout:
        size = int(np.prod(shape)) if shape else 1
        out[name] = flat[offset : offset + size].reshape(shape).copy()
        offset += size
    if offset != flat.size:
        raise ValueError(f"layout covers {offset} values, vector has {flat.size}")
    return out


def embed_gradients(
    params: dict[str, np.ndarray], grads: dict[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten grads over the full tensors of params, each gradient placed in
    the trailing rows of its tensor.

    A gradient may cover a tensor only in part: a one-step LSTM direction
    trains the trailing rows W_x[H:] and b[H:] of its W_x and b, and no row
    of its W_h. Returns the flat gradient in flatten_arrays(params) order,
    0 where no gradient reaches, and the flat mask of those coordinates.
    """
    full, untrained = {}, {}
    for name, arr in params.items():
        grad = grads.get(name, np.zeros((0, *arr.shape[1:])))
        start = arr.shape[0] - grad.shape[0]
        full[name] = np.zeros_like(arr)
        full[name][start:] = grad
        untrained[name] = np.ones(arr.shape)
        untrained[name][start:] = 0.0
    return flatten_arrays(full)[0], flatten_arrays(untrained)[0] == 1.0
