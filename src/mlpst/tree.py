"""Walk nested parameter dataclasses with ndarray leaves.

Parameter sets are nested dataclasses whose leaves are float64 arrays.
Sharing (the same array object reachable via several paths, e.g. one
mixer layer applied N times) is part of the structure: all helpers here
memoise on object identity so shared nodes stay shared in derived trees
and are visited once where that matters (optimiser updates, counting,
serialisation).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterator

import numpy as np


def _is_node(value: Any) -> bool:
    return (
        isinstance(value, np.ndarray)
        or dataclasses.is_dataclass(value)
        or isinstance(value, (list, tuple))
    )


def iter_leaves(tree: Any, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
    """Yield ``(dotted_path, array)`` for every leaf, duplicates included.

    Order is deterministic: dataclass field order, list index order.
    """
    if tree is None:
        return
    if isinstance(tree, np.ndarray):
        yield prefix, tree
        return
    if dataclasses.is_dataclass(tree):
        for f in dataclasses.fields(tree):
            value = getattr(tree, f.name)
            if _is_node(value):
                path = f"{prefix}.{f.name}" if prefix else f.name
                yield from iter_leaves(value, path)
        return
    if isinstance(tree, (list, tuple)):
        for i, value in enumerate(tree):
            if _is_node(value):
                yield from iter_leaves(value, f"{prefix}.{i}" if prefix else str(i))
        return


def unique_leaves(tree: Any) -> list[tuple[str, np.ndarray]]:
    """Leaves deduplicated by identity; shared arrays keep their first path."""
    seen: set[int] = set()
    out = []
    for path, arr in iter_leaves(tree):
        if id(arr) not in seen:
            seen.add(id(arr))
            out.append((path, arr))
    return out


def tree_map(fn: Callable[..., np.ndarray], tree: Any, *rest: Any) -> Any:
    """Apply ``fn`` to corresponding leaves, rebuilding the structure.

    ``rest`` trees must be congruent with ``tree`` (same dataclass types,
    list lengths and sharing topology). ``fn`` runs once per unique leaf of
    ``tree``; shared leaves map to one shared result. Non-array dataclass
    fields are copied from ``tree``.
    """
    return _map(fn, tree, list(rest), {})


def _map(fn, node, others: list, memo: dict[int, Any]) -> Any:
    # not a closure: a recursive closure over ``memo`` is a reference cycle,
    # which keeps every mapped array alive until the cycle collector runs
    if node is None:
        return None
    key = id(node)
    if key in memo:
        return memo[key]
    if isinstance(node, np.ndarray):
        result = fn(node, *others)
    elif dataclasses.is_dataclass(node):
        kwargs = {}
        for f in dataclasses.fields(node):
            value = getattr(node, f.name)
            if _is_node(value) or value is None:
                kwargs[f.name] = _map(fn, value, [getattr(o, f.name) for o in others], memo)
            else:
                kwargs[f.name] = value
        result = type(node)(**kwargs)
    elif isinstance(node, (list, tuple)):
        items = [_map(fn, v, [o[i] for o in others], memo) for i, v in enumerate(node)]
        result = type(node)(items) if isinstance(node, tuple) else items
    else:
        result = node
    memo[key] = result
    return result


def tree_zeros_like(tree: Any) -> Any:
    """A congruent tree of zero arrays (sharing topology preserved)."""
    return tree_map(np.zeros_like, tree)


def tree_copy(tree: Any) -> Any:
    """Deep copy of the arrays; structure and sharing preserved."""
    return tree_map(np.copy, tree)
