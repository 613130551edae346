"""Elastic worker placement after node loss.

Both multi-node trainers (LDA* and multi-node CuLDA) recover from a
dead node the same way: the logical workers it hosted migrate intact —
partition, topic assignments, θ, RNG stream — to surviving nodes, so
the numerics never see the failure and only the wire placement
changes. This module is the one planner both use.
"""

from __future__ import annotations

from typing import Sequence

from repro.telemetry.context import emit_counter

__all__ = ["migrate_workers", "token_lightest_moves"]


def token_lightest_moves(
    hosting: Sequence[int],
    tokens: Sequence[int],
    survivors: Sequence[int],
) -> list[tuple[int, int]]:
    """``(worker, target node)`` for every worker off a survivor.

    ``hosting[w]`` is the node hosting logical worker *w* and
    ``tokens[w]`` its token count. Workers already on a survivor stay
    put; the others move in worker order, each to the survivor with the
    smallest ``(load, node)`` at that moment, where a node's load is the
    tokens it hosts. Ties break by node id, so the plan is deterministic.
    """
    load = {n: 0 for n in survivors}
    for w, n in enumerate(hosting):
        if n in load:
            load[n] += tokens[w]
    moves = []
    for w, n in enumerate(hosting):
        if n in load:
            continue
        target = min(load, key=lambda s: (load[s], s))
        moves.append((w, target))
        load[target] += tokens[w]
    return moves


def migrate_workers(
    hosting: Sequence[int],
    tokens: Sequence[int],
    survivors: Sequence[int],
) -> list[int]:
    """The hosting map after :func:`token_lightest_moves`, counting each
    move in ``workers_migrated_total{worker, to_node}``."""
    out = list(hosting)
    for w, target in token_lightest_moves(hosting, tokens, survivors):
        emit_counter(
            "workers_migrated_total", 1,
            help="Logical workers migrated off dead cluster nodes onto "
                 "token-lightest survivors.",
            worker=str(w), to_node=str(target),
        )
        out[w] = target
    return out
