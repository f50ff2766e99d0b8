"""Checked-in reference diagrams.

FIGURE1 is the five element lattice of noncrossing partitions of
{1, 2, 3} with its six cover relations, labeled by partitions.  FIGURE2
is the twelve element lattice of monotone functions from a two point
chain p0 < p1 into that lattice.  Each of its nodes is labeled by the
pair (value at p0, value at p1) of indices into FIGURE1_NODES, so a
computed lattice is compared with it as labeled node and cover sets.
"""
from __future__ import annotations

FIGURE1_NODES: tuple = (
    ((1,), (2,), (3,)),
    ((1, 2), (3,)),
    ((1, 3), (2,)),
    ((1,), (2, 3)),
    ((1, 2, 3),),
)

FIGURE1_COVERS: tuple = (
    (((1,), (2,), (3,)), ((1, 2), (3,))),
    (((1,), (2,), (3,)), ((1, 3), (2,))),
    (((1,), (2,), (3,)), ((1,), (2, 3))),
    (((1, 2), (3,)), ((1, 2, 3),)),
    (((1, 3), (2,)), ((1, 2, 3),)),
    (((1,), (2, 3)), ((1, 2, 3),)),
)

# node i is the function p0 -> FIGURE1_NODES[a], p1 -> FIGURE1_NODES[b]
# for (a, b) = FIGURE2_NODES[i]
FIGURE2_NODES: tuple = (
    (4, 4),
    (3, 4),
    (3, 3),
    (0, 3),
    (1, 4),
    (1, 1),
    (0, 1),
    (2, 4),
    (2, 2),
    (0, 2),
    (0, 0),
    (0, 4),
)

# edges are (lower, higher) cover pairs of node indices
FIGURE2_COVERS: tuple = (
    (1, 0),
    (4, 0),
    (7, 0),
    (2, 1),
    (3, 2),
    (10, 3),
    (5, 4),
    (6, 5),
    (10, 6),
    (8, 7),
    (9, 8),
    (3, 11),
    (6, 11),
    (11, 1),
    (11, 4),
    (10, 9),
    (11, 7),
    (9, 11),
)
