"""The benchmark's fixed workloads, shared by the harness and its worker.

Sizes are part of each workload's identity: changing one makes a new
workload, and its numbers are not comparable with the old one's.
"""

from __future__ import annotations

import random

# CLI workloads: one call of ennola.cli.main with these arguments.
CLI_ARGV = {
    "table": ["chartable", "--n", "4", "--q", "3", "--format", "csv"],
    "model": ["decompose", "model", "--m", "4", "--q", "3"],
}

# The library call inside main() that computes the result. In the traced run,
# main() time minus this call is the render time.
LIBRARY_CALL = {
    "table": "char_table",
    "model": "model_decomposition",
}

# products: ordered class pairs (ma, mb) at this q with size(ma) + size(mb)
# at most PRODUCTS_MAX_SIZE.
PRODUCTS_Q = 2
PRODUCTS_MAX_SIZE = 4
PRODUCTS_PAIRS = 288

WORKLOADS = (*CLI_ARGV, "products")


def product_pairs(enumerate_mp, seed: int) -> list:
    """Every products pair, in an order drawn from the seed."""
    pairs = [
        (ma, mb)
        for na in range(1, PRODUCTS_MAX_SIZE)
        for nb in range(1, PRODUCTS_MAX_SIZE + 1 - na)
        for ma in enumerate_mp(PRODUCTS_Q, "phi", na)
        for mb in enumerate_mp(PRODUCTS_Q, "phi", nb)
    ]
    random.Random(seed).shuffle(pairs)
    return pairs
