import numpy as np
import pytest

from sdsbm.graph_model import BlockStack


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)


def one_block(counts, n=100, pair=("a", "a")) -> BlockStack:
    """A stack of one block."""
    return BlockStack((pair,), np.array([n]), np.array([counts], dtype=float))


def concat(stacks) -> BlockStack:
    """The blocks of several stacks on one time axis, in order."""
    stacks = list(stacks)
    return BlockStack(
        sum((s.pairs for s in stacks), ()),
        np.concatenate([s.n for s in stacks]),
        np.concatenate([s.counts for s in stacks]),
    )
