import numpy as np
import pytest

from sdsbm.graph_model import BlockSeries, BlockStack
from sdsbm.ssm import ParamStack


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)


def make_series(counts, n=100, pair=("a", "a")) -> BlockSeries:
    return BlockSeries(pair=pair, n=n, counts=np.asarray(counts, dtype=float))


def stacked(series, params):
    """A BlockStack and ParamStack from one BlockSeries and ModelParams
    (a stack of one) or from equal-length lists of them."""
    if isinstance(series, BlockSeries):
        series, params = [series], [params]
    return BlockStack.of(series), ParamStack.of(params)
