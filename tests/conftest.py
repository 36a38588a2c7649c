import numpy as np
import pytest

from confflat.catalog import default_catalog
from confflat.extrinsic import fundamental_forms
from confflat.lightcone import build_cone_model, flat_lift
from confflat.principal import principal_decompositions
from confflat.ribaucour import build_lift_grid


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


@pytest.fixture(scope="session")
def s3xs1(catalog):
    return catalog["s3xs1"]


@pytest.fixture(scope="session")
def s3xs1_lift(s3xs1):
    model = build_cone_model(s3xs1.smooth_map.codomain_dim)
    return flat_lift(s3xs1.smooth_map, s3xs1.conformal, model)


@pytest.fixture(scope="session")
def s3xs1_grid(s3xs1_lift):
    """Shared lifted grid; building it runs the parallel-frame transport
    over the whole chart, so construct it once per session."""
    return build_lift_grid(s3xs1_lift)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def interior_points(item, count, seed=0):
    rng = np.random.default_rng(seed)
    return item.smooth_map.domain.sample_points(count, rng)


def decompositions(item, points, seed=0):
    """Principal decompositions at `points`, from one batched pass of
    fundamental_forms."""
    return principal_decompositions(
        fundamental_forms(item.smooth_map, item.ambient, points), seed=seed)
