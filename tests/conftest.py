import sys
from dataclasses import replace

import numpy as np
import pytest

from confflat import extrinsic, principal
from confflat.ambient import sphere_form
from confflat.catalog import default_catalog
from confflat.extrinsic import fundamental_forms
from confflat.jets import Jet, SmoothMap, evaluate_jet, norm_sq, stack, unstack
from confflat.jets.core import _jet
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
    return lift_at(s3xs1, interior_points(s3xs1, 5))


@pytest.fixture(scope="session")
def s3xs1_grid(s3xs1_lift):
    """Shared lifted grid; building it runs the parallel-frame transport
    over the whole chart, so construct it once per session."""
    return build_lift_grid(s3xs1_lift)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def _record_calls(monkeypatch, module, name):
    """A list that gets (args, result) of every call of `module.name` made
    through a confflat module while the test runs."""
    original = getattr(module, name)
    calls = []

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("confflat")
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, recording)
    return calls


@pytest.fixture
def fundamental_forms_calls(monkeypatch):
    """A list that gets the point argument of every fundamental_forms call
    made through a confflat module while the test runs."""
    original = extrinsic.fundamental_forms
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("confflat")
                and getattr(module, "fundamental_forms", None) is original):
            monkeypatch.setattr(module, "fundamental_forms", counting)
    return calls


@pytest.fixture
def principal_passes(monkeypatch):
    """A list that gets the extrinsic data of every one-pass principal
    decision (principal_decompositions and the lift correspondence) made
    through a confflat module while the test runs."""
    original = principal._principal_pass
    calls = []

    def counting(ext, *args):
        calls.append(ext)
        return original(ext, *args)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("confflat")
                and getattr(module, "_principal_pass", None) is original):
            monkeypatch.setattr(module, "_principal_pass", counting)
    return calls


def interior_points(item, count, seed=0):
    rng = np.random.default_rng(seed)
    return item.smooth_map.domain.sample_points(count, rng)


def lift_at(item, points, conformal=None):
    """The item's flat lift checked at `points`, from one order-2 jet of the
    item and its conformal structure's jets there (`conformal` in place of
    the item's own structure when given)."""
    conf = item.conformal if conformal is None else conformal
    model = build_cone_model(item.smooth_map.codomain_dim)
    pts = np.asarray(points, float)
    return flat_lift(item.smooth_map, conf, model,
                     evaluate_jet(item.smooth_map, pts, 2), conf.jets(pts))


def linear_image(F, R):
    """The map R F, for a constant matrix R, as a SmoothMap of its own: R
    applied to the stacked outputs of F's evaluator (floats or jets)."""
    def evaluator(x):
        V = stack(list(F.evaluator(list(x))))
        if isinstance(V, Jet):
            return unstack(_jet(V.n, V.order,
                                np.einsum("BA,KA...->KB...", R, V.c)))
        return list(R @ V)

    return SmoothMap(F.domain, len(R), evaluator, F.name + "_image")


def sectional(riemann, X, Y):
    """Sectional curvature of the plane spanned by X, Y, for one Riemann
    tensor over an orthonormal basis (riemann[i, j, j, i] is the sectional
    curvature of the (e_i, e_j) plane)."""
    num = np.einsum("ijkl,i,j,k,l->", riemann, X, Y, Y, X)
    den = (X @ X) * (Y @ Y) - (X @ Y) ** 2
    return float(num / den)


def decompositions(item, points, seed=0):
    """Principal decompositions at `points`, from one batched pass of
    fundamental_forms."""
    return principal_decompositions(
        fundamental_forms(item.smooth_map, item.ambient, points), seed=seed)


def decomposition_at(item, point):
    """The principal decomposition at one point: the one-pass decision on a
    point set of one."""
    return decompositions(item, np.asarray(point, float)[None])[0]


def into_sphere(item):
    """The item composed with inverse stereographic projection of its
    Euclidean ambient onto the unit sphere one dimension up."""
    N = item.smooth_map.codomain_dim

    def evaluator(u):
        x = item.smooth_map.evaluator(u)
        q = norm_sq(x)
        return [2.0 * c / (q + 1.0) for c in x] + [(q - 1.0) / (q + 1.0)]

    fmap = SmoothMap(item.smooth_map.domain, N + 1, evaluator,
                     item.smooth_map.name + "_in_sphere")
    return replace(item, smooth_map=fmap, ambient=sphere_form(N, 1.0))
