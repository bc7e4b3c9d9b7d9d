import json
from pathlib import Path

import numpy as np
import pytest

import latentpath as lp

ASSETS = Path(lp.__file__).parent / "assets"


@pytest.fixture(scope="session")
def survey_model_text() -> str:
    return (ASSETS / "wuliangye.model").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def survey_spec(survey_model_text) -> lp.ModelSpec:
    return lp.parse_model(survey_model_text)


@pytest.fixture(scope="session")
def sim_config() -> dict:
    return json.loads((ASSETS / "wuliangye_sim.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def planted(survey_spec, sim_config):
    """Matrices and parameter vector for the bundled generator config."""
    m = lp.build_matrices(
        survey_spec, survey_spec.indicator_names,
        standardize_latents=sim_config["standardize_latents"],
    )
    theta = lp.theta_from_config(m, sim_config["values"], sim_config["defaults"])
    return m, theta


@pytest.fixture(scope="session")
def survey_sim_moments(survey_spec, planted):
    """Moments of one large simulated draw from the bundled model."""
    m, theta = planted
    data = lp.simulate(m, theta, 5000, seed=20240601)
    return lp.covariance(data)


def evaluate(obj, theta):
    """F, its gradient and its expected information at one theta (t,) of an
    objective over one sample covariance, through the stacked calls."""
    pt = obj.point(np.asarray(theta, dtype=float)[None], np.zeros(1, dtype=int))
    return float(pt.f[0]), obj.gradients(pt)[0], obj.informations(pt)[0]


def one_factor_spec(n_items: int = 3, name: str = "F") -> lp.ModelSpec:
    items = " + ".join(f"{name.lower()}{i + 1}" for i in range(n_items))
    return lp.parse_model(f"{name} =~ {items}")
