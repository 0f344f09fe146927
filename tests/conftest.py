"""Shared fixtures.

The channel solves with corner-perturbed stresses cost up to a few
tenths of a second each (the Picard sweeps that bring a corner into
Newton's basin, then the Newton finish), so every converged state used
by more than one test is a session-scoped fixture. Baselines are taken from the
envelope runs so each configuration is solved exactly once; the
data-driven envelope reuses the Re_tau 1000 baseline, on which its
forest is queried.
"""

import numpy as np
import pytest

from eigenuq import channel, dns, features, pipeline


@pytest.fixture(scope="session")
def settings():
    return pipeline.load_settings()


@pytest.fixture(scope="session")
def envelope_datafree_180():
    cfg = channel.ChannelConfig(re_tau=180.0)
    return channel.uq_envelope(cfg, channel.corner_injections("datafree", delta_b=1.0))


@pytest.fixture(scope="session")
def envelope_datafree_1000():
    cfg = channel.ChannelConfig(re_tau=1000.0)
    return channel.uq_envelope(cfg, channel.corner_injections("datafree", delta_b=1.0))


@pytest.fixture(scope="session")
def baseline_180(envelope_datafree_180):
    return envelope_datafree_180.baseline


@pytest.fixture(scope="session")
def baseline_1000(envelope_datafree_1000):
    return envelope_datafree_1000.baseline


@pytest.fixture(scope="session")
def forest_p(settings):
    """Trained magnitude forest plus its training metrics."""
    return pipeline.train_forest(settings, "p")[:2]


@pytest.fixture(scope="session")
def trained_forests(settings, forest_p):
    """The forest of every target kind from a default-settings training."""
    forests = {kind: pipeline.train_forest(settings, kind)[0] for kind in ("pcorr", "pcorr_angles")}
    return {"p": forest_p[0], **forests}


@pytest.fixture(scope="session")
def targets_p_1000(forest_p, baseline_1000):
    """The magnitude forest's targets, queried once on the baseline."""
    return forest_p[0].predict(features.feature_matrix(baseline_1000))


@pytest.fixture(scope="session")
def envelope_datadriven_1000(targets_p_1000, baseline_1000):
    cfg = channel.ChannelConfig(re_tau=1000.0)
    injections = channel.corner_injections("p", targets=targets_p_1000)
    return channel.uq_envelope(cfg, injections, baseline_1000)


@pytest.fixture(scope="session")
def synthetic_1000():
    return dns.synthetic_profile(1000.0)


@pytest.fixture(scope="session")
def frozen_state_1000(synthetic_1000):
    cfg = channel.ChannelConfig(re_tau=1000.0)
    inj = channel.FrozenStressInjection(profile=synthetic_1000)
    return channel.solve(cfg, inj)


@pytest.fixture(scope="session")
def frozen_state_noisy_1000(synthetic_1000):
    cfg = channel.ChannelConfig(re_tau=1000.0)
    inj = channel.FrozenStressInjection(
        profile=synthetic_1000, noise_amplitude=0.05, noise_seed=0
    )
    return channel.solve(cfg, inj)


@pytest.fixture(scope="session")
def all_injected_states(
    envelope_datafree_180,
    envelope_datafree_1000,
    envelope_datadriven_1000,
    frozen_state_1000,
    frozen_state_noisy_1000,
):
    """Every converged state carrying perturbed/prescribed stresses,
    plus the baselines, keyed by a readable label."""
    states = {
        "baseline_180": envelope_datafree_180.baseline,
        "baseline_1000": envelope_datafree_1000.baseline,
        "frozen_1000": frozen_state_1000,
        "frozen_noisy_1000": frozen_state_noisy_1000,
    }
    for label, env in (
        ("datafree_180", envelope_datafree_180),
        ("datafree_1000", envelope_datafree_1000),
        ("datadriven_1000", envelope_datadriven_1000),
    ):
        for corner, st in env.corner_states.items():
            states[f"{label}_{corner}"] = st
    return states


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
