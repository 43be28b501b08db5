"""Seed robustness: the headline orderings hold seed by seed.

The orderings themselves are rows of ``repro.experiments.claims.CLAIMS``
(``F2.reno-above-udp``, ``F2.udp-tracks-poisson``), judged on the mean
and the seed-to-seed spread by ``tests/test_claims.py``.  This file
reads the per-seed values behind those two verdicts -- a mean can hide
one contrary seed -- from the same evaluation (the session's
``claims_slice`` fixture), and checks that the Reno cells they rest on
were congested at all: timeouts, gateway drops, a full pipe.
"""

import pytest

from repro.experiments.claims import MARGIN
from tests.helpers import SLICE_SEEDS

SEEDS = SLICE_SEEDS


def _at(verdict, seed):
    index = SEEDS.index(seed)
    return verdict.left[index], verdict.right[index]


@pytest.mark.parametrize("seed", SEEDS)
def test_reno_burstier_than_udp_for_every_seed(claims_slice, seed):
    reno, udp = _at(claims_slice["F2.reno-above-udp"], seed)
    assert reno > udp


@pytest.mark.parametrize("seed", SEEDS)
def test_udp_tracks_poisson_for_every_seed(claims_slice, seed):
    # A 20-s window has ~50 bins, so one seed's sample c.o.v. is itself
    # noisy: it may leave the row's band by the spread the row measured.
    verdict = claims_slice["F2.udp-tracks-poisson"]
    udp, poisson = _at(verdict, seed)
    assert abs(udp - poisson) < verdict.claim.constant * poisson + MARGIN * verdict.spread


@pytest.mark.parametrize("seed", SEEDS)
def test_reno_congestion_machinery_active_for_every_seed(claims_slice, seed):
    # Reno past the knee, as three slice rows already measure it.
    timeouts, _vegas = _at(claims_slice["F13.reno-timeouts"], seed)
    loss_percent, _light = _at(claims_slice["F4.loss-grows"], seed)
    utilization, _capacity = _at(claims_slice["F3.saturates"], seed)
    assert timeouts > 0
    assert loss_percent > 0
    assert utilization > 0.8
