"""Shared pytest configuration for the test suite."""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        "--regen-goldens",  # alias; see tests/goldens/README.md
        action="store_true",
        default=False,
        help=(
            "rewrite tests/goldens/*.json from the current code instead of "
            "comparing against them (review the diff before committing; "
            "see tests/goldens/README.md for when regeneration is legitimate)"
        ),
    )


@pytest.fixture(scope="session")
def claims_slice():
    """The tier-1 slice of the claims table, evaluated once a session:
    ``{claim id: Verdict}``.  In-process and with no deadline anywhere,
    so no verdict depends on how fast a cell simulates."""
    from repro.experiments.claims import CLAIMS, evaluate_claims
    from tests.helpers import SLICE_BASE, SLICE_SEEDS

    rows = [claim for claim in CLAIMS.values() if not claim.not_in_slice]
    return evaluate_claims(rows, SLICE_BASE, SLICE_SEEDS, processes=1)
