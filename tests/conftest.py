
import pytest

from diffcert.certs import REFERENCE_TIME, SeedParams, build_synthetic
from diffcert.verdicts import TrustAnchor, TrustStore

from verdict_helpers import default_backends


@pytest.fixture(scope="session")
def default_cert():
    return build_synthetic(SeedParams(), 7)


@pytest.fixture(scope="session")
def now():
    return REFERENCE_TIME


@pytest.fixture()
def trust_for(default_cert):
    """Trust store that knows the default fixture's issuer as a v3 root."""
    store = TrustStore()
    store.add(TrustAnchor(default_cert.issuer.der, "acme-root"))
    return store


@pytest.fixture()
def anchored_cert():
    """A self-issued certificate whose subject is registered as an anchor."""
    params = SeedParams(
        issuer_common_name="anchor.example.test",
        issuer_country="US",
        subject_common_name="anchor.example.test",
        subject_country="US",
        signer_tag="anchor-self",
    )
    return build_synthetic(params, 21)


@pytest.fixture()
def anchored_env(anchored_cert):
    store = TrustStore()
    store.add(TrustAnchor(anchored_cert.subject.der, "anchor-self"))
    return anchored_cert, store, default_backends(store)
