"""Verifier test helpers: one profile's verdict on its own, and the six
shipped profiles bound to a store, as tests written against single
profiles and the default panel need."""

import datetime as dt

from diffcert.certs import Certificate
from diffcert.verdicts import FlawProfile, SimulatedBackend, TrustStore, bind_backends, default_backend_specs, derive_facts, judge, validity_window


def simulate_verify(profile: FlawProfile, cert, trust: TrustStore, now: dt.datetime) -> int:
    """Verdict of one simulated backend; total, never raises on cert content."""
    data = cert if isinstance(cert, Certificate) else bytes(cert)
    return judge(profile, derive_facts(data, trust, profile.lenient_parse), validity_window(profile, now))


def default_backends(trust: TrustStore) -> list[SimulatedBackend]:
    return bind_backends(default_backend_specs(), trust)
