"""diffcert: Q-learning guided differential testing of X.509 validators.

Seed certificates are mutated action-by-action, each mutant is scored
against a panel of verifier backends, and a small Q-network learns which
mutation sequences make the backends disagree (some accept while others
reject).  See the README for the command-line workflow.
"""

__version__ = "0.1.0"

from .actions import ActionSpec, ActionTrace, apply, catalog, replay
from .campaign import CampaignConfig, CampaignStats, run_baseline, run_inference, run_training
from .certs import (
    Certificate,
    Extension,
    SeedParams,
    build_synthetic,
    default_params,
    encode_der,
    mock_sign,
    parse_der,
    pem_decode,
    pem_encode,
)
from .corpus import DiscrepancyDb, DiscrepancyRecord, SeedCorpus, generate_corpus, ingest_dir, report
from .features import FEATURE_LENGTH, LabelRegistry, compare_time, default_registry, extract
from .qnet import Batch, QParams, TrainConfig, forward, init, select_action, td_targets, train_step
from .verdicts import (
    FlawProfile,
    TrustAnchor,
    TrustStore,
    VerdictVector,
    is_discrepancy,
    reward_delta,
    reward_primary,
    simulate_verify,
    verify_all,
)

__all__ = [name for name in dir() if not name.startswith("_")]
