"""diffcert: Q-learning guided differential testing of X.509 validators.

Seed certificates are mutated action-by-action, each mutant is scored
against a panel of verifier backends, and a small Q-network learns which
mutation sequences make the backends disagree (some accept while others
reject).  See the README for the command-line workflow.
"""

__version__ = "0.1.0"
