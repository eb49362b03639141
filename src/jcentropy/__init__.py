"""Entropy exchange in the Jaynes-Cummings model with fluctuating-temperature cavities."""

__version__ = "0.1.0"

from .specfun import (
    AccuracyError,
    hurwitz_zeta,
    q_log,
)
from .superstat import (
    BracketError,
    GammaSuperstat,
    MultiLevelSuperstat,
    PhotonDistribution,
    calibrate_beta_star,
    mean_photon_q,
    photon_weights_gamma,
    photon_weights_gibbs,
    photon_weights_multilevel,
    physical_beta,
    q_internal_energy,
    q_partition,
    q_trace,
)
from .jcm import (
    AtomInit,
    ModelParams,
    manifold_transfers,
    oracle_evolve,
)
from .entropy import (
    VON_NEUMANN,
    EntropyKind,
    EntropyTrace,
    FieldEntropyForm,
    bloch_sweep,
    entropy_of,
    entropy_trace,
    tsallis,
)
from .ensemble import (
    BetaEnsembleSpec,
    load_betas,
    sample_betas,
    save_betas,
)
