"""Stay-up-late detection and behavioral-network analysis for campus event logs."""

from .bayesnet import (
    BdeuConfig,
    Cpt,
    CptSet,
    Dag,
    DatasetTable,
    LayerConstraints,
    VariableSet,
    bdeu_family_score,
    bdeu_score,
    climb_batch,
    default_layer_constraints,
    fit_mle,
    hill_climb,
    joint_table,
    legal_moves,
    markov_blanket,
    posterior_query,
    profile_variables,
    random_start,
    score_table,
    structural_hamming_distance,
)
from .consensus import (
    ConsensusDag,
    EdgeFrequencyTable,
    EnsembleResult,
    NullModelResult,
    build_consensus,
    consensus_pipeline,
    edge_frequencies,
    learn_ensemble,
    merge_total_network,
    null_threshold,
    top_fraction,
)
from .evaluate import (
    PredictionExperiment,
    PredictionResult,
    RocCurve,
    predict_sleep_experiment,
    roc_auc,
)
from .ingest import (
    Bedtimes,
    EventColumns,
    EventStore,
    IngestError,
    LogPaths,
    NightWindowConfig,
    RawFeatureRecord,
    SleepCountVector,
    aggregate_sleep_counts,
    compute_raw_features,
    extract_bedtimes,
    parse_logs,
)
from .pipeline import ConfigError, PipelineConfig, StageError, run_pipeline
from .profiles import (
    DiscretizationSpec,
    StudentProfile,
    build_profiles,
    default_discretization_spec,
    median_split,
    profiles_to_table,
)
from .sleepmix import (
    Assignments,
    FitDiagnostics,
    MixtureConfig,
    MixtureError,
    PoissonMixtureModel,
    Responsibilities,
    assign_and_label,
    component_log_likelihood,
    e_step,
    fit,
    log_joint,
    m_step,
)
from .synth import (
    FullLogsResult,
    GeneratorConfig,
    GroundTruth,
    default_ground_truth,
    generate_full_logs,
    generate_profiles,
    generate_sleep_data,
    structure_recovery_truth,
)

__version__ = "0.1.0"
