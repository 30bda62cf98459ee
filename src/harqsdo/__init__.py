"""Incremental-redundancy hybrid ARQ design toolkit for erasure channels."""

from .codes import (
    CodeParams,
    MomentPair,
    decode_success_prob,
    decode_success_curve,
    decodable_count_pmf,
    decodable_count_moments,
    erdos_borwein_constant,
    dst_constant,
    overhead_moment,
    asymptotic_round_moments,
)
from .channel import (
    Schedule,
    RoundLengthLaw,
    ack_prob,
    ack_curve,
    ack_curves,
    objective,
    round_length_law,
    round_length_moments,
    expected_round_symbols,
    throughput,
)
from .sdo import (
    CdfModel,
    OptimizerReport,
    optimize,
    optimize_row,
    exhaustive_search,
)
from .simulate import (
    EstimateReport,
    GENERATOR_NAME,
    estimate,
    rescore,
    sample_decode_counts,
    sample_round_lengths,
)

__version__ = "0.1.0"
