"""Polar coding for compound multiple-access channels and interference networks."""

__version__ = "0.1.0"

from .channels import (  # noqa: F401
    DimensionError,
    DiscreteChannel,
    InputDistribution,
    KernelSizeError,
    UnsupportedChannelError,
    bhattacharyya,
    coded_time_sharing_transform,
    joint_distribution,
    minus_combine,
    mutual_information,
    plus_combine,
    symmetric_capacity,
)
from .erasure import (  # noqa: F401
    ParityLinkedErasureMAC,
    bec_bit_channel_eps,
    bec_tree_bit_channel_eps,
    polar_transform_bits,
)
from .polar import (  # noqa: F401
    BitChannelStat,
    EstimatorConfig,
    IndexClassification,
    classify,
    synthesize_p2p,
)
from .chains import (  # noqa: F401
    KUserSplit,
    MonotonePath,
    NotFoundError,
    PathRateProfile,
    PreconditionError,
    find_k_user_split,
    find_two_user_split,
    path_rates,
    sum_capacity,
    two_user_path,
)
from .alignment import (  # noqa: F401
    AlignmentSchedule,
    CombinePair,
    ScheduleError,
    build_schedule,
    combined_eps,
    decode_runs,
    decoding_dag,
    incompatible_fraction,
    validate_successive_decodability,
)
from .regions import (  # noqa: F401
    RatePolytope,
    Region2D,
    RegionError,
    corner_points,
    dominant_face,
    fourier_motzkin,
    hk_region,
    intersect,
    mac_region,
    strong_interference_check,
    superposition_regions,
)
from .codec import (  # noqa: F401
    CompoundCodeSpec,
    ReceiverSpec,
    build_code,
    encode,
    sc_decode,
    simulate,
    theorem1_check,
    transmit,
)
