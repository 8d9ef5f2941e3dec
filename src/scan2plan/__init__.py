"""One-shot registration of LiDAR submaps against 2D building wall models."""

from .config import PipelineConfig, make_config, parse_config_file
from .descriptors import (
    DescriptorDB,
    Triplets,
    build_db,
    build_triplets,
    canonical_triplets,
    query_correspondences,
)
from .errors import (
    EmptyGrid,
    EmptyModel,
    EmptyScene,
    EmptySubmap,
    InvalidModel,
    InvalidSubmap,
    NoCandidates,
    ParseError,
    ResolutionMismatch,
    Scan2PlanError,
)
from .geometry import (
    LineSegment2,
    Se2Pose,
    normalize_angle,
    pose_errors,
    registration_success,
    solve_se2_batch,
)
from .ingest import (
    Submap,
    WallModel,
    load_pose,
    load_submap,
    load_wall_models,
    save_pose,
    save_submap,
    save_wall_models,
)
from .lines import Corners, extract_corners, merge_refit, patch_segments
from .pipeline import (
    FAILURE_CONFIDENCE,
    EvalSummary,
    FloorIndex,
    RegistrationReport,
    SceneOutcome,
    SubmapFeatures,
    build_floor_index,
    evaluate_scenes,
    extract_submap_features,
    pr_from_directories,
    register_directory,
    register_features,
    register_submap,
    write_eval_csv,
    write_pr_csv,
)
from .planes import Patches, classify_patches, merge_patches, segment_planes
from .synthetic import (
    FloorLayout,
    SyntheticScene,
    generate_layout,
    random_interior_pose,
    synthesize_submap,
)
from .verify import (
    ScoreField,
    ScoreResult,
    build_score_field,
    reliability_curve,
    select_best,
)
from .voting import Candidate, Candidates, VoteGrid, cast_votes, hierarchical_vote

__version__ = "0.1.0"
