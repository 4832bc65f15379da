"""Descriptor-free 2D-3D keypoint matching on bearing vectors."""

__version__ = "0.1.0"

from .geometry import (  # noqa: F401
    CameraIntrinsics,
    CorrespondenceSet,
    RigidPose,
    label_ground_truth,
    neighbor_cosine,
    project,
)
from .network import ModelWeights, NetworkConfig, forward  # noqa: F401
from .posemetrics import RansacConfig, pnp_ransac, reprojection_auc  # noqa: F401
from .synth import ScenePair, SynthConfig, generate_scene, inject_outliers  # noqa: F401
from .training import TrainConfig, train  # noqa: F401
