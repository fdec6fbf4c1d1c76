"""Keyframe extraction and cubic motion reconstruction for ASF/AMC capture.

The pipeline: parse ASF/AMC text into a skeleton and joint angle tracks,
run forward kinematics, slice the result into fixed-length windows, convert
each window to per-joint spherical angle tracks, then reconstruct the
motion between a chosen set of keyframes with cubic polynomials. Keyframe
selectors range from random and uniform baselines over a greedy optimizer
to a trained deep-Q agent.
"""

from .agent import (ReplayMemory, TrainConfig, TrainResult, infer_keyframes,
                    load_agent, save_agent, train)
from .asfamc import (Joint, RawMotion, Skeleton, export_amc, parse_amc,
                     parse_asf)
from .baselines import select_greedy, select_random, select_uniform
from .dataset import (WindowRecord, load_dataset, load_manifest,
                      manifest_digest, write_dataset)
from .errors import DegenerateSequence, MocapKeyError, NumericError
from .keyframes import KeyframeSet
from .metrics import (angle_distance, q_baseline, q_error, root_rmse,
                      section_error_table, section_errors)
from .motion import (CMU_EXCLUDED_JOINTS, MotionSequence, downsample, filter_joints,
                     forward_kinematics, preprocess)
from .neural import (AdamState, QNetwork, backward_and_step, checkpoint_load,
                     checkpoint_save, forward, huber, init)
from .reconstruct import reconstruct_full
from .spherical import (SphericalSequence, cart_to_sph, sequence_to_spherical,
                        sph_to_cart, spherical_to_sequence, velocity_to_sph,
                        velocity_to_sph_constrained, wrap_angle)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "CMU_EXCLUDED_JOINTS", "DegenerateSequence", "Joint",
    "KeyframeSet", "MocapKeyError", "MotionSequence", "NumericError",
    "QNetwork", "RawMotion", "ReplayMemory", "Skeleton",
    "SphericalSequence", "TrainConfig", "TrainResult", "WindowRecord",
    "angle_distance", "backward_and_step", "cart_to_sph", "checkpoint_load",
    "checkpoint_save", "downsample", "export_amc", "filter_joints", "forward",
    "forward_kinematics", "huber", "infer_keyframes", "init", "load_agent",
    "load_dataset", "load_manifest", "manifest_digest", "parse_amc",
    "parse_asf", "preprocess", "q_baseline", "q_error", "reconstruct_full",
    "root_rmse", "save_agent", "section_error_table", "section_errors",
    "select_greedy", "select_random", "select_uniform",
    "sequence_to_spherical", "sph_to_cart", "spherical_to_sequence",
    "train", "velocity_to_sph", "velocity_to_sph_constrained", "wrap_angle",
    "write_dataset",
]
