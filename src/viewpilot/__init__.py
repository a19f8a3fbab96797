"""viewpilot: an online viewport-piloting agent for 360-degree video.

Per frame, a recurrent selector scores N candidate objects and picks the
main one; a recurrent regressor refines the naive follow-the-object offset
into a smooth steering action. Training combines a supervised trajectory
loss with REINFORCE through the discrete selection. Synthetic scenes stand
in for a detector pipeline, and MO/MVD benchmarks compare the agent against
center-hold, score-greedy, selector-only, and offline-DP baselines.
"""

from .agent import AgentState, ModelDims, PilotModel, pilot_episode, pilot_step
from .errors import (
    ConfigError,
    InvalidInput,
    NumericsError,
    ParseError,
    PilotError,
    StateError,
    VersionError,
)
from .geometry import NFoV, ViewingAngle, nfov_iou
from .observation import (
    Episode,
    FrameObservation,
    SceneConfig,
    load_episodes,
    rank_slots,
    save_episodes,
    synth_scene,
)
from .training import TrainConfig, train
from .evaluation import (
    BenchmarkRow,
    benchmark,
    mean_overlap,
    mean_velocity_difference,
    offline_dp,
)

__version__ = "0.1.0"
