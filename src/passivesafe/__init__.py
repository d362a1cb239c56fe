"""Passive-safety workbench for a ground robot in a dynamic environment.

Design-time half: an explicit-state checker that explores every obstacle
behavior of a discrete grid model and verifies the robot never has speed
while an obstacle sits in the cell directly ahead.  Runtime half: a
continuous simulator with an assumption monitor that brakes the robot
when the environment breaks the speed bound it was verified against,
plus a sweep harness that maps collision counts over obstacle speeds and
reaction radii.
"""
from .automata import (
    ChoiceError,
    ObstacleChoice,
    TransitionLabel,
    enumerate_obstacle_choices,
    lane_change_possible,
    robot_step,
    world_step,
)
from .checker import (
    ExplorationStats,
    Outcome,
    SafetyVerdict,
    Trace,
    TraceError,
    check_safety,
    random_rollout,
    replay_trace,
    state_space_stats,
)
from .kinematics import (
    CollisionDistance,
    braking_distance_cells,
    collision_danger,
    collision_distance_meters,
    is_passive_safe,
    obstacle_driving_distance_cells,
    ticks_to_stop,
)
from .model import (
    Assumptions,
    GridScenario,
    InvariantViolation,
    ObstacleSnapshot,
    ObstacleSpec,
    RobotMode,
    RobotSnapshot,
    ScenarioError,
    WorldState,
    initial_world_state,
    load_scenario,
    serialize_scenario,
    validate_world,
)
from .monitor import (
    Feedback,
    MonitorState,
    Observation,
    ObservationOrderError,
    estimate_obstacle_velocity,
    new_monitor,
    observe,
    observe_at,
)
from .sim import (
    CollisionEvent,
    SimConfig,
    SimOutcome,
    SimState,
    SimTrace,
    load_sim_config,
    simulate,
)
from .sweep import SweepResult, SweepSpec, load_sweep_spec, run_sweep, sweep_result_to_csv

__version__ = "0.1.0"
