"""Passive-safety workbench for a ground robot in a dynamic environment.

Design-time half: an explicit-state checker that explores every obstacle
behavior of a discrete grid model and verifies the robot never has speed
while an obstacle sits in the cell directly ahead.  Runtime half: a
continuous simulator with an assumption monitor that brakes the robot
when the environment breaks the speed bound it was verified against,
plus a sweep harness that maps collision counts over obstacle speeds and
reaction radii.

Every exported name resolves on first use (PEP 562), so importing the
package, or one half of it, loads only the submodules that half needs.
"""
from importlib import import_module

_EXPORTS = {
    "automata": ("ChoiceError ObstacleChoice TransitionLabel apply_action "
                 "enumerate_obstacle_choices free_side_lane lane_change_possible_at "
                 "robot_decide robot_step robot_step_at world_step"),
    "checker": ("ExplorationStats Outcome SafetyVerdict Trace check_safety replay_trace "
                "state_space_stats"),
    "kinematics": ("blocks_lane braking_distance_cells collision_danger collision_danger_at "
                   "danger_from is_passive_safe is_passive_safe_at stands_ahead"),
    "model": ("Assumptions GridScenario ObstacleSnapshot ObstacleSpec RobotMode RobotSnapshot "
              "ScenarioError TraceError WorldState initial_world_state load_scenario"),
    "monitor": "Feedback MonitorState Observation ObservationOrderError new_monitor observe observe_at",
    "sim": "CollisionEvent SimConfig SimOutcome SimState SimTrace load_sim_config simulate",
    "sweep": "SweepResult SweepSpec load_sweep_spec run_sweep sweep_result_to_csv",
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value
