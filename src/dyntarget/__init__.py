"""Energy-aware dynamic targeting: simulator, planners, and benchmarks.

A small satellite flies over a strip of classified ground pixels and
must decide, step by step, whether to spend battery on a sample.  This
package provides the synthetic worlds, the simulator, a family of
policies from coin-flip to exact dynamic programming, two learned
policies trained against the exact planner, and a benchmark harness
that compares them all.
"""
from .world import (
    EnvStrip,
    GenParams,
    RewardClass,
    RewardModel,
    class_fractions,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from .sim import (
    Action,
    EnergyModel,
    EpisodeLog,
    Observation,
    Placement,
    SatState,
    SensorGeometry,
    best_target,
    observe,
    run_episode,
    soc_transition,
    step,
)
from .heuristics import (
    Policy,
    ThresholdRule,
    greedy_lateral,
    greedy_nadir,
    greedy_radar,
    greedy_window,
    random_policy,
)
from .dp import (
    DPTable,
    brute_force_optimal,
    build_dp_table,
    dp_policy,
    expert_action,
    load_dp_table,
    save_dp_table,
)
from .qlearn import (
    QLearnParams,
    QState,
    QTable,
    featurize_q,
    load_qtable,
    q_policy,
    q_state_from_index,
    q_state_index,
    save_qtable,
    train_dp_sweep,
)
from .cloning import (
    DemoSet,
    MLPModel,
    TrainParams,
    balance_dataset,
    bc_policy,
    collect_demonstrations,
    expert_agreement,
    featurize_bc,
    init_mlp,
    load_model,
    merge_demos,
    mlp_forward,
    mlp_grad,
    save_model,
    take_demos,
    train_bc,
)
from .bench import (
    BenchConfig,
    BenchReport,
    DatasetSpec,
    LatencyStats,
    emit_report,
    load_config,
    measure_latency,
    run_benchmark,
    training_curve,
)

__version__ = "0.1.0"
