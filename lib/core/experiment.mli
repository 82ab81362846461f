(** Experiment drivers regenerating every figure of the paper's
    Section VII.  Used by [bench/main.exe], the CLI and the examples.

    Each figure function returns labelled series of (x, y) points and
    is deterministic in the configuration seed. *)

open Tmedb_prelude
open Tmedb_trace

type algorithm = Planner.t
(** An algorithm is a registered {!Planner.t}; the historical variant
    type is gone.  Compare algorithms by {!algorithm_name} (the value
    carries closures, so structural equality is unavailable). *)

val all_algorithms : algorithm list
(** {!Registry.paper}: the six algorithms of the paper's evaluation,
    in figure order. *)

val algorithm_name : algorithm -> string
(** Display name as used in the paper's legends, e.g. ["FR-EEDCB"]. *)

val algorithm_of_string : string -> (algorithm, string) result
(** {!Registry.find}: inverse of {!algorithm_name}, case-insensitive,
    ['_'] and ['-'] interchangeable; [Error] lists the known names.
    Resolves {!Registry.extras} too, not just the paper six. *)

val is_fading : algorithm -> bool
(** FR variants design for the Rayleigh channel. *)

type config = {
  seed : int;
  n : int;
  horizon : float;
  deadline : float;
  sources : int;  (** Random source draws averaged per data point. *)
  mc_trials : int;  (** Monte-Carlo trials for delivery ratios. *)
  steiner_level : int;  (** Recursive-greedy level for (FR-)EEDCB. *)
  dts_cap : int;  (** Per-node DTS point cap. *)
}

val default_config : config
(** Paper defaults: 20 nodes, 17000 s horizon, 2000 s deadline, seed
    42, 3 sources, 300 trials, level 2, DTS cap 1500. *)

val make_trace : ?density_profile:(float -> float) -> config -> n:int -> Trace.t
(** The Haggle-like synthetic trace of the given size (see
    {!Tmedb_trace.Synth}), seeded from the configuration. *)

val make_problem :
  config -> trace:Trace.t -> channel:Tmedb_tveg.Tveg.channel -> source:int -> deadline:float ->
  Problem.t
(** τ = 0 instance over the trace with the paper's default PHY. *)

val choose_sources : config -> trace:Trace.t -> deadline:float -> int list
(** [config.sources] distinct random sources, preferring ones from
    which the broadcast is completable by the deadline. *)

type run_result = {
  algorithm : algorithm;
  energy : float;  (** Normalised scheduled energy Σw / (noise·γ_th). *)
  feasible : bool;
  analytic_delivery : float;
  schedule : Schedule.t;
  unreached : int list;
}

val run_alg :
  ?warm:Planner.Warm.t ->
  config -> trace:Trace.t -> source:int -> deadline:float -> rng:Rng.t -> algorithm -> run_result
(** Builds the per-algorithm instance (static design channel for
    EEDCB/GREED/RAND, Rayleigh for the FR variants) and runs it.
    [?warm] is threaded into the planning context: FR planners then
    warm-start their energy allocation from the store's previous
    contents and write the new allocation back (see {!Planner.Warm});
    all other planners ignore it. *)

val point_rng : seed:int -> k:int -> algorithm -> Rng.t
(** The canonical per-(point, algorithm) RNG split of every sweep: a
    fresh stream seeded from [(seed, point index k, algorithm name)]
    alone.  Because the stream depends on no shared mutable state,
    fanning points out over a pool is bit-identical to the sequential
    sweep at any worker count.  Used by the figure chains, Fig. 6 and
    {!Pareto.sweep}. *)

(** {1 Figures} *)

type series = { label : string; points : (float * float) list }

(** Each figure function takes an optional [pool].  Figs. 4, 5 and 7
    fan out one task per (series, source) pair; each task is a serial
    chain over the figure's x-axis (deadlines or windows, ascending)
    sharing a {!Planner.Warm} store, so adjacent points warm-start the
    FR energy allocation.  Fig. 6 keeps its per-(size, algorithm,
    source) tasks (its digests are golden-pinned and every point is a
    fresh instance).  Results are bit-identical at any worker count —
    every task seeds or splits its own RNG stream up front — so a
    parallel sweep reproduces the sequential figures exactly. *)

val fig4 :
  ?config:config -> ?pool:Pool.t -> variant:[ `Static | `Fading ] -> deadlines:float list ->
  ns:int list -> unit -> series list
(** Fig. 4: normalised energy vs delay constraint for (FR-)EEDCB, one
    series per network size. *)

val fig5 :
  ?config:config -> ?pool:Pool.t -> variant:[ `Static | `Fading ] -> deadlines:float list ->
  unit -> series list
(** Fig. 5: energy vs delay constraint for the three (FR-)algorithms. *)

val fig6 : ?config:config -> ?pool:Pool.t -> ns:int list -> unit -> series list * series list
(** Fig. 6: (a) energy and (b) Monte-Carlo Rayleigh delivery ratio vs
    network size, for all six algorithms. *)

val fig7 :
  ?config:config -> ?pool:Pool.t -> variant:[ `Static | `Fading ] -> unit ->
  series list * series
(** Fig. 7: per-500 s-window energy for the three (FR-)algorithms over
    [5000 s, 15000 s] on a density-ramp trace, plus the average node
    degree series. *)

val print_series : title:string -> xlabel:string -> series list -> unit
(** Aligned text table on stdout, one column per series. *)
