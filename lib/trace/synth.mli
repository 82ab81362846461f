(** Synthetic contact traces with Haggle-like statistics.

    The Haggle iMote experiments (Chaintreau et al. [12]) report
    heavy-tailed inter-contact times — approximately power-law over
    minutes-to-hours — and short exponential-like contact durations.
    Each node pair here runs an independent alternating renewal
    process: truncated-Pareto gaps, exponential contact durations,
    uniform contact distances, with per-node sociability factors adding
    the heterogeneity visible in the real traces.

    An optional density profile modulates contact arrival over absolute
    time (acceptance thinning), used to recreate the degree ramp-up of
    the paper's Fig. 7. *)

open Tmedb_prelude

type params = {
  n : int;
  horizon : float;  (** Span is [\[0, horizon\]]. *)
  gap_lo : float;  (** Truncated-Pareto inter-contact lower bound, s. *)
  gap_hi : float;  (** Upper bound, s. *)
  gap_alpha : float;  (** Pareto shape (Haggle fits ≈ 0.3–0.6). *)
  duration_mean : float;  (** Mean contact duration, s. *)
  dist_lo : float;  (** Contact distance range, m. *)
  dist_hi : float;
  sociability_spread : float;
      (** Per-node activity factor drawn uniformly from
          [1 − spread, 1 + spread]; 0 for homogeneous pairs. *)
  density_profile : (float -> float) option;
      (** Optional acceptance probability (values clamped to [0,1])
          applied to each candidate contact at its start time. *)
}

val default_params : params
(** 20 nodes over 17000 s (the paper's experiment length), gaps
    Pareto(120 s, 6000 s, α = 0.45), durations mean 180 s, distances
    uniform on [5 m, 60 m], spread 0.3, no profile. *)

val with_n : params -> int -> params
val generate : Rng.t -> params -> Trace.t
(** Deterministic in the generator state.
    @raise Invalid_argument on fewer than 2 nodes, a horizon that is
    not positive and finite, or inconsistent gap, duration, distance or
    sociability parameters. *)

val ramp_profile : t0:float -> t1:float -> low:float -> float -> float
(** Piecewise-linear density: [low] before [t0], rising linearly to 1
    at [t1], 1 afterwards — Fig. 7's regime when composed as
    [Some (ramp_profile ~t0:5000. ~t1:8000. ~low:0.25)]. *)
