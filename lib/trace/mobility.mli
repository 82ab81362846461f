(** Random-waypoint mobility → distance-annotated contact traces.

    An alternative to {!Synth} when geometric consistency matters (a
    node near two others has the two others near each other): nodes
    move between uniform waypoints in a square arena, and a contact is
    a maximal run of samples during which two nodes stay within the
    radio range.  The contact distance is the time-average over the
    run, which is what the Rayleigh β of the whole contact should
    reflect under the paper's "τ small, channel constant over a
    transmission" assumption. *)

open Tmedb_prelude

type params = {
  n : int;
  horizon : float;
  arena : float;  (** Side of the square arena, m. *)
  v_min : float;  (** Speeds, m/s. *)
  v_max : float;
  pause_max : float;  (** Uniform pause at each waypoint, s. *)
  range : float;  (** Radio range, m. *)
  sample_dt : float;  (** Position sampling period, s. *)
}

val default_params : params
(** 20 nodes, 17000 s, 300 m arena, 0.5–1.5 m/s (pedestrian),
    pauses up to 120 s, 50 m range, 5 s sampling. *)

val generate : Rng.t -> params -> Trace.t
(** Deterministic in the generator state.
    @raise Invalid_argument on fewer than 2 nodes, a horizon that is
    not positive and finite, or inconsistent arena, speed, pause, range
    or sampling parameters. *)

val positions_at : Rng.t -> params -> float -> (float * float) array
(** One draw of node positions at the given time (fresh trajectories;
    exposed for tests and visualisation). *)
