(** Deterministic clustered TVEG scenarios for the N-scaling
    benchmarks (`bench nscale`, docs/SCALING.md).

    Nodes form clusters of consecutive ids.  Each cluster's first node
    (its hub) holds cheap *near* contacts to every member and to the
    next cluster's hub — a low-cost backbone a broadcast can follow.
    Members additionally meet pairwise at *far* distances in jittered
    sub-windows: with cost ∝ d^α those meetings are orders of
    magnitude more expensive than the backbone, so they multiply DTS
    points and DCS levels (the forced auxiliary graph's O(N²L) load)
    while an energy-optimal scan never expands them — exactly the gap
    lazy expansion is built to exploit. *)

type params = {
  cluster : int;  (** Target cluster size (last cluster may be smaller). *)
  epochs : int;  (** Number of contact epochs. *)
  epoch_len : float;  (** Seconds per epoch. *)
  near : float * float;  (** Backbone distance range, metres. *)
  far : float * float;  (** Member-meeting distance range, metres. *)
  seed : int;  (** Rng seed; same params + n → identical graph. *)
}

val default_params : params
(** 64-node clusters, 2 epochs of 600 s, near 8–16 m, far 240–420 m,
    seed 7 (far costs stay inside the default {!Tmedb_channel.Phy}
    cost set: α = 2 puts w_max at a ≈2.5 km static hop). *)

val scenario : ?params:params -> n:int -> unit -> Tveg.t
(** The n-node graph (τ = 0, span [0, epochs·epoch_len]).
    Deterministic in (params, n); O(contacts) = O(epochs · n ·
    cluster).  @raise Invalid_argument on [n < 2], [cluster < 2],
    [epochs < 1] or a non-positive epoch length. *)

val deadline : ?params:params -> unit -> float
(** The span's upper bound — the natural broadcast deadline for
    {!scenario} instances. *)
