open Tmedb_prelude

(* Deterministic clustered scenarios for the N-scaling benchmarks.

   Topology per epoch: nodes are split into clusters of [cluster]
   consecutive ids; the first node of each cluster is its hub.  Hubs
   keep a cheap *near* contact to every cluster member (a star) and to
   the next cluster's hub (a ring bridge), so a broadcast can reach
   every node through short, low-cost hops.  Members additionally meet
   each other pairwise at *far* distances during jittered sub-windows
   of the epoch.

   The far meetings are the scaling load: they multiply DTS points and
   give every member block a deep discrete cost set, yet their d^alpha
   costs are orders of magnitude above the near backbone, so a
   shortest-path scan over the auxiliary graph never needs them.  A
   forced graph pays for all of them; a lazy one only for the frontier
   — which is what `bench nscale` measures. *)

type params = {
  cluster : int;
  epochs : int;
  epoch_len : float;
  near : float * float;
  far : float * float;
  seed : int;
}

let default_params =
  { cluster = 64; epochs = 2; epoch_len = 600.; near = (8., 16.); far = (240., 420.); seed = 7 }

let range rng (lo, hi) = lo +. Rng.float rng (hi -. lo)

let scenario ?(params = default_params) ~n () =
  if n < 2 then invalid_arg "Scale.scenario: n < 2";
  if params.cluster < 2 then invalid_arg "Scale.scenario: cluster < 2";
  if params.epochs < 1 then invalid_arg "Scale.scenario: epochs < 1";
  if params.epoch_len <= 0. then invalid_arg "Scale.scenario: epoch_len <= 0";
  let rng = Rng.create params.seed in
  let num_clusters = (n + params.cluster - 1) / params.cluster in
  let hub k = k * params.cluster in
  let cluster_hi k = Stdlib.min ((k + 1) * params.cluster) n in
  let contacts = ref [] in
  let add u v lo hi dist =
    if hi > lo then
      contacts := (u, v, { Tveg.iv = Interval.make ~lo ~hi; dist }) :: !contacts
  in
  for e = 0 to params.epochs - 1 do
    let e_lo = float_of_int e *. params.epoch_len in
    let e_hi = e_lo +. params.epoch_len in
    let jitter () = Rng.float rng (0.05 *. params.epoch_len) in
    for k = 0 to num_clusters - 1 do
      let h = hub k in
      let hi = cluster_hi k in
      (* Star: hub to each member, cheap, most of the epoch. *)
      for m = h + 1 to hi - 1 do
        add h m (e_lo +. jitter ()) (e_hi -. jitter ()) (range rng params.near)
      done;
      (* Ring bridge to the next cluster's hub. *)
      if k + 1 < num_clusters then
        add h (hub (k + 1)) (e_lo +. jitter ()) (e_hi -. jitter ()) (range rng params.near);
      (* Far member meetings: all pairs, jittered sub-windows. *)
      for u = h + 1 to hi - 1 do
        for v = u + 1 to hi - 1 do
          let start = e_lo +. Rng.float rng (0.5 *. params.epoch_len) in
          let dur = (0.25 +. Rng.float rng 0.35) *. params.epoch_len in
          add u v start (Float.min (start +. dur) e_hi) (range rng params.far)
        done
      done
    done
  done;
  let span = Interval.make ~lo:0. ~hi:(float_of_int params.epochs *. params.epoch_len) in
  Tveg.create ~n ~span ~tau:0. !contacts

let deadline ?(params = default_params) () = float_of_int params.epochs *. params.epoch_len
