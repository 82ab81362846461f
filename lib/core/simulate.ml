open Tmedb_prelude
open Tmedb_channel
open Tmedb_tveg

type result = {
  trials : int;
  delivery_ratio : float;
  delivery_stddev : float;
  full_delivery_rate : float;
  mean_energy_spent : float;
  mean_completion_time : float option;
}

(* Telemetry: [simulate.trials] counts executed trials (bumped on the
   running domain, so the total is pool-size independent); the timer
   wraps the whole fan-out including the statistics pass. *)
let c_trials = Tmedb_obs.Counter.make "simulate.trials"
let c_runs = Tmedb_obs.Counter.make "simulate.runs"
let t_run = Tmedb_obs.Timer.make "simulate.run"
let h_trial_latency = Tmedb_obs.Histogram.make "simulate.trial_latency"

(* One trial is the Eq. 6 replay with each link's φ drawn once: a
   neighbour fails (factor 1) or receives (factor 0) by one Bernoulli
   draw, in the replay's neighbour order. *)
let one_trial ~rng ~eval_channel problem txs =
  Tmedb_obs.Counter.incr c_trials;
  (* Span (not just the counter) so pooled trials attribute to the
     submitting [simulate.run] in the profile at any --jobs. *)
  Tmedb_obs.Span.with_ "simulate.trial" @@ fun () ->
  let phy = problem.Problem.phy in
  let n = Tveg.n problem.Problem.graph in
  let informed_at = Array.make n Float.infinity in
  informed_at.(problem.Problem.source) <- Problem.span_start problem;
  let energy = ref 0. in
  let (_ : int list) =
    Feasibility.replay problem txs
      ~ready:(fun relay t -> informed_at.(relay) <= t)
      ~hear:(fun tx dist ->
        let ed = Ed_function.of_distance phy eval_channel ~dist in
        if Dist.bernoulli rng ~p:(Ed_function.success_prob ed ~w:tx.Schedule.cost) then 0.
        else 1.)
      ~receive:(fun node effective _ ->
        if effective < informed_at.(node) then informed_at.(node) <- effective)
      ~fire:(fun k -> energy := !energy +. txs.(k).Schedule.cost)
  in
  let informed =
    Array.fold_left (fun acc t -> if Float.is_finite t then acc + 1 else acc) 0 informed_at
  in
  let completion =
    if informed = n then Some (Array.fold_left Float.max 0. informed_at) else None
  in
  (* Simulated completion instant in milliseconds — a function of the
     trial's split RNG stream alone, so the distribution is identical
     at any pool size. *)
  (match completion with
  | Some t -> Tmedb_obs.Histogram.observe h_trial_latency (int_of_float (Float.round (t *. 1000.)))
  | None -> ());
  (float_of_int informed /. float_of_int n, !energy, completion)

let run ?(trials = 500) ?pool ~rng ~eval_channel problem schedule =
  if trials <= 0 then invalid_arg "Simulate.run: trials <= 0";
  Tmedb_obs.Counter.incr c_runs;
  let t0 = Tmedb_obs.Timer.start t_run in
  Fun.protect ~finally:(fun () -> Tmedb_obs.Timer.stop t_run t0) @@ fun () ->
  Tmedb_obs.Span.with_ "simulate.run" ~args:[ ("trials", string_of_int trials) ] @@ fun () ->
  (* Split the stream per trial up front: trial k's stream is a
     function of the incoming generator state and k alone, so the
     result is bit-identical at any pool size (including none). *)
  let rngs = Array.make trials rng in
  for k = 0 to trials - 1 do
    rngs.(k) <- Rng.split rng
  done;
  let txs = Array.of_list (Schedule.transmissions schedule) in
  let outcomes =
    (* Trials are sub-millisecond: chunk them so per-task queue traffic
       does not dominate. *)
    Pool.map_chunked pool (fun r -> one_trial ~rng:r ~eval_channel problem txs) rngs
  in
  let deliveries = Array.make trials 0. in
  let energies = Array.make trials 0. in
  let completions = ref [] in
  let full = ref 0 in
  for k = trials - 1 downto 0 do
    let delivery, energy, completion = outcomes.(k) in
    deliveries.(k) <- delivery;
    energies.(k) <- energy;
    match completion with
    | Some t ->
        incr full;
        completions := t :: !completions
    | None -> ()
  done;
  {
    trials;
    delivery_ratio = Stats.mean deliveries;
    delivery_stddev = Stats.stddev deliveries;
    full_delivery_rate = float_of_int !full /. float_of_int trials;
    mean_energy_spent = Stats.mean energies;
    mean_completion_time =
      (match !completions with
      | [] -> None
      | cs -> Some (Stats.mean (Array.of_list cs)));
  }
