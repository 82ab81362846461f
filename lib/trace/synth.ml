open Tmedb_prelude

type params = {
  n : int;
  horizon : float;
  gap_lo : float;
  gap_hi : float;
  gap_alpha : float;
  duration_mean : float;
  dist_lo : float;
  dist_hi : float;
  sociability_spread : float;
  density_profile : (float -> float) option;
}

let default_params =
  {
    n = 20;
    horizon = 17000.;
    gap_lo = 120.;
    gap_hi = 6000.;
    gap_alpha = 0.45;
    duration_mean = 180.;
    dist_lo = 5.;
    dist_hi = 60.;
    sociability_spread = 0.3;
    density_profile = None;
  }

let with_n p n = { p with n }

let ramp_profile ~t0 ~t1 ~low t =
  if t <= t0 then low
  else if t >= t1 then 1.
  else low +. ((1. -. low) *. (t -. t0) /. (t1 -. t0))

let validate p =
  if p.n < 2 then invalid_arg "Synth.generate: need n >= 2";
  if not (p.horizon > 0. && Float.is_finite p.horizon) then
    invalid_arg "Synth.generate: horizon not positive and finite";
  if not (0. < p.gap_lo && p.gap_lo < p.gap_hi) then invalid_arg "Synth.generate: bad gap bounds";
  if p.gap_alpha <= 0. then invalid_arg "Synth.generate: gap_alpha <= 0";
  if p.duration_mean <= 0. then invalid_arg "Synth.generate: duration_mean <= 0";
  if not (0. < p.dist_lo && p.dist_lo < p.dist_hi) then
    invalid_arg "Synth.generate: bad distance bounds";
  if p.sociability_spread < 0. || p.sociability_spread >= 1. then
    invalid_arg "Synth.generate: sociability_spread outside [0,1)"

(* One alternating renewal process for the pair (i, j).  The pair's
   sociability factor scales gap lengths down for social nodes. *)
let pair_process g p ~factor ~a ~b acc0 =
  let span_hi = p.horizon in
  let accept t =
    match p.density_profile with
    | None -> true
    | Some profile -> Dist.bernoulli g ~p:(Futil.clamp ~lo:0. ~hi:1. (profile t))
  in
  let rec step time acc =
    let gap = Dist.bounded_pareto g ~lo:p.gap_lo ~hi:p.gap_hi ~alpha:p.gap_alpha /. factor in
    let start = time +. gap in
    if start >= span_hi then acc
    else begin
      let duration = Float.max 1. (Dist.exponential g ~rate:(1. /. p.duration_mean)) in
      let stop = Float.min span_hi (start +. duration) in
      (* The initial phase may put a contact partly before t = 0: clip. *)
      let lo = Float.max 0. start in
      let acc =
        if stop > lo && accept lo then begin
          let dist = Dist.uniform g ~lo:p.dist_lo ~hi:p.dist_hi in
          Contact.make ~a ~b ~iv:(Interval.make ~lo ~hi:stop) ~dist :: acc
        end
        else acc
      in
      step stop acc
    end
  in
  (* A random initial phase avoids synchronised first contacts. *)
  step (-.Dist.uniform g ~lo:0. ~hi:p.gap_hi) acc0

let generate g p =
  validate p;
  let sociability =
    Array.init p.n (fun _ ->
        1. +. Dist.uniform g ~lo:(-.p.sociability_spread) ~hi:p.sociability_spread)
  in
  let contacts = ref [] in
  for a = 0 to p.n - 2 do
    for b = a + 1 to p.n - 1 do
      let factor = sociability.(a) *. sociability.(b) in
      contacts := pair_process g p ~factor ~a ~b !contacts
    done
  done;
  Trace.make ~n:p.n ~span:(Interval.make ~lo:0. ~hi:p.horizon) !contacts
