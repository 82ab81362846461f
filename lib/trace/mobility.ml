open Tmedb_prelude

type params = {
  n : int;
  horizon : float;
  arena : float;
  v_min : float;
  v_max : float;
  pause_max : float;
  range : float;
  sample_dt : float;
}

let default_params =
  {
    n = 20;
    horizon = 17000.;
    arena = 300.;
    v_min = 0.5;
    v_max = 1.5;
    pause_max = 120.;
    range = 50.;
    sample_dt = 5.;
  }

let validate p =
  if p.n < 2 then invalid_arg "Mobility.generate: need n >= 2";
  if not (p.horizon > 0. && Float.is_finite p.horizon) || p.arena <= 0. then
    invalid_arg "Mobility.generate: bad horizon/arena";
  if not (0. < p.v_min && p.v_min <= p.v_max) then invalid_arg "Mobility.generate: bad speeds";
  if p.pause_max < 0. then invalid_arg "Mobility.generate: negative pause";
  if p.range <= 0. || p.range >= p.arena then invalid_arg "Mobility.generate: bad range";
  if not (p.sample_dt > 0.) then invalid_arg "Mobility.generate: bad sample_dt";
  let worst = (Float.ceil (p.horizon /. p.sample_dt) +. 1.) *. float_of_int p.n in
  if worst > float_of_int Trace.generation_ceiling then
    invalid_arg
      (Printf.sprintf
         "Mobility.generate: %.3g position samples (horizon %g, sample_dt %g, %d nodes), above the ceiling of %d"
         worst p.horizon p.sample_dt p.n Trace.generation_ceiling)

(* A trajectory is a list of segments (t0, t1, (x0,y0), (x1,y1)); a
   pause is a segment with equal endpoints. *)
type segment = { t0 : float; t1 : float; x0 : float; y0 : float; x1 : float; y1 : float }

let trajectory g p =
  let rec extend t x y acc =
    if t >= p.horizon then List.rev acc
    else begin
      let tx = Dist.uniform g ~lo:0. ~hi:p.arena in
      let ty = Dist.uniform g ~lo:0. ~hi:p.arena in
      let speed = Dist.uniform g ~lo:p.v_min ~hi:p.v_max in
      let dist = Float.hypot (tx -. x) (ty -. y) in
      let travel = dist /. speed in
      let t_arrive = t +. travel in
      let move = { t0 = t; t1 = t_arrive; x0 = x; y0 = y; x1 = tx; y1 = ty } in
      let pause = if p.pause_max > 0. then Dist.uniform g ~lo:0. ~hi:p.pause_max else 0. in
      let rest = { t0 = t_arrive; t1 = t_arrive +. pause; x0 = tx; y0 = ty; x1 = tx; y1 = ty } in
      extend rest.t1 tx ty (rest :: move :: acc)
    end
  in
  let x = Dist.uniform g ~lo:0. ~hi:p.arena in
  let y = Dist.uniform g ~lo:0. ~hi:p.arena in
  extend 0. x y []

let position segments t =
  let rec find = function
    | [] -> None
    | s :: rest ->
        if t < s.t0 then None
        else if t <= s.t1 then begin
          let f = if s.t1 > s.t0 then (t -. s.t0) /. (s.t1 -. s.t0) else 0. in
          Some (s.x0 +. (f *. (s.x1 -. s.x0)), s.y0 +. (f *. (s.y1 -. s.y0)))
        end
        else find rest
    in
  find segments

(* Sample times only grow, so a segment that ends before one sample
   time ends before every later one: each node keeps the rest of its
   list from the first segment not yet ended, and [position] on that
   rest finds the segment it would find on the whole list.  The work is
   linear in samples plus segments, not their product. *)
let sample_positions g p =
  let steps = int_of_float (Float.ceil (p.horizon /. p.sample_dt)) + 1 in
  let trajectories = Array.init p.n (fun _ -> trajectory g p) in
  (* Past the last waypoint a node stays there. *)
  let last =
    Array.map
      (fun segs -> match List.rev segs with [] -> (0., 0.) | s :: _ -> (s.x1, s.y1))
      trajectories
  in
  let rest = Array.copy trajectories in
  Array.init steps (fun k ->
      let t = Float.min p.horizon (float_of_int k *. p.sample_dt) in
      Array.init p.n (fun i ->
          let rec drop = function s :: tl when t > s.t1 -> drop tl | segs -> segs in
          rest.(i) <- drop rest.(i);
          match position rest.(i) t with Some xy -> xy | None -> last.(i)))

let positions_at g p t =
  let trajectories = Array.init p.n (fun _ -> trajectory g p) in
  Array.map
    (fun segs ->
      match position segs t with
      | Some xy -> xy
      | None -> ( match List.rev segs with [] -> (0., 0.) | last :: _ -> (last.x1, last.y1)))
    trajectories

let generate g p =
  validate p;
  let samples = sample_positions g p in
  let steps = Array.length samples in
  let contacts = ref [] in
  let distance k a b =
    let xa, ya = samples.(k).(a) and xb, yb = samples.(k).(b) in
    Float.hypot (xa -. xb) (ya -. yb)
  in
  for a = 0 to p.n - 2 do
    for b = a + 1 to p.n - 1 do
      (* Maximal runs of samples with distance < range. *)
      let run_start = ref None in
      let dist_sum = ref 0. in
      let dist_count = ref 0 in
      let flush k =
        match !run_start with
        | None -> ()
        | Some s ->
            let lo = float_of_int s *. p.sample_dt in
            let hi = Float.min p.horizon (float_of_int k *. p.sample_dt) in
            if hi > lo then begin
              let mean_dist = Float.max 1. (!dist_sum /. float_of_int !dist_count) in
              contacts :=
                Contact.make ~a ~b ~iv:(Interval.make ~lo ~hi) ~dist:mean_dist :: !contacts
            end;
            run_start := None;
            dist_sum := 0.;
            dist_count := 0
      in
      for k = 0 to steps - 1 do
        let d = distance k a b in
        if d < p.range then begin
          if !run_start = None then run_start := Some k;
          dist_sum := !dist_sum +. d;
          incr dist_count
        end
        else flush k
      done;
      flush steps
    done
  done;
  Trace.make ~n:p.n ~span:(Interval.make ~lo:0. ~hi:p.horizon) !contacts
