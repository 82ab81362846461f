open Tmedb_prelude

type options = {
  max_iter : int;
  grad_tol : float;
  step_init : float;
  step_shrink : float;
  armijo : float;
  bb : bool;
}

let default_options =
  {
    max_iter = 500;
    grad_tol = 1e-9;
    step_init = 1.;
    step_shrink = 0.5;
    armijo = 1e-4;
    bb = false;
  }

type result = { x : float array; f : float; iterations : int; converged : bool }

(* Telemetry: inner-solver invocations, total descent iterations, and
   the wall time of every minimize call. *)
let c_iterations = Tmedb_obs.Counter.make "nlp.projgrad_iterations"
let t_minimize = Tmedb_obs.Timer.make "nlp.projgrad"

let project ~lower ~upper x =
  Array.mapi (fun i xi -> Futil.clamp ~lo:lower.(i) ~hi:upper.(i) xi) x

(* The per-coordinate loops below write [Futil.clamp]'s expression
   inline: a call across the module boundary, compiled without
   cross-module inlining, boxes its three floats on every try. *)

(* Barzilai–Borwein window: the nonmonotone line search references the
   worst of the last few accepted objective values, which lets the
   long BB steps through where a monotone Armijo search would shrink
   them back to baby steps. *)
let bb_history = 5
let bb_step_min = 1e-10
let bb_step_max = 1e10

let minimize ?(options = default_options) ~f ?grad ~lower ~upper ~x0 () =
  let tm = Tmedb_obs.Timer.start t_minimize in
  let n = Array.length x0 in
  if Array.length lower <> n || Array.length upper <> n then
    invalid_arg "Projgrad.minimize: dimension mismatch";
  Array.iteri
    (fun i lo -> if lo > upper.(i) then invalid_arg "Projgrad.minimize: empty box")
    lower;
  let grad =
    match grad with Some g -> g | None -> Numdiff.gradient (f ~bound:Float.infinity)
  in
  let x = ref (project ~lower ~upper x0) in
  let fx = ref (f ~bound:Float.infinity !x) in
  let iterations = ref 0 in
  let converged = ref false in
  (* BB state: the previous accepted iterate/gradient, and the recent
     accepted objective values (newest first).  Untouched — and without
     effect on any float computed — unless [options.bb] is set. *)
  let prev = ref None in
  let recent_f = ref [ !fx ] in
  while (not !converged) && !iterations < options.max_iter do
    incr iterations;
    let xk = !x in
    let g = grad xk in
    (* Projected-gradient stationarity measure: the norm of the step to
       the projection of a unit gradient move. *)
    let pg_sq = ref 0. in
    for i = 0 to n - 1 do
      let pg = xk.(i) -. Float.max lower.(i) (Float.min upper.(i) (xk.(i) -. g.(i))) in
      pg_sq := !pg_sq +. (pg *. pg)
    done;
    if sqrt !pg_sq <= options.grad_tol then converged := true
    else begin
      (* BB1 spectral step (s·s)/(s·y) seeds the backtracking when
         enabled; the plain Armijo search keeps [step_init]. *)
      let step0 =
        if not options.bb then options.step_init
        else begin
          match !prev with
          | None -> options.step_init
          | Some (px, pgrad) ->
              let sts = ref 0. and sty = ref 0. in
              for i = 0 to n - 1 do
                let s = xk.(i) -. px.(i) in
                sts := !sts +. (s *. s);
                sty := !sty +. (s *. (g.(i) -. pgrad.(i)))
              done;
              if !sty > 0. && !sts > 0. then
                Futil.clamp ~lo:bb_step_min ~hi:bb_step_max (!sts /. !sty)
              else options.step_init
        end
      in
      (* Acceptance reference: with BB, the max of the recent accepted
         values (nonmonotone); otherwise the current value, which makes
         the test below exactly the classic monotone Armijo check. *)
      let f_ref =
        if not options.bb then !fx
        else List.fold_left Float.max !fx !recent_f
      in
      (* Backtracking along the projected-descent arc.  Every try
         rewrites the one candidate buffer and sums the Armijo decrease
         in the same index loop.  The acceptance limit is known before
         the objective runs, so the objective gets it as [bound]: a
         trial that cannot pass may stop evaluating early, and any
         value above [min limit f_ref] is rejected below either way. *)
      let cand = Array.make n 0. in
      let rec backtrack step tries =
        if tries = 0 then None
        else begin
          let decrease = ref 0. in
          for i = 0 to n - 1 do
            let ci = Float.max lower.(i) (Float.min upper.(i) (xk.(i) -. (step *. g.(i)))) in
            cand.(i) <- ci;
            decrease := !decrease +. (g.(i) *. (xk.(i) -. ci))
          done;
          let limit = f_ref -. (options.armijo *. !decrease) in
          let fc = f ~bound:(Float.min limit f_ref) cand in
          if fc <= limit && fc < f_ref then Some fc
          else backtrack (step *. options.step_shrink) (tries - 1)
        end
      in
      match backtrack step0 60 with
      | Some fc ->
          if options.bb then begin
            prev := Some (xk, g);
            recent_f := fc :: List.filteri (fun i _ -> i < bb_history - 1) !recent_f
          end;
          x := cand;
          fx := fc
      | None -> converged := true (* no descent available: local stationarity *)
    end
  done;
  Tmedb_obs.Counter.add c_iterations !iterations;
  Tmedb_obs.Timer.stop t_minimize tm;
  { x = !x; f = !fx; iterations = !iterations; converged = !converged }
