(* Clocks, allocation reads, order statistics and metric records shared
   by every workload, plus the per-layer accumulator the traced pass
   fills from outside the library. *)

open Tmedb_prelude

external maxrss_self_kb : unit -> int = "benchsuite_maxrss_self_kb"

external wait4 : int -> int * int = "benchsuite_wait4"
(** Wait for a child: its exit code (minus the signal that ended it)
    and its peak resident set in KiB. *)

external nproc : unit -> int = "benchsuite_nproc"

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Words the calling domain has allocated so far: minor allocations
   plus direct major ones (promotions are not new allocation). *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> Float.nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles xs ~n:4] (the default "exclusive"
   method), so spreads read the same here and in the acceptance
   check; [None] below two samples. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld < 2 then None
  else begin
    let m = ld + 1 in
    let q i =
      let j = Stdlib.max 1 (Stdlib.min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    Some (q 1, q 2, q 3)
  end

(* Interquartile distance as a share of the median. *)
let spread xs =
  match quartiles xs with
  | Some (q1, q2, q3) when q2 > 0. -> Some ((q3 -. q1) /. q2)
  | Some _ | None -> None

let geomean xs =
  let pos = List.filter (fun x -> x > 0.) xs in
  match pos with
  | [] -> Float.nan
  | _ ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0. pos /. float_of_int (List.length pos))

let mean xs =
  match xs with
  | [] -> Float.nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* One reported metric.  [value = None] means the metric does not
   apply to the workload (emitted as JSON null in the suite document);
   [samples] counts the observations behind it, [spread] is their
   interquartile distance over the median when known. *)
type metric = {
  name : string;
  unit_ : string;
  value : float option;
  samples : int;
  spread : float option;
}

let metric ?(samples = 1) ?spread name unit_ value = { name; unit_; value; samples; spread }

let num_or_null = function Some v when Float.is_finite v -> Json.Num v | _ -> Json.Null

let metric_json m =
  Json.Obj
    [
      ("value", num_or_null m.value);
      ("unit", Json.Str m.unit_);
      ("samples", Json.Num (float_of_int m.samples));
      ("spread", num_or_null m.spread);
    ]

(* Per-layer accumulation for the traced pass: every staged public call
   adds its wall time (and, when asked, its allocated words) under a
   metric name. *)
module Layers = struct
  let table : (string, float ref) Hashtbl.t = Hashtbl.create 64

  let add key v =
    match Hashtbl.find_opt table key with
    | Some r -> r := !r +. v
    | None -> Hashtbl.replace table key (ref v)

  let get key = match Hashtbl.find_opt table key with Some r -> !r | None -> 0.
  let mem key = Hashtbl.mem table key
  let clear () = Hashtbl.reset table

  (* Seconds spent inside timed layer calls, all layers together. *)
  let booked = "staged.booked_s"

  let add_time key dt =
    add key dt;
    add booked dt

  (* Time one staged call under [key]; [alloc] also books the words it
     allocated (in millions) under that name. *)
  let step ?alloc key f =
    let w0 = match alloc with Some _ -> alloc_words () | None -> 0. in
    let r, dt = timed f in
    add_time key dt;
    Option.iter (fun a -> add a ((alloc_words () -. w0) /. 1e6)) alloc;
    r

  (* Successor generation from outside a [Digraph.view]: each
     [iter_succ] first collects the successors into a reused buffer
     under the clock (that is the generator's own work), then replays
     them to the caller's callback off the clock, in the same order, so
     the traversal is unchanged. *)
  type gen = { mutable secs : float; mutable words : float }

  type buf = { mutable dst : int array; mutable w : float array; mutable len : int }

  let wrap_view gen (vw : Tmedb_steiner.Digraph.view) =
    let bufs = ref [||] and depth = ref 0 in
    let push b v w =
      if b.len = Array.length b.dst then begin
        b.dst <- Array.append b.dst (Array.make b.len 0);
        b.w <- Array.append b.w (Array.make b.len 0.)
      end;
      b.dst.(b.len) <- v;
      b.w.(b.len) <- w;
      b.len <- b.len + 1
    in
    let iter_succ u f =
      if !depth = Array.length !bufs then begin
        let b = { dst = Array.make 16 0; w = Array.make 16 0.; len = 0 } in
        bufs := Array.append !bufs [| (b, push b) |]
      end;
      let b, collect = !bufs.(!depth) in
      b.len <- 0;
      let w0 = Gc.minor_words () in
      let t0 = now () in
      vw.Tmedb_steiner.Digraph.iter_succ u collect;
      gen.secs <- gen.secs +. (now () -. t0);
      gen.words <- gen.words +. (Gc.minor_words () -. w0);
      incr depth;
      for k = 0 to b.len - 1 do
        f b.dst.(k) b.w.(k)
      done;
      decr depth
    in
    { vw with Tmedb_steiner.Digraph.iter_succ }
end
