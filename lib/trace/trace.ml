open Tmedb_prelude

type t = { n : int; span : Interval.t; contacts : Contact.t list }

let make ~n ~span contacts =
  if n <= 0 then invalid_arg "Trace.make: n <= 0";
  List.iter
    (fun c ->
      if c.Contact.b >= n then invalid_arg "Trace.make: contact node out of range";
      if not (Interval.contains span c.Contact.iv) then
        invalid_arg "Trace.make: contact outside the span")
    contacts;
  { n; span; contacts = List.sort Contact.compare_by_start contacts }

let n t = t.n
let span t = t.span
let contacts t = t.contacts
let num_contacts t = List.length t.contacts

let restrict t ~span:window =
  if not (Interval.contains t.span window) then invalid_arg "Trace.restrict: window not contained";
  let clip c =
    match Interval.inter c.Contact.iv window with
    | None -> None
    | Some iv -> Some (Contact.make ~a:c.Contact.a ~b:c.Contact.b ~iv ~dist:c.Contact.dist)
  in
  { t with span = window; contacts = List.filter_map clip t.contacts }

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "# tmedb-trace n=%d span=%.17g,%.17g\n" t.n t.span.Interval.lo
       t.span.Interval.hi);
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%.17g,%.17g,%.17g\n" c.Contact.a c.Contact.b c.Contact.iv.Interval.lo
           c.Contact.iv.Interval.hi c.Contact.dist))
    t.contacts;
  Buffer.contents buf

(* A line that opens with [# tmedb-trace] must parse as a whole
   header; read as a comment, it would let the contacts' extent replace
   the declared node count and span. *)
let parse_header lineno line =
  let fail msg = Error (Printf.sprintf "line %d: malformed trace header: %s" lineno msg) in
  match
    Scanf.sscanf line "# tmedb-trace n=%d span=%f,%f%n" (fun n lo hi used -> (n, lo, hi, used))
  with
  | _, _, _, used when used < String.length line ->
      fail (Printf.sprintf "trailing text %S" (String.sub line used (String.length line - used)))
  | n, _, _, _ when n <= 0 -> fail "n must be positive"
  | _, lo, hi, _ when not (Float.is_finite lo && Float.is_finite hi && lo < hi) ->
      fail "span must be finite with lo < hi"
  | n, lo, hi, _ -> Ok (lineno, n, Interval.make ~lo ~hi)
  | exception (Scanf.Scan_failure msg | Failure msg) -> fail msg
  | exception End_of_file -> fail "truncated"

let parse_line lineno line =
  try
    Scanf.sscanf line "%d,%d,%f,%f,%f" (fun a b lo hi dist ->
        Ok (Contact.make ~a ~b ~iv:(Interval.make ~lo ~hi) ~dist))
  with
  | Scanf.Scan_failure msg | Failure msg | Invalid_argument msg ->
      Error (Printf.sprintf "line %d: %s" lineno msg)
  | End_of_file -> Error (Printf.sprintf "line %d: truncated record" lineno)

(* The first contact, in file order, that the header does not admit. *)
let check_declared ~n ~span contacts =
  List.find_map
    (fun (lineno, c) ->
      if c.Contact.b >= n then
        Some (Printf.sprintf "line %d: contact node %d out of range for n=%d" lineno c.Contact.b n)
      else if not (Interval.contains span c.Contact.iv) then
        Some
          (Printf.sprintf "line %d: contact %s outside the declared span %s" lineno
             (Interval.to_string c.Contact.iv) (Interval.to_string span))
      else None)
    contacts

let of_csv text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno header acc = function
    | [] -> Ok (header, List.rev acc)
    | line :: rest ->
        let line = String.trim line in
        if line = "" then go (lineno + 1) header acc rest
        else if String.starts_with ~prefix:"# tmedb-trace" line then begin
          match header with
          | Some (first, _, _) ->
              Error
                (Printf.sprintf "line %d: repeated trace header (first on line %d)" lineno first)
          | None -> (
              match parse_header lineno line with
              | Ok h -> go (lineno + 1) (Some h) acc rest
              | Error e -> Error e)
        end
        else if line.[0] = '#' then go (lineno + 1) header acc rest
        else begin
          match parse_line lineno line with
          | Ok c -> go (lineno + 1) header ((lineno, c) :: acc) rest
          | Error e -> Error e
        end
  in
  match go 1 None [] lines with
  | Error e -> Error e
  | Ok (Some (_, n, span), numbered) -> (
      match check_declared ~n ~span numbered with
      | Some e -> Error e
      | None -> Ok (make ~n ~span (List.map snd numbered)))
  | Ok (None, numbered) ->
      let contacts = List.map snd numbered in
      let n = List.fold_left (fun acc c -> Stdlib.max acc (c.Contact.b + 1)) 1 contacts in
      let span =
        match contacts with
        | [] -> Interval.make ~lo:0. ~hi:1.
        | first :: rest ->
            List.fold_left (fun acc c -> Interval.hull acc c.Contact.iv) first.Contact.iv rest
      in
      Ok (make ~n ~span contacts)

let save t ~path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_csv t))

let load ~path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> of_csv (really_input_string ic (in_channel_length ic)))
  with Sys_error msg -> Error msg

type stats = {
  num_contacts : int;
  mean_duration : float;
  median_duration : float;
  mean_inter_contact : float;
  median_inter_contact : float;
  contacts_per_pair : float;
  pairs_with_contact : int;
  mean_degree : float;
}

let stats t =
  let durations = Array.of_list (List.map Contact.duration t.contacts) in
  (* Group contacts per pair to extract inter-contact gaps. *)
  let by_pair = Hashtbl.create 64 in
  List.iter
    (fun c ->
      let key = (c.Contact.a, c.Contact.b) in
      Hashtbl.replace by_pair key (c :: (Option.value ~default:[] (Hashtbl.find_opt by_pair key))))
    t.contacts;
  (* Accumulate inter-contact gaps in sorted (a, b) pair order: the
     gap list feeds float means whose summation order must not depend
     on hash-bucket layout (lint rule R1). *)
  let pairs_sorted =
    List.sort
      (fun (k1, _) (k2, _) -> compare (k1 : int * int) k2)
      (Hashtbl.fold (fun key cs acc -> (key, cs) :: acc) by_pair [])
  in
  let gaps = ref [] in
  List.iter
    (fun (_, cs) ->
      let sorted = List.sort Contact.compare_by_start cs in
      let rec walk = function
        | x :: (y :: _ as rest) ->
            let gap = y.Contact.iv.Interval.lo -. x.Contact.iv.Interval.hi in
            if gap > 0. then gaps := gap :: !gaps;
            walk rest
        | _ -> ()
      in
      walk sorted)
    pairs_sorted;
  let gaps = Array.of_list !gaps in
  let pairs = Hashtbl.length by_pair in
  (* Each pair's presence is the union of its contacts (all inside the
     span), summed in the same sorted pair order. *)
  let presence_total =
    List.fold_left
      (fun acc (_, cs) ->
        acc +. Interval_set.total_length (Interval_set.of_list (List.map (fun c -> c.Contact.iv) cs)))
      0. pairs_sorted
  in
  let safe_mean xs = if Array.length xs = 0 then 0. else Stats.mean xs in
  let safe_median xs = if Array.length xs = 0 then 0. else Stats.median xs in
  {
    num_contacts = List.length t.contacts;
    mean_duration = safe_mean durations;
    median_duration = safe_median durations;
    mean_inter_contact = safe_mean gaps;
    median_inter_contact = safe_median gaps;
    contacts_per_pair =
      (if pairs = 0 then 0. else float_of_int (List.length t.contacts) /. float_of_int pairs);
    pairs_with_contact = pairs;
    mean_degree = 2. *. presence_total /. (float_of_int t.n *. Interval.length t.span);
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "contacts=%d dur(mean=%g med=%g) gap(mean=%g med=%g) pairs=%d per-pair=%g degree=%g"
    s.num_contacts s.mean_duration s.median_duration s.mean_inter_contact s.median_inter_contact
    s.pairs_with_contact s.contacts_per_pair s.mean_degree

let pp ppf t =
  Format.fprintf ppf "trace{n=%d span=%a contacts=%d}" t.n Interval.pp t.span
    (List.length t.contacts)
