open Tmedb_prelude

type t = { n : int; span : Interval.t; contacts : Contact.t list }

let generation_ceiling = 10_000_000

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

(* A contact line is exactly five comma-separated fields: the two node
   ids, optionally signed decimal integers, then start, end and
   distance, optionally signed decimal numbers (digits, an optional
   fraction, an optional exponent).  That is every line [to_csv]
   writes with [%d] and [%.17g]; anything else — another field,
   trailing text, blanks, digit separators, hexadecimal, [inf] or
   [nan] — is an error naming the line and the field. *)
let field_names = [ "a"; "b"; "start"; "end"; "dist" ]

exception Bad_field of int * string

(* Whether [s.[lo, hi)] is an optionally signed run of decimal digits,
   or, unless [int], an optionally signed decimal number: digits with
   an optional fraction (at least one digit in all) and an optional
   exponent. *)
let is_decimal ~int s lo hi =
  let i = ref lo in
  let skip_sign () = if !i < hi && (s.[!i] = '+' || s.[!i] = '-') then incr i in
  let digits () =
    let from = !i in
    while !i < hi && '0' <= s.[!i] && s.[!i] <= '9' do
      incr i
    done;
    !i > from
  in
  skip_sign ();
  let whole = digits () in
  let fraction =
    (not int) && !i < hi && s.[!i] = '.'
    && begin
         incr i;
         digits ()
       end
  in
  let exponent =
    if (not int) && !i < hi && (s.[!i] = 'e' || s.[!i] = 'E') then begin
      incr i;
      skip_sign ();
      digits ()
    end
    else true
  in
  (whole || fraction) && exponent && !i = hi

let parse_line lineno line =
  let len = String.length line in
  (* Field k spans [starts.(k), stops.(k)). *)
  let starts = Array.make 5 0 and stops = Array.make 5 len in
  let rec split k from =
    match String.index_from_opt line from ',' with
    | None when k = 4 -> ()
    | None ->
        raise (Bad_field (k + 1, "missing: a contact line has the 5 fields a,b,start,end,dist"))
    | Some _ when k = 4 ->
        raise (Bad_field (5, "unexpected: a contact line has the 5 fields a,b,start,end,dist"))
    | Some c ->
        stops.(k) <- c;
        starts.(k + 1) <- c + 1;
        split (k + 1) (c + 1)
  in
  let text k = String.sub line starts.(k) (stops.(k) - starts.(k)) in
  let node k =
    if not (is_decimal ~int:true line starts.(k) stops.(k)) then
      raise (Bad_field (k, Printf.sprintf "%S is not a decimal integer" (text k)));
    match int_of_string_opt (text k) with
    | Some v -> v
    | None -> raise (Bad_field (k, Printf.sprintf "%S is out of range" (text k)))
  in
  let number k =
    if not (is_decimal ~int:false line starts.(k) stops.(k)) then
      raise (Bad_field (k, Printf.sprintf "%S is not a decimal number" (text k)));
    float_of_string (text k)
  in
  match
    split 0 0;
    let a = node 0 in
    let b = node 1 in
    let lo = number 2 in
    let hi = number 3 in
    let dist = number 4 in
    Contact.make ~a ~b ~iv:(Interval.make ~lo ~hi) ~dist
  with
  | c -> Ok c
  | exception Bad_field (k, msg) ->
      let name = match List.nth_opt field_names k with Some f -> " (" ^ f ^ ")" | None -> "" in
      Error (Printf.sprintf "line %d: field %d%s: %s" lineno (k + 1) name msg)
  | exception Invalid_argument msg -> Error (Printf.sprintf "line %d: %s" lineno msg)

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
