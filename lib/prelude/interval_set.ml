(* Canonical form: a sorted array of pairwise disjoint, non-touching,
   non-empty intervals.  Uniqueness of the form is what makes [equal]
   structural and what lets point queries binary-search: for any
   instant there is at most one candidate member (the rightmost whose
   [lo] is <= the instant).  [inter] is a linear merge of two sorted
   arrays; [mem] is O(log n). *)
type t = Interval.t array

let arr_of_rev_list rev =
  let n = List.length rev in
  match rev with
  | [] -> [||]
  | hd :: _ ->
      let arr = Array.make n hd in
      let rec fill i = function
        | [] -> ()
        | iv :: tl ->
            arr.(i) <- iv;
            fill (i - 1) tl
      in
      fill (n - 1) rev;
      arr

let of_list ivs =
  let sorted = List.sort Interval.compare ivs in
  let rec merge acc current rest =
    match rest with
    | [] -> arr_of_rev_list (current :: acc)
    | iv :: tl ->
        if Interval.touches current iv then merge acc (Interval.hull current iv) tl
        else merge (current :: acc) iv tl
  in
  match sorted with [] -> [||] | hd :: tl -> merge [] hd tl

let intervals s = Array.to_list s

(* The rightmost member with [lo <= x] is the only possible cover of
   [x]. *)
let mem s x =
  let n = Array.length s in
  if n = 0 || x < s.(0).Interval.lo then false
  else begin
    (* Invariant: s.(lo).lo <= x, s.(hi).lo > x (hi may be n). *)
    let lo = ref 0 and hi = ref n in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if s.(mid).Interval.lo <= x then lo := mid else hi := mid
    done;
    x < s.(!lo).Interval.hi
  end

(* Sweep both arrays; every overlap is emitted.  Pieces inherit the
   gaps of their parents, so the output is canonical as built. *)
let inter a b =
  let na = Array.length a and nb = Array.length b in
  let acc = ref [] and i = ref 0 and j = ref 0 in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    (match Interval.inter x y with
    | Some iv -> acc := iv :: !acc
    | None -> ());
    match Float.compare x.Interval.hi y.Interval.hi with
    | c when c < 0 -> incr i
    | c when c > 0 -> incr j
    | _ ->
        incr i;
        incr j
  done;
  arr_of_rev_list !acc

let total_length s = Array.fold_left (fun acc iv -> acc +. Interval.length iv) 0. s
let cardinal = Array.length
let iter f s = Array.iter f s

let equal a b =
  Array.length a = Array.length b
  && begin
       let ok = ref true in
       Array.iteri (fun k iv -> if not (Interval.equal iv b.(k)) then ok := false) a;
       !ok
     end

let pp ppf s =
  Format.fprintf ppf "{%a}" (Format.pp_print_list Interval.pp) (Array.to_list s)
