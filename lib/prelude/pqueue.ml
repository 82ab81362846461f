(* Parallel unboxed storage: entry i is (prio.(i), value.(i)).  Pushing
   and popping allocate nothing except when the arrays double. *)
type t = { mutable prio : float array; mutable value : int array; mutable size : int }

let create () = { prio = Array.make 16 0.; value = Array.make 16 0; size = 0 }

let length q = q.size
let is_empty q = q.size = 0

let grow q =
  let cap = Array.length q.prio in
  if q.size = cap then begin
    let ncap = 2 * cap in
    let nprio = Array.make ncap 0. and nvalue = Array.make ncap 0 in
    Array.blit q.prio 0 nprio 0 q.size;
    Array.blit q.value 0 nvalue 0 q.size;
    q.prio <- nprio;
    q.value <- nvalue
  end

(* Both sifts move a hole instead of swapping, and make exactly the
   comparisons of the swap formulation (the reference heap in
   test_prelude.ml): strict [<], and on equal children the left one
   wins.  Ties therefore leave in an order that is a deterministic
   function of the operation sequence.  The moving entry is read from
   its slot rather than passed as an argument, because a float that
   crosses a call boundary is boxed. *)

(* Sift the entry at slot [i] up. *)
let sift_up q i =
  let prio = q.prio and value = q.value in
  let p = prio.(i) and v = value.(i) in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if p < prio.(parent) then begin
      prio.(!i) <- prio.(parent);
      value.(!i) <- value.(parent);
      i := parent
    end
    else continue := false
  done;
  prio.(!i) <- p;
  value.(!i) <- v

(* Fill the root with the entry at slot [q.size], just past the heap,
   and sift it down. *)
let sift_down q =
  let prio = q.prio and value = q.value and size = q.size in
  let p = prio.(size) and v = value.(size) in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let smallest = if l < size && prio.(l) < p then l else !i in
    let smallest =
      if r < size && prio.(r) < (if smallest = l then prio.(l) else p) then r else smallest
    in
    if smallest = !i then continue := false
    else begin
      prio.(!i) <- prio.(smallest);
      value.(!i) <- value.(smallest);
      i := smallest
    end
  done;
  prio.(!i) <- p;
  value.(!i) <- v

let push q p v =
  grow q;
  q.prio.(q.size) <- p;
  q.value.(q.size) <- v;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let min_prio q = if q.size = 0 then invalid_arg "Pqueue.min_prio: empty" else q.prio.(0)
let min_value q = if q.size = 0 then invalid_arg "Pqueue.min_value: empty" else q.value.(0)

let remove_min q =
  if q.size = 0 then invalid_arg "Pqueue.remove_min: empty";
  q.size <- q.size - 1;
  if q.size > 0 then sift_down q

let peek q = if q.size = 0 then None else Some (q.prio.(0), q.value.(0))

let pop q =
  match peek q with
  | None -> None
  | Some _ as top ->
      remove_min q;
      top

let pop_exn q =
  match pop q with Some x -> x | None -> invalid_arg "Pqueue.pop_exn: empty"

let to_sorted_list q =
  let copy = { prio = Array.copy q.prio; value = Array.copy q.value; size = q.size } in
  let rec drain acc =
    match pop copy with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  drain []
