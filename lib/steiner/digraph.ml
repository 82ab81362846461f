(* [row.(u) .. row.(u+1) - 1] index u's edges; [dst]/[weight] may
   carry spare capacity past [row.(n)]. *)
type t = { n : int; row : int array; dst : int array; weight : float array }

let check_edge ~fn ~n u v w =
  if u < 0 || u >= n || v < 0 || v >= n then invalid_arg (fn ^ ": vertex out of range");
  if w < 0. || Float.is_nan w then invalid_arg (fn ^ ": negative weight")

let of_edges ~n edges =
  if n <= 0 then invalid_arg "Digraph.of_edges: n <= 0";
  List.iter (fun (u, v, w) -> check_edge ~fn:"Digraph.of_edges" ~n u v w) edges;
  let m = List.length edges in
  let counts = Array.make (n + 1) 0 in
  List.iter (fun (u, _, _) -> counts.(u + 1) <- counts.(u + 1) + 1) edges;
  for i = 1 to n do
    counts.(i) <- counts.(i) + counts.(i - 1)
  done;
  let row = Array.copy counts in
  let cursor = Array.copy counts in
  let dst = Array.make m 0 and weight = Array.make m 0. in
  List.iter
    (fun (u, v, w) ->
      let k = cursor.(u) in
      dst.(k) <- v;
      weight.(k) <- w;
      cursor.(u) <- k + 1)
    edges;
  { n; row; dst; weight }

let of_succ ~n ?(m = 0) succ =
  if n <= 0 then invalid_arg "Digraph.of_succ: n <= 0";
  let row = Array.make (n + 1) 0 in
  let dst = ref (Array.make (Stdlib.max m 1) 0) and weight = ref (Array.make (Stdlib.max m 1) 0.) in
  let len = ref 0 and u = ref 0 in
  let add v w =
    check_edge ~fn:"Digraph.of_succ" ~n !u v w;
    if !len = Array.length !dst then begin
      let cap = 2 * !len in
      dst := Array.append !dst (Array.make (cap - !len) 0);
      weight := Array.append !weight (Array.make (cap - !len) 0.)
    end;
    !dst.(!len) <- v;
    !weight.(!len) <- w;
    incr len
  in
  for x = 0 to n - 1 do
    u := x;
    succ x add;
    row.(x + 1) <- !len
  done;
  { n; row; dst = !dst; weight = !weight }

let n g = g.n
let m g = g.row.(g.n)

let iter_succ g u f =
  for k = g.row.(u) to g.row.(u + 1) - 1 do
    f g.dst.(k) g.weight.(k)
  done

let fold_succ g u f init =
  let acc = ref init in
  iter_succ g u (fun v w -> acc := f !acc v w);
  !acc

let out_degree g u = g.row.(u + 1) - g.row.(u)

(* Counting-sort transpose.  v's reversed edges come out by descending
   source u, and within one u in reverse CSR order: the traversals
   break priority ties by this order, so it is part of the contract. *)
let reverse g =
  let m = m g in
  let row = Array.make (g.n + 1) 0 in
  for k = 0 to m - 1 do
    let v = g.dst.(k) in
    row.(v + 1) <- row.(v + 1) + 1
  done;
  for v = 1 to g.n do
    row.(v) <- row.(v) + row.(v - 1)
  done;
  let cursor = Array.sub row 0 g.n in
  let dst = Array.make m 0 and weight = Array.make m 0. in
  for u = g.n - 1 downto 0 do
    for k = g.row.(u + 1) - 1 downto g.row.(u) do
      let v = g.dst.(k) in
      let c = cursor.(v) in
      dst.(c) <- u;
      weight.(c) <- g.weight.(k);
      cursor.(v) <- c + 1
    done
  done;
  { n = g.n; row; dst; weight }

let edge_weight g u v =
  let best = ref Float.infinity and found = ref false in
  for e = g.row.(u) to g.row.(u + 1) - 1 do
    if g.dst.(e) = v then begin
      best := if !found then Float.min !best g.weight.(e) else g.weight.(e);
      found := true
    end
  done;
  if !found then Some !best else None

type view = { nv : int; iter_succ : int -> (int -> float -> unit) -> unit }

let view g = { nv = g.n; iter_succ = (fun u f -> iter_succ g u f) }

let view_edge_weight vw u v =
  let acc = ref None in
  vw.iter_succ u (fun dst w ->
      if dst = v then
        acc := Some (match !acc with None -> w | Some best -> Float.min best w));
  !acc

let pp ppf g = Format.fprintf ppf "digraph{n=%d m=%d}" g.n (m g)
