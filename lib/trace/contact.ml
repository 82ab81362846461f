open Tmedb_prelude

type t = { a : int; b : int; iv : Interval.t; dist : float }

let make ~a ~b ~iv ~dist =
  if a < 0 || b < 0 then invalid_arg "Contact.make: negative node id";
  if a = b then invalid_arg "Contact.make: self-contact";
  if dist <= 0. then invalid_arg "Contact.make: non-positive distance";
  if not (Float.is_finite dist) then invalid_arg "Contact.make: non-finite distance";
  let a, b = if a < b then (a, b) else (b, a) in
  { a; b; iv; dist }

let duration t = Interval.length t.iv
let involves t v = t.a = v || t.b = v

let other_end t v =
  if t.a = v then t.b
  else if t.b = v then t.a
  else invalid_arg "Contact.other_end: node not an endpoint"

let compare_by_start x y =
  let c = Interval.compare x.iv y.iv in
  if c <> 0 then c else Stdlib.compare (x.a, x.b) (y.a, y.b)

let pp ppf t = Format.fprintf ppf "%d--%d %a d=%g" t.a t.b Interval.pp t.iv t.dist
