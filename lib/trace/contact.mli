(** A single contact: two nodes within communication opportunity during
    a time interval, at a representative distance.

    This is the record layout of the Haggle-project iMote sightings
    (Chaintreau et al. [12]) that the paper's evaluation replays,
    extended with a distance so both channel models can derive their
    ED-function parameters. *)

open Tmedb_prelude

type t = private { a : int; b : int; iv : Interval.t; dist : float }

val make : a:int -> b:int -> iv:Interval.t -> dist:float -> t
(** Normalised so that [a < b].  @raise Invalid_argument on [a = b],
    negative ids, or a non-positive or non-finite (NaN, ∞) distance. *)

val duration : t -> float
val involves : t -> int -> bool
val other_end : t -> int -> int
(** @raise Invalid_argument when the node is not an endpoint. *)

val compare_by_start : t -> t -> int
val pp : Format.formatter -> t -> unit
