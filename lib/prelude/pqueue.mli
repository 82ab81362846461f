(** Mutable binary min-heap of [int] payloads keyed by [float]
    priorities, stored unboxed in parallel arrays.

    Used by Dijkstra on the auxiliary graph, the earliest-arrival
    journey searches and the static-BIP replay.  Stale-entry
    (lazy-deletion) usage is the caller's concern: [push] never updates
    an existing key.

    Ties are not broken by insertion sequence.  Entries with equal
    priorities leave in the order the sifts leave them (strict [<],
    the left child preferred on equal children), which is a
    deterministic function of the sequence of operations. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val push : t -> float -> int -> unit
(** Insert a value with the given priority.  Allocates only when the
    storage doubles. *)

val min_prio : t -> float
(** Priority of the minimum entry.
    @raise Invalid_argument on an empty queue. *)

val min_value : t -> int
(** Payload of the minimum entry (the one {!min_prio} describes).
    @raise Invalid_argument on an empty queue. *)

val remove_min : t -> unit
(** Remove the minimum entry.  With {!min_prio} and {!min_value}, the
    allocation-free form of {!pop}.
    @raise Invalid_argument on an empty queue. *)

val peek : t -> (float * int) option
(** Minimum-priority entry without removing it. *)

val pop : t -> (float * int) option
(** Remove and return the minimum-priority entry. *)

val pop_exn : t -> float * int
(** @raise Invalid_argument on an empty queue. *)

val to_sorted_list : t -> (float * int) list
(** Non-destructive: entries in pop order. *)
