(** Stable sorting of positions by integer keys, with the comparisons
    written inline: no comparison closure is called per step.  A
    bottom-up merge sort, O(m log m) for m positions. *)

val sort_by : int array -> int array -> unit
(** [sort_by keys perm] reorders the positions in [perm] (indices into
    [keys]) by ascending [keys.(p)], keeping the current order of
    positions with equal keys. *)

val order : int array -> int array
(** [order keys] is [0, 1, ..., length keys - 1] sorted by {!sort_by}:
    the positions by ascending key, equal keys in position order. *)
