(** An exact least-recently-used map with a fixed capacity.

    {!find} and {!add} are O(1): a hash table finds the binding and a
    doubly linked list keeps the bindings in recency order. When an
    {!add} of a new key finds the map full, it evicts exactly the least
    recently used binding first, so the map never holds more than its
    capacity. Keys are hashed and compared structurally
    ([Hashtbl.hash], [=]), and each key is stored once.

    Not thread-safe: a caller that shares one across domains holds its
    own lock around every call. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** [create cap] holds at most [cap] bindings.
    @raise Invalid_argument when [cap < 1]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** The value bound to the key, which becomes the most recently used,
    counted as a hit; [None] counts a miss. *)

val add : ('k, 'v) t -> 'k -> 'v -> 'v
(** [add t k v] makes [k] the most recently used key and returns the
    value bound to it. If [k] is already bound, the first binding wins:
    its value is returned and [v] is dropped. Otherwise [k] is bound to
    [v], after evicting the least recently used binding if [t] is full.
    Neither case counts a hit or a miss. *)

val to_list : ('k, 'v) t -> ('k * 'v) list
(** The bindings, most recently used first. *)

val length : ('k, 'v) t -> int

val hits : ('k, 'v) t -> int
(** {!find} calls that found their key. *)

val misses : ('k, 'v) t -> int
(** {!find} calls that did not. *)

val evictions : ('k, 'v) t -> int
(** Bindings dropped to make room for a new key. *)
