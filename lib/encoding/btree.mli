(** A persistent B+-tree over [int] keys: the storage behind {!Axis_inc}.

    Entries live only in the leaves, as a sorted [int array] of keys beside
    an array of values, each allocated at its exact size; inner nodes hold
    separator keys and child arrays. Every leaf holds at most {!width}
    entries and every inner node at most {!width} children; below the root
    both hold at least [width / 2]. An update copies the root-to-leaf path
    it changes — O(width * depth) words — and shares everything else, so an
    old version is never disturbed and a value can be read from any domain
    while a writer derives new versions from it.

    An entry costs two words (key and value) against five or six in a
    Stdlib [Map], and a {!Set} element one word. *)

type 'a t
(** A map from [int] keys to ['a] values. *)

val width : int
(** The most entries a leaf, and the most children an inner node, holds. *)

val empty : 'a t

val cardinal : 'a t -> int
(** O(number of leaves). *)

val add : int -> 'a -> 'a t -> 'a t
(** Binds the key, replacing any previous value. *)

val remove : int -> 'a t -> 'a t
(** Returns the map physically unchanged when the key is absent. *)

val find : int -> 'a t -> 'a
(** Raises [Not_found]. *)

val find_opt : int -> 'a t -> 'a option

val min_binding : 'a t -> int * 'a
(** Raises [Not_found] on the empty map. *)

val find_first_opt : (int -> bool) -> 'a t -> (int * 'a) option
(** The binding of the smallest key satisfying [f], where [f] is
    monotonically increasing (as in [Map.S.find_first_opt]). *)

val find_last_opt : (int -> bool) -> 'a t -> (int * 'a) option
(** The binding of the largest key satisfying [f], where [f] is
    monotonically decreasing (as in [Map.S.find_last_opt]). *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** In increasing key order. *)

val bindings : 'a t -> (int * 'a) list
val to_seq : 'a t -> (int * 'a) Seq.t

val to_seq_from : int -> 'a t -> (int * 'a) Seq.t
(** The bindings whose keys are at least the given one, in increasing
    order, produced lazily. *)

val of_sorted : int array -> 'a array -> 'a t
(** Builds the tree bottom-up in O(n) from strictly increasing keys and
    their values (arrays of equal length), packing leaves and inner nodes
    as full as the bounds allow. Raises [Invalid_argument] otherwise. *)

val depth : 'a t -> int
(** Inner levels above the leaves: 0 for a single leaf. *)

val check : 'a t -> (unit, string) result
(** Key order, separator bounds, leaf and inner-node fill bounds and
    uniform leaf depth. [Error] names the first violation. *)

(** Sets of [int]: the same tree with no value arrays. *)
module Set : sig
  type t

  val empty : t
  val is_empty : t -> bool
  val add : int -> t -> t
  val remove : int -> t -> t
  val mem : int -> t -> bool

  val fold : (int -> 'acc -> 'acc) -> t -> 'acc -> 'acc
  (** In increasing order. *)

  val of_sorted : int array -> t
  (** Bottom-up O(n) build from strictly increasing elements. *)

  val check : t -> (unit, string) result
end
