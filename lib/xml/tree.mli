(** The ordered rooted tree underlying an XML document (paper §2.1).

    Following the paper's data model (Figures 1 and 2):

    - internal nodes are elements, attributes are tree nodes ordered before
      the element's child elements (the sample tree labels [genre] as the
      child of [title] with preorder rank 2);
    - text leaves are {e not} labelled — "leaf nodes will always contain
      content values and not structural information and are thus considered
      by the XML encoding scheme and not the labelling scheme" — so text is
      carried as the optional [value] of its element, exactly as the
      Figure 2 encoding table does.

    The tree is mutable: structural updates (the paper's §3 update classes)
    edit it in place, and every labelling scheme observes the edits through
    the {!Core} driver. Node identity is a stable integer that survives any
    relabelling. *)

type kind = Element | Attribute

type node = private {
  id : int;
  mutable kind : kind;
  mutable name : string;
  mutable value : string option;
  mutable parent : node option;
  mutable children : node list;
}

type doc

(** {1 Fragments}

    Immutable node descriptions used as insertion payloads and as the
    parser's output. *)

type frag = { f_kind : kind; f_name : string; f_value : string option; f_children : frag list }

val elt : ?value:string -> string -> frag list -> frag
(** [elt name children] is an element fragment. *)

val attr : string -> string -> frag
(** [attr name value] is an attribute fragment. Attribute fragments must not
    have children; [elt] places any attributes among its children in the
    given order. *)

val frag_size : frag -> int
(** Number of nodes in the fragment. *)

(** {1 Documents} *)

val create : frag -> doc
(** [create f] builds a document whose root is [f]. Its nodes are
    numbered in document order: the [n]-th node of {!preorder} has id
    [n]. Raises [Invalid_argument] if the root fragment is an attribute. *)

val root : doc -> node
val size : doc -> int
(** Number of live nodes. *)

val revision : doc -> int
(** Incremented by every structural update; cheap change detection for
    caches such as the Prime scheme's order book. *)

val find : doc -> int -> node
(** Node by id. Raises [Not_found] if absent or deleted. *)

val mem : doc -> int -> bool

(** {1 Structural queries} *)

val parent : node -> node option
val children : node -> node list
val first_child : node -> node option
val last_child : node -> node option
val prev_sibling : node -> node option
val next_sibling : node -> node option
val level : node -> int
(** Nesting depth; the root is at level 0. *)

val sibling_position : node -> int
(** 0-based index among the parent's children; 0 for the root. *)

val preorder : doc -> node list
(** All nodes in document order (attributes in place, before element
    children, as in Figure 1(b)). *)

val iter_preorder : (node -> unit) -> doc -> unit

val fold_preorder : ('a -> node -> 'a) -> 'a -> doc -> 'a
(** [fold_preorder f acc doc] folds over the nodes in document order
    without materialising the {!preorder} list. *)

val preorder_array : doc -> node array
(** All nodes in document order as an array, sized from the live-node
    index up front — the allocation-light form the measurement hot path
    uses. *)

val descendants : node -> node list
(** The subtree rooted at the node, in document order, excluding the node. *)

val iter_descendants : (node -> unit) -> node -> unit
(** [iter_descendants f n] applies [f] to {!descendants}[ n] in document
    order without materialising the list — the insertion hot path settles
    every fresh subtree node through this. *)

val to_frag : node -> frag
(** Deep copy of a subtree as a fragment. *)

(** {1 Structural updates (paper §3.1)} *)

val insert_first_child : doc -> node -> frag -> node
val insert_last_child : doc -> node -> frag -> node

val insert_before : doc -> node -> frag -> node
(** [insert_before doc anchor f] places [f] as the immediately preceding
    sibling of [anchor]. Raises [Invalid_argument] on the root. *)

val insert_after : doc -> node -> frag -> node

val delete : doc -> node -> unit
(** Detaches the node and its whole subtree and drops them from the index.
    Raises [Invalid_argument] on the root. *)

(** {1 Subtree moves}

    A move is delete + {!to_frag} re-insert: values and attributes are
    preserved, node ids are not (the moved subtree is rebuilt at the
    destination, which is what every labelling scheme expects — observers
    see one delete and one insert). *)

type dest = Into_first of node | Into_last of node | Before of node | After of node

val contains : root:node -> node -> bool
(** [contains ~root n]: is [n] inside the subtree rooted at [root]
    (including [root] itself)? *)

val move_subtree : doc -> node -> dest -> node
(** [move_subtree doc n dest] relocates the subtree rooted at [n] and
    returns the rebuilt root. Raises [Invalid_argument] when [n] is the
    document root, when the destination anchor lies inside the moved
    subtree, when a [Before]/[After] anchor is the root, or when an
    [Into_*] anchor is not an element. *)

(** {1 Content updates (paper §3.1)} *)

val set_value : doc -> node -> string option -> unit
val rename : doc -> node -> string -> unit

(** {1 Mutation observers}

    A structural observer sees every mutation that goes through this module —
    live updates, recovery replay and follower log application alike — which
    is exactly the seam an incrementally-maintained index needs. *)

type observer = {
  obs_insert : node -> unit;
      (** Fired after a fresh subtree is attached, with the subtree root. *)
  obs_delete : node -> unit;
      (** Fired with the subtree root {e before} it is detached, so the
          observer can still walk the doomed subtree. *)
  obs_rename : node -> string -> unit;
      (** [obs_rename n old] fires after the rename; [old] is the previous
          name. *)
  obs_value : node -> unit;  (** Fired after the value change. *)
}

val add_observer : doc -> observer -> int
(** Registers an observer and returns a handle for {!remove_observer}. *)

val remove_observer : doc -> int -> unit

(** {1 Invariant checking} *)

val validate : doc -> (unit, string) result
(** Checks parent pointers, index consistency, attribute placement (no
    children under attributes) and id uniqueness. Used by the test suite
    after every mutation batch. *)
