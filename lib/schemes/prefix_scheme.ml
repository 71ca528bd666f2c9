(** Shared implementation of prefix labelling schemes (paper §3.1.2).

    A label is the root-to-node sequence of positional identifiers, held
    in memory node-first on top of the parent's label. The functor
    provides document order (preorder = prefix-first lexicographic
    order on code sequences), the label-only structural predicates, bulk
    labelling, and the update protocol — including sibling renumbering when
    the code algebra demands it ({!Code_sig.Needs_relabel}) and whole-
    document relabelling when a fixed storage field saturates
    ({!Code_sig.Code_overflow}, the §4 overflow problem). *)

open Repro_xml
module Bitpack = Repro_codes.Bitpack

module Make (Code : Code_sig.CODE) (Config : sig
  val config : Code_sig.config
end) : Core.Scheme.S = struct
  let config = Config.config
  let name = config.name
  let info = config.info

  (* A label is stored node-first: the node's own code, its depth and its
     parent's label, which is shared rather than copied. A node costs one
     record however deep it sits, creating a label is O(1), and labels of
     one live document share every common ancestor physically. Labels
     decoded from bytes are self-contained chains that share nothing with
     the live ones; every function below works on both. *)
  type label = Root | Step of { code : Code.t; depth : int; up : label }

  let depth = function Root -> 0 | Step s -> s.depth
  let step code up = Step { code; depth = depth up + 1; up }

  (* The codes root first, as the paper writes a label. *)
  let codes l =
    let rec go acc = function Root -> acc | Step s -> go (s.code :: acc) s.up in
    go [] l

  (* The ancestor-or-self of [l] at depth [d] ([d <= depth l]). The helpers
     below stay at the functor's top level: a local closure over [Code]
     would be allocated on every comparison. *)
  let rec climb l d =
    match l with Step s when s.depth > d -> climb s.up d | _ -> l

  let rec equal_label a b =
    a == b
    ||
    match (a, b) with
    | Step x, Step y -> x.depth = y.depth && Code.equal x.code y.code && equal_label x.up y.up
    | _ -> false

  (* Two labels of equal depth, compared root first. Climbing stops at the
     lowest physically shared parent, so for labels of one live document
     only the two codes just below it are compared; the codes above are
     compared only while the pairs below them tie. Labels that share
     nothing (decoded ones) get the full root-first walk. *)
  let rec compare_level a b =
    match (a, b) with
    | Step x, Step y when a != b ->
      if x.up == y.up then Code.compare x.code y.code
      else
        let c = compare_level x.up y.up in
        if c <> 0 then c else Code.compare x.code y.code
    | _ -> 0

  (* Document order is preorder: an ancestor precedes its descendants. *)
  let compare_order a b =
    let da = depth a and db = depth b in
    if da = db then compare_level a b
    else if da > db then
      let c = compare_level (climb a db) b in
      if c <> 0 then c else 1
    else
      let c = compare_level a (climb b da) in
      if c <> 0 then c else -1

  let label_to_string = function
    | Root -> "\xce\xb5" (* the empty root label, shown as epsilon *)
    | l -> (
      let strings = List.map Code.to_string (codes l) in
      match config.render with
      | Some render -> render strings
      | None -> String.concat "." strings)

  let pp_label ppf l = Format.pp_print_string ppf (label_to_string l)

  let length_overhead =
    match config.length_field_bits with Some k -> k | None -> 0

  let rec sum_bits acc = function
    | Root -> acc
    | Step s -> sum_bits (acc + Code.bits s.code) s.up

  let storage_bits l = sum_bits length_overhead l

  (* Binary form: the codes in root-to-node order, each self-delimiting by
     the scheme's own layout; the length field the representation needs is
     carried alongside as the significant-bit count. *)
  let rec encode_onto w = function
    | Root -> ()
    | Step s ->
      encode_onto w s.up;
      Code.encode w s.code

  let encode_label l =
    let w = Bitpack.writer () in
    encode_onto w l;
    (Bitpack.contents w, Bitpack.bit_length w)

  (* The codes [r] holds before bit [bits], stepped onto [up]. *)
  let rec decode_onto r bits up =
    if Bitpack.position r >= bits then up
    else decode_onto r bits (step (Code.decode r) up)

  let decode_label bytes bits = decode_onto (Bitpack.reader bytes) bits Root

  let is_ancestor =
    Some (fun a d -> depth a < depth d && equal_label a (climb d (depth a)))

  let is_parent = Some (fun p c -> match c with Step s -> equal_label p s.up | Root -> false)

  let is_sibling =
    Some
      (fun a b ->
        match (a, b) with
        | Step x, Step y -> (not (Code.equal x.code y.code)) && equal_label x.up y.up
        | _ -> false)

  let root_depth_adjust = if config.root_code then 1 else 0

  let level_of = Some (fun l -> depth l - root_depth_adjust)

  type t = { doc : Tree.doc; table : label Core.Table.t; stats : Core.Stats.t }

  (* Exceeding the fixed length field is an overflow (§4). *)
  let fits l =
    match config.length_field_bits with
    | None -> true
    | Some k -> storage_bits l <= (1 lsl k) - 1

  let set t node label = Core.Table.set t.table node label

  (* Assign fresh codes to [children] under [parent_label] and rebuild the
     labels of their descendants (a prefix label embeds the whole path, so
     a renumbered sibling drags its subtree along — the §3.1.2 cost). *)
  let rec assign_children t parent_label children =
    let n = List.length children in
    if n > 0 then begin
      let codes = Code.initial n in
      List.iteri
        (fun i child ->
          let l = step codes.(i) parent_label in
          set t child l;
          assign_children t l (Tree.children child))
        children
    end

  let relabel_document t =
    let root = Tree.root t.doc in
    let root_label = if config.root_code then step Code.root Root else Root in
    set t root root_label;
    assign_children t root_label (Tree.children root)

  let create doc =
    let stats = Core.Stats.create () in
    let t =
      { doc; table = Core.Table.create ~equal:equal_label ~bits:storage_bits ~stats; stats }
    in
    relabel_document t;
    t

  (* Restored labels share paths too. A child's stored bits normally
     extend its parent's, so only the child's own code is decoded, from
     where the parent's bits end, onto the parent's label. A child that
     does not extend its parent, or whose parent's decode did not end
     exactly on its bit count (malformed data), is decoded whole. Either
     way the label is [decode_label] of the stored form. *)
  let restore doc stored =
    let stats = Core.Stats.create () in
    let t =
      { doc; table = Core.Table.create ~equal:equal_label ~bits:storage_bits ~stats; stats }
    in
    let rec visit up parent_stored node =
      let ((bytes, bits) as own) = stored node in
      let r, onto =
        match parent_stored with
        | Some (pbytes, pbits) when pbits <= bits && Bitpack.shares_prefix pbytes bytes pbits
          ->
          (Bitpack.reader_at bytes pbits, up)
        | _ -> (Bitpack.reader bytes, Root)
      in
      let l = decode_onto r bits onto in
      set t node l;
      let exact = if Bitpack.position r = bits then Some own else None in
      List.iter (visit l exact) (Tree.children node)
    in
    visit Root None (Tree.root doc);
    t

  let label t node = Core.Table.get t.table node

  (* Rebuild the descendant labels of [node] after its own label changed;
     each descendant keeps its own trailing code. *)
  let rec refresh_descendants t node =
    let l = label t node in
    List.iter
      (fun child ->
        match label t child with
        | Step own ->
          set t child (step own.code l);
          refresh_descendants t child
        | Root -> assert false)
      (Tree.children node)

  let renumber_siblings t parent node =
    let parent_label = label t parent in
    let children = Tree.children parent in
    let n = List.length children in
    let codes = Code.initial n in
    List.iteri
      (fun i child ->
        set t child (step codes.(i) parent_label);
        if child.Tree.id <> node.Tree.id then refresh_descendants t child)
      children

  let code_for t node =
    let left = Core.Table.labelled_left t.table node in
    let right = Core.Table.labelled_right t.table node in
    let last n =
      match label t n with
      | Step s -> s.code
      | Root -> invalid_arg (name ^ ": a sibling carries the empty label")
    in
    match (left, right) with
    | None, None -> (Code.initial 1).(0)
    | Some l, None -> Code.after (last l)
    | None, Some r -> Code.before (last r)
    | Some l, Some r -> Code.between (last l) (last r)

  let after_insert t node =
    if not (Core.Table.mem t.table node) then begin
      match Tree.parent node with
      | None -> invalid_arg (name ^ ": cannot insert a second root")
      | Some parent -> (
        match
          let code = code_for t node in
          let l = step code (label t parent) in
          if fits l then Some l else None
        with
        | Some l -> set t node l
        | None ->
          (* The label outgrew the fixed length field: the overflow
             problem forces a full relabelling. *)
          Core.Stats.record_overflow t.stats;
          relabel_document t
        | exception Code_sig.Needs_relabel -> renumber_siblings t parent node
        | exception Code_sig.Code_overflow ->
          Core.Stats.record_overflow t.stats;
          relabel_document t)
    end

  let before_delete t node =
    Core.Table.remove_subtree t.table node;
    if config.reassign_on_delete then begin
      match Tree.parent node with
      | None -> ()
      | Some parent ->
        (* Renumber the surviving siblings as if freshly constructed, so
           the deleted identifiers are reused (LSDX's deletion rule). *)
        let survivors =
          List.filter (fun (c : Tree.node) -> c.id <> node.Tree.id) (Tree.children parent)
        in
        let n = List.length survivors in
        if n > 0 then begin
          let codes = Code.initial n in
          let parent_label = label t parent in
          List.iteri
            (fun i child ->
              set t child (step codes.(i) parent_label);
              refresh_descendants t child)
            survivors
        end
    end

  let stats t = t.stats
end
