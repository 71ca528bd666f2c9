module Tree = Repro_xml.Tree
module Smap = Map.Make (String)
module Iset = Btree.Set

(* Initial spacing between consecutive ranks, and the smallest spacing a
   renumbering pass restores. 2^32 leaves room for ~2^29 nodes below
   max_int; 64 means a renumbered window absorbs ~6 splits before it is
   renumbered again. *)
let gap = 1 lsl 32
let min_step = 64

let kind_of = function
  | Tree.Element -> Encoding.Element
  | Tree.Attribute -> Encoding.Attribute

(* One node's slot in the plane. The parent link is the parent's stable
   node id, not its pre rank — renumbering a window must not have to
   rewrite the children's cells. *)
type cell = {
  x_id : int;  (* Tree node id *)
  x_post : int;  (* sparse post rank *)
  x_kind : Encoding.kind;
  x_parent : int;  (* parent's node id; -1 at the document element *)
  x_level : int;
  x_name : string;
  x_value : string option;
}

(* Every index is a persistent B+-tree (the name index a small string map
   of them), so a snapshot is the record itself: O(1) to take, immutable
   to read, safely shared across domains. *)
type snap = {
  plane : cell Btree.t;  (* sparse pre rank -> cell, document order *)
  pre_of : int Btree.t;  (* node id -> pre rank *)
  post_of : int Btree.t;  (* post rank -> pre rank *)
  names : Iset.t Smap.t;  (* name -> pre ranks *)
  kids : Iset.t Btree.t;  (* parent node id -> child pre ranks *)
  s_rev : int;  (* Tree.revision this snapshot reflects *)
}

type stats = { ops : int; renumbered : int; ns : int64 }

type t = {
  doc : Tree.doc;
  clock : unit -> int64;
  mutable snap : snap;
  mutable obs : int;
  mutable m_ops : int;
  mutable m_renumbered : int;
  mutable m_ns : int64;
}

let rev s = s.s_rev
let size s = Btree.cardinal s.plane

let stats t = { ops = t.m_ops; renumbered = t.m_renumbered; ns = t.m_ns }

(* ------------------------------------------------------------------ *)
(* Index plumbing                                                      *)
(* ------------------------------------------------------------------ *)

let iset_add k pre m =
  Btree.add k (Iset.add pre (Option.value (Btree.find_opt k m) ~default:Iset.empty)) m

let iset_remove k pre m =
  match Btree.find_opt k m with
  | None -> m
  | Some s ->
    let s = Iset.remove pre s in
    if Iset.is_empty s then Btree.remove k m else Btree.add k s m

let names_add name pre m =
  Smap.update name (fun s -> Some (Iset.add pre (Option.value s ~default:Iset.empty))) m

let names_remove name pre m =
  Smap.update name
    (function
      | None -> None
      | Some s ->
        let s = Iset.remove pre s in
        if Iset.is_empty s then None else Some s)
    m

let add_cell snap (pre, c) =
  {
    snap with
    plane = Btree.add pre c snap.plane;
    pre_of = Btree.add c.x_id pre snap.pre_of;
    post_of = Btree.add c.x_post pre snap.post_of;
    names = names_add c.x_name pre snap.names;
    kids = (if c.x_parent < 0 then snap.kids else iset_add c.x_parent pre snap.kids);
  }

let remove_cell snap (pre, c) =
  {
    snap with
    plane = Btree.remove pre snap.plane;
    pre_of = Btree.remove c.x_id snap.pre_of;
    post_of = Btree.remove c.x_post snap.post_of;
    names = names_remove c.x_name pre snap.names;
    kids = (if c.x_parent < 0 then snap.kids else iset_remove c.x_parent pre snap.kids);
  }

(* ------------------------------------------------------------------ *)
(* Rank allocation: list labelling with a doubling renumber window      *)
(* ------------------------------------------------------------------ *)

(* Allocate [k] fresh increasing ranks strictly between [lo] and [hi]
   (0 / max_int are the "no neighbour" sentinels; every real rank is
   positive and below max_int). When the gap is too tight, absorb
   neighbouring ranks into a window that doubles each round until the
   window's density allows [min_step] spacing — the classic list-labelling
   scheme, O(log n) amortized per allocation. Returns the fresh ranks and
   the (old, new) remapping of absorbed neighbours. *)
let alloc keys ~lo ~hi ~k =
  let fits a b m = (b - a) / (m + k + 1) >= min_step in
  if fits lo hi 0 then begin
    let step = (hi - lo) / (k + 1) in
    (List.init k (fun i -> lo + ((i + 1) * step)), [])
  end
  else begin
    (* left/right hold absorbed ranks nearest-the-gap first; a/b are the
       exclusive fixed bounds of the window. *)
    let left = ref [] and right = ref [] in
    let a = ref lo and b = ref hi in
    let count () = List.length !left + List.length !right in
    let absorb_left () =
      if !a <= 0 then false
      else begin
        left := !a :: !left;
        (a :=
           match Btree.find_last_opt (fun x -> x < List.hd !left) keys with
           | Some (x, _) -> x
           | None -> 0);
        true
      end
    in
    let absorb_right () =
      if !b = max_int then false
      else begin
        right := !b :: !right;
        (b :=
           match Btree.find_first_opt (fun x -> x > List.hd !right) keys with
           | Some (x, _) -> x
           | None -> max_int);
        true
      end
    in
    let rec widen () =
      if fits !a !b (count ()) then ()
      else begin
        let target = (2 * count ()) + 1 in
        let progress = ref false in
        while
          count () < target
          &&
          let l = absorb_left () in
          let r = absorb_right () in
          if l || r then progress := true;
          l || r
        do
          ()
        done;
        if fits !a !b (count ()) then ()
        else if !progress then widen ()
        else failwith "Axis_inc: rank space exhausted"
      end
    in
    widen ();
    (* [left] was built by prepending ever-smaller ranks, so it is already
       ascending; [right] by prepending ever-larger ones, so reverse it. *)
    let lefts = !left and rights = List.rev !right in
    let m_left = List.length lefts in
    let total = count () + k in
    let step = (!b - !a) / (total + 1) in
    let pos j = !a + ((j + 1) * step) in
    let remaps =
      List.mapi (fun i key -> (key, pos i)) lefts
      @ List.mapi (fun i key -> (key, pos (m_left + k + i))) rights
    in
    (List.init k (fun i -> pos (m_left + i)), remaps)
  end

(* Renumbered pre ranks appear as map keys in [plane] and as set members
   in [names]/[kids]; as values they live in [pre_of]/[post_of], where an
   overwrite suffices. Old and new ranks interleave, so: clear every old
   entry first, then write every new one. *)
let apply_pre_remaps snap remaps =
  if remaps = [] then snap
  else begin
    let items = List.map (fun (o, n) -> (o, n, Btree.find o snap.plane)) remaps in
    let snap =
      List.fold_left
        (fun s (o, _, c) ->
          {
            s with
            plane = Btree.remove o s.plane;
            names = names_remove c.x_name o s.names;
            kids = (if c.x_parent < 0 then s.kids else iset_remove c.x_parent o s.kids);
          })
        snap items
    in
    List.fold_left
      (fun s (_, n, c) ->
        {
          s with
          plane = Btree.add n c s.plane;
          pre_of = Btree.add c.x_id n s.pre_of;
          post_of = Btree.add c.x_post n s.post_of;
          names = names_add c.x_name n s.names;
          kids = (if c.x_parent < 0 then s.kids else iset_add c.x_parent n s.kids);
        })
      snap items
  end

let apply_post_remaps snap remaps =
  if remaps = [] then snap
  else begin
    let items = List.map (fun (o, n) -> (o, n, Btree.find o snap.post_of)) remaps in
    let snap =
      List.fold_left (fun s (o, _, _) -> { s with post_of = Btree.remove o s.post_of }) snap items
    in
    List.fold_left
      (fun s (_, n, pre) ->
        let c = Btree.find pre s.plane in
        {
          s with
          post_of = Btree.add n pre s.post_of;
          plane = Btree.add pre { c with x_post = n } s.plane;
        })
      snap items
  end

(* ------------------------------------------------------------------ *)
(* Initial build                                                       *)
(* ------------------------------------------------------------------ *)

(* One preorder walk yields the plane and the postorder already sorted,
   so their leaves are packed bottom-up; only the node-id and parent-id
   keys need a sort. *)
let build_snap doc =
  let n = Tree.size doc in
  let rank i = (i + 1) * gap in
  let nodes = Array.make n (Tree.root doc) in
  let posts = Array.make n 0 and levels = Array.make n 0 and parents = Array.make n (-1) in
  let pre_by_post = Array.make n 0 in
  let kids = Hashtbl.create (n / 2) and names = Hashtbl.create 64 in
  let push tbl k pre =
    Hashtbl.replace tbl k (pre :: Option.value (Hashtbl.find_opt tbl k) ~default:[])
  in
  let next_pre = ref 0 and next_post = ref 0 in
  let rec go level parent nd =
    let i = !next_pre in
    incr next_pre;
    nodes.(i) <- nd;
    levels.(i) <- level;
    parents.(i) <- parent;
    push names nd.Tree.name (rank i);
    if parent >= 0 then push kids parent (rank i);
    List.iter (go (level + 1) nd.Tree.id) (Tree.children nd);
    posts.(i) <- rank !next_post;
    pre_by_post.(!next_post) <- rank i;
    incr next_post
  in
  go 0 (-1) (Tree.root doc);
  let cells =
    Array.init n (fun i ->
        let nd = nodes.(i) in
        {
          x_id = nd.Tree.id;
          x_post = posts.(i);
          x_kind = kind_of nd.Tree.kind;
          x_parent = parents.(i);
          x_level = levels.(i);
          x_name = nd.Tree.name;
          x_value = nd.Tree.value;
        })
  in
  let by_id = Array.init n Fun.id in
  Array.sort (fun a b -> Int.compare cells.(a).x_id cells.(b).x_id) by_id;
  let parent_ids = Array.of_seq (Hashtbl.to_seq_keys kids) in
  Array.sort Int.compare parent_ids;
  let ascending pres = Iset.of_sorted (Array.of_list (List.rev pres)) in
  {
    plane = Btree.of_sorted (Array.init n rank) cells;
    pre_of = Btree.of_sorted (Array.map (fun i -> cells.(i).x_id) by_id) (Array.map rank by_id);
    post_of = Btree.of_sorted (Array.init n rank) pre_by_post;
    names = Hashtbl.fold (fun name pres m -> Smap.add name (ascending pres) m) names Smap.empty;
    kids =
      Btree.of_sorted parent_ids (Array.map (fun p -> ascending (Hashtbl.find kids p)) parent_ids);
    s_rev = Tree.revision doc;
  }

(* ------------------------------------------------------------------ *)
(* Mutation maintenance                                                *)
(* ------------------------------------------------------------------ *)

(* The document-order predecessor of a freshly attached subtree root: the
   tail of the previous sibling's subtree, else the parent. *)
let rec subtree_tail n = match Tree.last_child n with Some c -> subtree_tail c | None -> n

(* The postorder predecessor of [n]'s subtree: the previous sibling's own
   post rank (the maximum of its subtree), recursing through parents when
   [n] leads its sibling list. 0 when nothing precedes. *)
let rec pred_post snap n =
  match Tree.prev_sibling n with
  | Some s -> (Btree.find (Btree.find s.Tree.id snap.pre_of) snap.plane).x_post
  | None -> (
    match Tree.parent n with Some p -> pred_post snap p | None -> 0)

let succ_key key m =
  match Btree.find_first_opt (fun x -> x > key) m with Some (x, _) -> x | None -> max_int

let on_insert t n =
  let snap = t.snap in
  let sub = n :: Tree.descendants n in
  let k = List.length sub in
  let parent = Option.get (Tree.parent n) in
  let pred_node =
    match Tree.prev_sibling n with Some s -> subtree_tail s | None -> parent
  in
  let pre_lo = Btree.find pred_node.Tree.id snap.pre_of in
  let pre_hi = succ_key pre_lo snap.plane in
  let pres, pre_remaps = alloc snap.plane ~lo:pre_lo ~hi:pre_hi ~k in
  let snap = apply_pre_remaps snap pre_remaps in
  let post_lo = pred_post snap n in
  let post_hi = succ_key post_lo snap.post_of in
  let posts, post_remaps = alloc snap.post_of ~lo:post_lo ~hi:post_hi ~k in
  let snap = apply_post_remaps snap post_remaps in
  (* postorder walk pairs each subtree node with its post rank *)
  let post_of_id = Hashtbl.create 16 in
  let order = ref [] in
  let rec po x =
    List.iter po (Tree.children x);
    order := x.Tree.id :: !order
  in
  po n;
  List.iter2 (fun id post -> Hashtbl.replace post_of_id id post) (List.rev !order) posts;
  let levels = Hashtbl.create 16 in
  let parent_level = (Btree.find (Btree.find parent.Tree.id snap.pre_of) snap.plane).x_level in
  let rec lv l x =
    Hashtbl.replace levels x.Tree.id l;
    List.iter (lv (l + 1)) (Tree.children x)
  in
  lv (parent_level + 1) n;
  let snap =
    List.fold_left2
      (fun s node pre ->
        add_cell s
          ( pre,
            {
              x_id = node.Tree.id;
              x_post = Hashtbl.find post_of_id node.Tree.id;
              x_kind = kind_of node.Tree.kind;
              x_parent = (Option.get (Tree.parent node)).Tree.id;
              x_level = Hashtbl.find levels node.Tree.id;
              x_name = node.Tree.name;
              x_value = node.Tree.value;
            } ))
      snap sub pres
  in
  t.m_renumbered <- t.m_renumbered + List.length pre_remaps + List.length post_remaps;
  t.snap <- { snap with s_rev = Tree.revision t.doc }

let on_delete t n =
  let snap =
    List.fold_left
      (fun s node ->
        let pre = Btree.find node.Tree.id s.pre_of in
        remove_cell s (pre, Btree.find pre s.plane))
      t.snap
      (n :: Tree.descendants n)
  in
  t.snap <- { snap with s_rev = Tree.revision t.doc }

let on_rename t n old =
  let snap = t.snap in
  let pre = Btree.find n.Tree.id snap.pre_of in
  let c = Btree.find pre snap.plane in
  t.snap <-
    {
      snap with
      plane = Btree.add pre { c with x_name = n.Tree.name } snap.plane;
      names = names_add n.Tree.name pre (names_remove old pre snap.names);
      s_rev = Tree.revision t.doc;
    }

let on_value t n =
  let snap = t.snap in
  let pre = Btree.find n.Tree.id snap.pre_of in
  let c = Btree.find pre snap.plane in
  t.snap <-
    {
      snap with
      plane = Btree.add pre { c with x_value = n.Tree.value } snap.plane;
      s_rev = Tree.revision t.doc;
    }

let create ?(clock = fun () -> 0L) doc =
  let t =
    { doc; clock; snap = build_snap doc; obs = -1; m_ops = 0; m_renumbered = 0; m_ns = 0L }
  in
  let timed f =
    let t0 = t.clock () in
    f ();
    t.m_ops <- t.m_ops + 1;
    t.m_ns <- Int64.add t.m_ns (Int64.sub (t.clock ()) t0)
  in
  t.obs <-
    Tree.add_observer doc
      {
        Tree.obs_insert = (fun n -> timed (fun () -> on_insert t n));
        obs_delete = (fun n -> timed (fun () -> on_delete t n));
        obs_rename = (fun n old -> timed (fun () -> on_rename t n old));
        obs_value = (fun n -> timed (fun () -> on_value t n));
      };
  t

let detach t = Tree.remove_observer t.doc t.obs

let snapshot t = t.snap

(* ------------------------------------------------------------------ *)
(* Reading a snapshot                                                  *)
(* ------------------------------------------------------------------ *)

let row_of snap pre (c : cell) : Encoding.row =
  {
    Encoding.pre;
    post = c.x_post;
    kind = c.x_kind;
    parent_pre = (if c.x_parent < 0 then None else Some (Btree.find c.x_parent snap.pre_of));
    level = c.x_level;
    name = c.x_name;
    value = c.x_value;
  }

let rows snap =
  List.rev (Btree.fold (fun pre c acc -> row_of snap pre c :: acc) snap.plane [])

let source snap : Axis_source.t =
  let row pre = row_of snap pre (Btree.find pre snap.plane) in
  let rows_of_set set = List.rev (Iset.fold (fun p acc -> row p :: acc) set []) in
  let cell (r : Encoding.row) = Btree.find r.Encoding.pre snap.plane in
  let child_set (r : Encoding.row) =
    Option.value (Btree.find_opt (cell r).x_id snap.kids) ~default:Iset.empty
  in
  let elements rs = List.filter (fun (r : Encoding.row) -> r.Encoding.kind = Element) rs in
  let parent (r : Encoding.row) =
    let c = cell r in
    if c.x_parent < 0 then None else Some (row (Btree.find c.x_parent snap.pre_of))
  in
  let descendants (r : Encoding.row) =
    let stop = r.Encoding.post in
    let rec take seq =
      match seq () with
      | Seq.Cons ((pre, c), rest) when c.x_post < stop -> row_of snap pre c :: take rest
      | _ -> []
    in
    take (Btree.to_seq_from (r.Encoding.pre + 1) snap.plane)
  in
  {
    Axis_source.all = (fun () -> rows snap);
    root = (fun () -> let pre, c = Btree.min_binding snap.plane in row_of snap pre c);
    children = (fun r -> elements (rows_of_set (child_set r)));
    attributes =
      (fun r ->
        List.filter
          (fun (x : Encoding.row) -> x.Encoding.kind = Attribute)
          (rows_of_set (child_set r)));
    parent;
    ancestors =
      (fun r ->
        let rec up acc r =
          match parent r with Some p -> up (p :: acc) p | None -> acc
        in
        up [] r);
    descendants =
      (fun r -> List.filter (fun (x : Encoding.row) -> x.Encoding.kind <> Attribute) (descendants r));
    following =
      (fun r ->
        let rec skip seq =
          match seq () with
          | Seq.Cons ((_, c), rest) when c.x_post < r.Encoding.post -> skip rest
          | node -> fun () -> node
        in
        let rec take seq =
          match seq () with
          | Seq.Cons ((pre, c), rest) ->
            if c.x_kind = Encoding.Attribute then take rest
            else row_of snap pre c :: take rest
          | Seq.Nil -> []
        in
        take (skip (Btree.to_seq_from (r.Encoding.pre + 1) snap.plane)));
    preceding =
      (fun r ->
        let rec take seq =
          match seq () with
          | Seq.Cons ((pre, c), rest) when pre < r.Encoding.pre ->
            if c.x_kind <> Encoding.Attribute && c.x_post < r.Encoding.post then
              row_of snap pre c :: take rest
            else take rest
          | _ -> []
        in
        take (Btree.to_seq snap.plane));
    following_siblings =
      (fun r ->
        match parent r with
        | None -> []
        | Some p ->
          List.filter
            (fun (x : Encoding.row) -> x.Encoding.pre > r.Encoding.pre)
            (elements (rows_of_set (child_set p))));
    preceding_siblings =
      (fun r ->
        match parent r with
        | None -> []
        | Some p ->
          List.filter
            (fun (x : Encoding.row) -> x.Encoding.pre < r.Encoding.pre)
            (elements (rows_of_set (child_set p))));
    by_name =
      (fun name ->
        match Smap.find_opt name snap.names with
        | Some set -> rows_of_set set
        | None -> []);
  }

(* ------------------------------------------------------------------ *)
(* Verification (--paranoid / the test suite)                          *)
(* ------------------------------------------------------------------ *)

let verify t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let snap = t.snap in
  let enc = Encoding.of_doc t.doc in
  let dense = Encoding.rows enc in
  let sparse = Btree.bindings snap.plane in
  let nd = List.length dense and ns = List.length sparse in
  (* the B+-tree invariants of every index, the rank sets included *)
  let shape =
    List.fold_left
      (fun acc (what, r) ->
        match (acc, r) with Ok (), Error e -> err "%s index: %s" what e | _ -> acc)
      (Ok ())
      ([
         ("plane", Btree.check snap.plane);
         ("pre_of", Btree.check snap.pre_of);
         ("post_of", Btree.check snap.post_of);
         ("kids", Btree.check snap.kids);
       ]
      @ Btree.fold (fun p set acc -> (Printf.sprintf "kids of %d" p, Iset.check set) :: acc)
          snap.kids []
      @ Smap.fold (fun name set acc -> ("name " ^ name, Iset.check set) :: acc) snap.names [])
  in
  if nd <> ns then err "size mismatch: %d rebuilt vs %d incremental" nd ns
  else if Result.is_error shape then shape
  else if snap.s_rev <> Tree.revision t.doc then
    err "stale snapshot: rev %d vs document rev %d" snap.s_rev (Tree.revision t.doc)
  else begin
    (* dense position of each sparse pre rank *)
    let pos = Hashtbl.create ns in
    List.iteri (fun i (pre, _) -> Hashtbl.replace pos pre i) sparse;
    let problem = ref None in
    let check i (d : Encoding.row) (pre, c) =
      let where what = Printf.sprintf "row %d (%s): %s" i c.x_name what in
      let fail what = if !problem = None then problem := Some (where what) in
      if c.x_id <> (Encoding.node_of_row enc d).Tree.id then fail "node id differs";
      if c.x_kind <> d.Encoding.kind then fail "kind differs";
      if c.x_name <> d.Encoding.name then fail "name differs";
      if c.x_value <> d.Encoding.value then fail "value differs";
      if c.x_level <> d.Encoding.level then fail "level differs";
      (match (d.Encoding.parent_pre, c.x_parent) with
      | None, -1 -> ()
      | None, p -> fail (Printf.sprintf "parent %d where rebuilt has none" p)
      | Some _, -1 -> fail "no parent where rebuilt has one"
      | Some dp, p -> (
        match Btree.find_opt p snap.pre_of with
        | None -> fail "parent not in pre_of"
        | Some ppre ->
          if Hashtbl.find_opt pos ppre <> Some dp then fail "parent rank order differs"));
      (match Btree.find_opt c.x_id snap.pre_of with
      | Some p when p = pre -> ()
      | _ -> fail "pre_of out of sync");
      (match Btree.find_opt c.x_post snap.post_of with
      | Some p when p = pre -> ()
      | _ -> fail "post_of out of sync");
      (match Smap.find_opt c.x_name snap.names with
      | Some set when Iset.mem pre set -> ()
      | _ -> fail "name index out of sync");
      if c.x_parent >= 0 then
        match Btree.find_opt c.x_parent snap.kids with
        | Some set when Iset.mem pre set -> ()
        | _ -> fail "child index out of sync"
    in
    List.iteri (fun i (d, s) -> check i d s) (List.combine dense sparse);
    (match !problem with
    | Some _ -> ()
    | None ->
      (* post-order isomorphism: sorting positions by sparse post must
         reproduce the rebuilt postorder permutation *)
      let by_sparse_post =
        List.map snd
          (List.sort compare (List.map (fun (pre, c) -> (c.x_post, Hashtbl.find pos pre)) sparse))
      in
      let by_dense_post =
        List.map snd (List.sort compare (List.map (fun (d : Encoding.row) -> (d.Encoding.post, d.Encoding.pre)) dense))
      in
      if by_sparse_post <> by_dense_post then problem := Some "postorder permutation differs");
    match !problem with None -> Ok () | Some msg -> Error msg
  end
