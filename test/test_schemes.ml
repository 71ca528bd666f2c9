(* Behavioural tests for every registered labelling scheme, checked
   against the structural oracle. *)

open Repro_xml
open Repro_workload

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let make_doc ~seed ~nodes () =
  Docgen.generate ~seed { Docgen.default_shape with target_nodes = nodes }

(* Schemes whose algebra is total and collision-free. *)
let well_behaved = Repro_schemes.Registry.well_behaved

let scheme_case name f =
  List.map
    (fun pack ->
      let sname = Core.Scheme.name pack in
      ( Printf.sprintf "%s [%s]" name sname,
        `Quick,
        fun () -> f pack ))
    well_behaved

(* ------------------------------------------------------------------ *)
(* Document order and uniqueness after mixed updates                   *)
(* ------------------------------------------------------------------ *)

let order_after_updates pack =
  List.iter
    (fun (pattern, ops) ->
      let doc = make_doc ~seed:11 ~nodes:50 () in
      let session = Core.Session.make pack doc in
      Updates.run pattern ~seed:13 ~ops session;
      if not (Core.Session.order_consistent ~all_pairs:true session) then
        Alcotest.failf "%s: document order violated after %s"
          session.Core.Session.scheme_name (Updates.pattern_name pattern);
      if Core.Session.has_duplicate_labels session then
        Alcotest.failf "%s: duplicate labels after %s" session.Core.Session.scheme_name
          (Updates.pattern_name pattern);
      match Tree.validate doc with
      | Ok () -> ()
      | Error e -> Alcotest.failf "tree invariant broken: %s" e)
    [
      (Updates.Uniform_random, 60);
      (Updates.Skewed_before_first, 40);
      (Updates.Skewed_after_anchor, 40);
      (Updates.Mixed_with_deletes, 60);
      (Updates.Subtree_bursts, 20);
      (Updates.Deep_chain, 25);
    ]

(* ------------------------------------------------------------------ *)
(* Structural predicates against the oracle                            *)
(* ------------------------------------------------------------------ *)

let predicates_against_oracle pack =
  let doc = make_doc ~seed:17 ~nodes:60 () in
  let session = Core.Session.make pack doc in
  Updates.run Updates.Uniform_random ~seed:19 ~ops:40 session;
  let nodes = Tree.preorder doc in
  let check_pred name pred oracle =
    match pred with
    | None -> ()
    | Some f ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if a.Tree.id <> b.Tree.id && f a b <> oracle a b then
                Alcotest.failf "%s: %s disagrees with the tree for %s/%s"
                  session.Core.Session.scheme_name name a.Tree.name b.Tree.name)
            nodes)
        nodes
  in
  check_pred "is_ancestor" session.is_ancestor Oracle.is_ancestor;
  check_pred "is_parent" session.is_parent Oracle.is_parent;
  check_pred "is_sibling" session.is_sibling Oracle.is_sibling;
  match session.level_of with
  | None -> ()
  | Some lvl ->
    List.iter
      (fun n ->
        if lvl n <> Oracle.level n then
          Alcotest.failf "%s: level wrong at %s" session.Core.Session.scheme_name n.Tree.name)
      nodes

(* ------------------------------------------------------------------ *)
(* Subtree insertion = the serialised sequence of node insertions      *)
(* ------------------------------------------------------------------ *)

let subtree_insertion pack =
  let doc = make_doc ~seed:23 ~nodes:30 () in
  let session = Core.Session.make pack doc in
  let target = List.nth (Tree.children (Tree.root doc)) 0 in
  let frag =
    Tree.elt "sub" [ Tree.elt "a" [ Tree.attr "k" "v"; Tree.elt "b" [] ]; Tree.elt "c" [] ]
  in
  let inserted = session.Core.Session.insert_last target frag in
  check Alcotest.int "subtree linked" 5 (1 + List.length (Tree.descendants inserted));
  if not (Core.Session.order_consistent ~all_pairs:true session) then
    Alcotest.fail "order broken by subtree insertion";
  (* every node of the fresh subtree has a label *)
  List.iter
    (fun n -> ignore (session.Core.Session.label_string n))
    (inserted :: Tree.descendants inserted)

(* ------------------------------------------------------------------ *)
(* Deletion leaves the remaining labels consistent                     *)
(* ------------------------------------------------------------------ *)

let deletion_consistency pack =
  let doc = make_doc ~seed:29 ~nodes:50 () in
  let session = Core.Session.make pack doc in
  let victims =
    List.filteri (fun i _ -> i mod 7 = 3)
      (List.filter (fun (n : Tree.node) -> Tree.parent n <> None) (Tree.preorder doc))
  in
  List.iter
    (fun v -> if Tree.mem doc v.Tree.id then session.Core.Session.delete v)
    victims;
  if not (Core.Session.order_consistent ~all_pairs:true session) then
    Alcotest.fail "order broken by deletions";
  Updates.run Updates.Uniform_random ~seed:31 ~ops:30 session;
  if not (Core.Session.order_consistent ~all_pairs:true session) then
    Alcotest.fail "order broken by post-deletion insertions"

(* ------------------------------------------------------------------ *)
(* Persistence (snapshot-based, independent of the Stats counters)     *)
(* ------------------------------------------------------------------ *)

let persistent_schemes = [ "ORDPATH"; "ImprovedBinary"; "QED"; "CDQS"; "Vector"; "Prime"; "DDE" ]

let snapshot_persistence () =
  List.iter
    (fun name ->
      let pack = Option.get (Repro_schemes.Registry.find name) in
      let doc = make_doc ~seed:37 ~nodes:40 () in
      let session = Core.Session.make pack doc in
      let before = Core.Session.labels_snapshot session in
      Updates.run Updates.Uniform_random ~seed:41 ~ops:50 session;
      Updates.run Updates.Skewed_before_first ~seed:43 ~ops:30 session;
      let after = Core.Session.labels_snapshot session in
      List.iter
        (fun (id, old_label) ->
          match List.assoc_opt id after with
          | Some l when l = old_label -> ()
          | Some l -> Alcotest.failf "%s: node %d relabelled %s -> %s" name id old_label l
          | None -> Alcotest.failf "%s: node %d vanished" name id)
        before)
    persistent_schemes

let dewey_relabels_snapshot () =
  let pack = Option.get (Repro_schemes.Registry.find "DeweyID") in
  let doc = Samples.figure3_tree () in
  let session = Core.Session.make pack doc in
  let before = Core.Session.labels_snapshot session in
  let first = Option.get (Tree.first_child (Tree.root doc)) in
  ignore (session.Core.Session.insert_before first (Tree.elt "new" []));
  let after = Core.Session.labels_snapshot session in
  let changed =
    List.length
      (List.filter
         (fun (id, l) ->
           match List.assoc_opt id after with Some l' -> l' <> l | None -> true)
         before)
  in
  (* all three children and their six descendants shift *)
  check Alcotest.int "DeweyID relabels following siblings and subtrees" 9 changed

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let figures_match () =
  List.iter
    (fun (f : Repro_framework.Figures.figure) ->
      if not f.matches then
        Alcotest.failf "%s does not match the paper:\n%s" f.id f.rendered)
    (Repro_framework.Figures.all ())

(* ------------------------------------------------------------------ *)
(* LSDX's documented defect                                            *)
(* ------------------------------------------------------------------ *)

let lsdx_collision () =
  let r = Repro_framework.Claims.cl6 () in
  check Alcotest.bool "collision reproduced (CL6)" true r.Repro_framework.Claims.holds

let lsdx_reuses_labels_on_delete () =
  let doc = Samples.abstract_tree [ 4 ] in
  let session = Core.Session.make (module Repro_schemes.Lsdx : Core.Scheme.S) doc in
  let c1 = List.nth (Tree.children (Tree.root doc)) 0 in
  let second = List.nth (Tree.children c1) 1 in
  let freed = session.Core.Session.label_string second in
  session.Core.Session.delete second;
  (* the old third child takes over the freed identifier *)
  let labels =
    List.map (fun n -> session.Core.Session.label_string n) (Tree.children c1)
  in
  check Alcotest.bool "freed label reused" true (List.mem freed labels)

(* ------------------------------------------------------------------ *)
(* Prime specifics                                                     *)
(* ------------------------------------------------------------------ *)

let prime_divisibility () =
  let doc = Samples.book () in
  let state = Repro_schemes.Prime.create doc in
  let label n = Repro_schemes.Prime.label state n in
  let nodes = Tree.preorder doc in
  let anc = Option.get Repro_schemes.Prime.is_ancestor in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a.Tree.id <> b.Tree.id then
            check Alcotest.bool
              (Printf.sprintf "divisibility ancestor %s/%s" a.Tree.name b.Tree.name)
              (Oracle.is_ancestor a b)
              (anc (label a) (label b)))
        nodes)
    nodes;
  let sc, covered = Repro_schemes.Prime.sc_value state in
  check Alcotest.bool "SC covers some nodes" true (covered > 0);
  check Alcotest.bool "SC value is nontrivial" true (not (Repro_codes.Bignat.is_zero sc))

let prime_sc_residues () =
  (* The CRT book really answers order queries for covered nodes. *)
  let doc = make_doc ~seed:47 ~nodes:30 () in
  let state = Repro_schemes.Prime.create doc in
  let _ = Repro_schemes.Prime.sc_value state in
  let nodes = Array.of_list (Tree.preorder doc) in
  Array.iteri
    (fun i n ->
      let l = Repro_schemes.Prime.label state n in
      check Alcotest.int (Printf.sprintf "order key of node %d" i) i l.Repro_schemes.Prime.order_key)
    nodes

(* ------------------------------------------------------------------ *)
(* Property test: random update scripts keep every scheme ordered      *)
(* ------------------------------------------------------------------ *)

let arb_script = QCheck.int_bound 10_000

let random_scripts_property =
  QCheck.Test.make ~name:"random update scripts preserve order for all schemes" ~count:25
    arb_script (fun seed ->
      List.for_all
        (fun pack ->
          let doc = make_doc ~seed:(seed + 1) ~nodes:25 () in
          let session = Core.Session.make pack doc in
          Updates.run Updates.Uniform_random ~seed ~ops:25 session;
          Updates.run Updates.Mixed_with_deletes ~seed:(seed * 3) ~ops:20 session;
          Core.Session.order_consistent ~all_pairs:true session
          && not (Core.Session.has_duplicate_labels session))
        well_behaved)

let suite =
  scheme_case "order and uniqueness after updates" order_after_updates
  @ scheme_case "predicates agree with the oracle" predicates_against_oracle
  @ scheme_case "subtree insertion" subtree_insertion
  @ scheme_case "deletion consistency" deletion_consistency
  @ [
      ("snapshot persistence of persistent schemes", `Quick, snapshot_persistence);
      ("DeweyID relabelling counted by snapshot", `Quick, dewey_relabels_snapshot);
      ("figures 1-6 match the paper", `Quick, figures_match);
      ("LSDX collision (CL6)", `Quick, lsdx_collision);
      ("LSDX reuses labels on deletion", `Quick, lsdx_reuses_labels_on_delete);
      ("Prime divisibility ancestors", `Quick, prime_divisibility);
      ("Prime SC order book", `Quick, prime_sc_residues);
      qcheck random_scripts_property;
    ]

(* The CKM bit-code schemes (the survey's omitted citation [4]): appends
   work, non-append insertion breaks document order — by design. *)
let ckm_behaviour () =
  List.iter
    (fun pack ->
      let doc = Samples.figure3_tree () in
      let session = Core.Session.make pack doc in
      check Alcotest.bool "initial order" true
        (Core.Session.order_consistent ~all_pairs:true session);
      (* labels must still roundtrip through the codec *)
      List.iter
        (fun n ->
          check Alcotest.bool "codec roundtrip" true (session.Core.Session.codec_roundtrips n))
        (Tree.preorder doc);
      let root = Tree.root doc in
      ignore (session.Core.Session.insert_last root (Tree.elt "appended" []));
      check Alcotest.bool "appends keep order" true
        (Core.Session.order_consistent ~all_pairs:true session);
      let first = Option.get (Tree.first_child root) in
      ignore (session.Core.Session.insert_before first (Tree.elt "grey" []));
      check Alcotest.bool "before-first breaks order" false
        (Core.Session.order_consistent ~all_pairs:true session))
    Repro_schemes.Registry.omitted

let ckm_codes () =
  (* "the positional identifier of the first child of node u is 0, of the
     second child is 10, of the third child is 110" *)
  let doc = Samples.abstract_tree [ 0; 0; 0 ] in
  let session = Core.Session.make (module Repro_schemes.Ckm_bitcode.One : Core.Scheme.S) doc in
  let labels =
    List.map session.Core.Session.label_string (Tree.children (Tree.root doc))
  in
  check (Alcotest.list Alcotest.string) "paper's code sequence" [ "0"; "10"; "110" ] labels

(* ------------------------------------------------------------------ *)
(* Prefix labels share their paths                                     *)
(* ------------------------------------------------------------------ *)

let prefix_schemes : Core.Scheme.packed list =
  Repro_schemes.
    [
      (module Qed);
      (module Ordpath);
      (module Cdqs);
      (module Cdbs);
      (module Com_d);
      (module Dewey);
      (module Dln);
      (module Lsdx);
      (module Improved_binary);
      (module Vector_scheme);
    ]

(* A prefix label holds the node's whole path, but a node's label shares
   its parent's, so a 1,000-deep chain costs a bounded number of words per
   node rather than one copy of the path each. The bound must survive a
   store round trip: restoring shares paths as well. *)
let deep_chain_memory () =
  let depth = 1000 in
  let rec chain k = Tree.elt "e" (if k = 1 then [] else [ chain (k - 1) ]) in
  let words_per_node session =
    Obj.reachable_words (Obj.repr session) / Tree.size session.Core.Session.doc
  in
  List.iter
    (fun pack ->
      let name = Core.Scheme.name pack in
      let session = Core.Session.make pack (Tree.create (chain depth)) in
      check Alcotest.int "chain size" depth (Tree.size session.Core.Session.doc);
      let live = words_per_node session in
      if live > 100 then Alcotest.failf "%s: %d words per node in a deep chain" name live;
      let reloaded = Repro_storage.Store.load (Repro_storage.Store.save session) in
      let restored = words_per_node reloaded in
      if restored > 100 then
        Alcotest.failf "%s: %d words per node in a restored deep chain" name restored)
    Repro_schemes.[ (module Qed : Core.Scheme.S); (module Ordpath); (module Dewey) ]

(* A labelled document driven straight through the scheme (as the session
   does), so the test holds the scheme's own label values. *)
let random_updates (type s) (module S : Core.Scheme.S with type t = s) (state : s) doc ~seed
    ~ops =
  let rng = Repro_codes.Prng.create seed in
  let settle n = List.iter (S.after_insert state) (n :: Tree.descendants n) in
  for _ = 1 to ops do
    let elements =
      Array.of_list
        (List.filter (fun (n : Tree.node) -> n.kind = Tree.Element) (Tree.preorder doc))
    in
    let n = Repro_codes.Prng.choose rng elements in
    let fresh () = Tree.elt "u" [ Tree.elt "v" [] ] in
    match (Repro_codes.Prng.int rng 5, Tree.parent n) with
    | 0, Some _ when Tree.children n = [] ->
      S.before_delete state n;
      Tree.delete doc n
    | (0 | 1), _ -> settle (Tree.insert_first_child doc n (fresh ()))
    | 2, _ -> settle (Tree.insert_last_child doc n (fresh ()))
    | 3, Some _ -> settle (Tree.insert_before doc n (fresh ()))
    | _, Some _ -> settle (Tree.insert_after doc n (fresh ()))
    | _, None -> settle (Tree.insert_last_child doc n (fresh ()))
  done

(* The label-only predicates against the oracle, on labels of three
   provenances: live ones, which share their paths; ones rebuilt by
   [decode_label (encode_label l)], which share nothing (what the wire
   query path compares); and pairs mixing the two. *)
let mixed_provenance_predicates () =
  List.iter
    (fun (module S : Core.Scheme.S) ->
      let doc = make_doc ~seed:53 ~nodes:60 () in
      let state = S.create doc in
      random_updates (module S) state doc ~seed:59 ~ops:40;
      let nodes = Array.of_list (Tree.preorder doc) in
      let live = Array.map (S.label state) nodes in
      let decoded =
        Array.map
          (fun l ->
            let bytes, bits = S.encode_label l in
            S.decode_label bytes bits)
          live
      in
      let fails what i j =
        Alcotest.failf "%s: %s wrong for %s/%s" S.name what (S.label_to_string live.(i))
          (S.label_to_string live.(j))
      in
      let pred what f oracle la lb i j =
        match f with
        | Some f -> if f la.(i) lb.(j) <> oracle nodes.(i) nodes.(j) then fails what i j
        | None -> ()
      in
      let case la lb =
        Array.iteri
          (fun i a ->
            Array.iteri
              (fun j b ->
                let order = compare (S.compare_order la.(i) lb.(j)) 0 in
                if order <> compare (Oracle.document_order a b) 0 then fails "compare_order" i j;
                if S.equal_label la.(i) lb.(j) <> (i = j) then fails "equal_label" i j;
                pred "is_ancestor" S.is_ancestor Oracle.is_ancestor la lb i j;
                pred "is_parent" S.is_parent Oracle.is_parent la lb i j;
                pred "is_sibling" S.is_sibling Oracle.is_sibling la lb i j)
              nodes;
            match S.level_of with
            | Some level when level la.(i) <> Oracle.level a -> fails "level_of" i i
            | _ -> ())
          nodes
      in
      case live live;
      case decoded decoded;
      case live decoded;
      case decoded live)
    prefix_schemes

let suite =
  suite
  @ [
      ("CKM omitted schemes behaviour", `Quick, ckm_behaviour);
      ("CKM code sequence matches the paper", `Quick, ckm_codes);
      ("prefix labels share paths in a deep chain", `Quick, deep_chain_memory);
      ("prefix predicates on live, decoded and mixed labels", `Quick, mixed_provenance_predicates);
    ]
