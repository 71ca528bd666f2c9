(* Tests for the incrementally-maintained axis index: after every op of a
   seeded 1k-op mixed workload per registered scheme the incremental
   structure must be order-isomorphic to a fresh rebuild; query answers
   through its snapshots must agree with both the scan evaluator and the
   dense batch index; and snapshots must be genuinely immutable under
   further mutation. *)

open Repro_workload
open Repro_encoding

let base_doc seed = Docgen.generate ~seed { Docgen.default_shape with target_nodes = 60 }

(* The tentpole invariant at the finest grain: incremental == rebuilt
   after every single operation, for every registered scheme (each drives
   its own relabelling machinery over the same mutating tree). *)
let incremental_matches_rebuild () =
  List.iter
    (fun pack ->
      let name = Core.Scheme.name pack in
      let session = Core.Session.make pack (base_doc 47) in
      let inc = Axis_inc.create session.Core.Session.doc in
      (match Axis_inc.verify inc with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: diverged before any operation: %s" name msg);
      let d = Updates.start Updates.Mixed_with_deletes ~seed:47 session in
      for op = 1 to 1000 do
        Updates.step d;
        match Axis_inc.verify inc with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "%s: diverged after op %d: %s" name op msg
      done;
      Axis_inc.detach inc)
    Repro_schemes.Registry.all

(* Sparse ranks are only ordered, not dense, so cross-engine comparisons
   project rows onto their rank-free content. *)
let shape (r : Encoding.row) = (r.kind, r.level, r.name, r.value)

let queries =
  [
    "//item";
    "//section//field";
    "//entry[field]";
    "//*";
    "//group/@*";
    "//record[2]";
    "/*/*";
    "//item/following-sibling::*";
    "//field/ancestor::*";
    "//list[count(item) > 0]";
    "//meta/../*";
    "/descendant-or-self::node()";
  ]

let twigs = [ "item[field]"; "section[//field]"; "entry[field][//meta]" ]

(* Under a mutating workload, every wire-servable answer path must agree:
   eval_src over the incremental snapshot == the scan reference over the
   same snapshot rows (identical sparse rows), and both isomorphic to the
   dense batch index over a fresh encoding. *)
let snapshot_queries_agree () =
  let session = Core.Session.make (module Repro_schemes.Qed : Core.Scheme.S) (base_doc 91) in
  let doc = session.Core.Session.doc in
  let inc = Axis_inc.create doc in
  let d = Updates.start Updates.Mixed_with_deletes ~seed:91 session in
  for round = 1 to 20 do
    for _ = 1 to 25 do
      Updates.step d
    done;
    let snap = Axis_inc.snapshot inc in
    let src = Axis_inc.source snap in
    let enc = Encoding.of_doc doc in
    Alcotest.(check int)
      (Printf.sprintf "round %d: snapshot rev tracks the document" round)
      (Repro_xml.Tree.revision doc) (Axis_inc.rev snap);
    List.iter
      (fun q ->
        let served = Xpath.eval_src src q in
        let scanned = Xpath.eval_scan_rows (Axis_inc.rows snap) (Xpath.parse q) in
        if served <> scanned then
          Alcotest.failf "round %d: %s: incremental and scan answers differ" round q;
        let dense = Xpath.eval enc q in
        Alcotest.(check int)
          (Printf.sprintf "round %d: %s: answer size vs dense index" round q)
          (List.length dense) (List.length served);
        if List.map shape served <> List.map shape dense then
          Alcotest.failf "round %d: %s: incremental and dense answers differ" round q)
      queries;
    List.iter
      (fun pat ->
        let t = Twig.parse pat in
        let inc_rows = Twig.matches_src src t in
        let dense_rows = Twig.matches (Axis_index.build enc) t in
        if List.map shape inc_rows <> List.map shape dense_rows then
          Alcotest.failf "round %d: twig %s: incremental and dense matches differ" round pat)
      twigs
  done;
  Axis_inc.detach inc

(* A snapshot taken before a mutation must not see it (persistent
   indexes, the lock-free publication story of both server cores). The
   document spans many leaves, so updates copy inner nodes as well. *)
let snapshots_are_immutable () =
  let session =
    Core.Session.make
      (module Repro_schemes.Qed : Core.Scheme.S)
      (Docgen.generate ~seed:7 { Docgen.default_shape with target_nodes = 1000 })
  in
  let doc = session.Core.Session.doc in
  let inc = Axis_inc.create doc in
  let before = Axis_inc.snapshot inc in
  let frozen = Axis_inc.rows before in
  let d = Updates.start Updates.Mixed_with_deletes ~seed:7 session in
  for _ = 1 to 200 do
    Updates.step d
  done;
  Alcotest.(check bool) "old snapshot rows unchanged" true (Axis_inc.rows before = frozen);
  Alcotest.(check bool) "new snapshot differs" true
    (Axis_inc.rows (Axis_inc.snapshot inc) <> frozen);
  Alcotest.(check bool) "maintenance was counted" true ((Axis_inc.stats inc).Axis_inc.ops >= 200);
  Axis_inc.detach inc

(* After detach the index stops following the document — and says so. *)
let detach_stops_maintenance () =
  let session = Core.Session.make (module Repro_schemes.Qed : Core.Scheme.S) (base_doc 3) in
  let inc = Axis_inc.create session.Core.Session.doc in
  Axis_inc.detach inc;
  let d = Updates.start Updates.Mixed_with_deletes ~seed:3 session in
  for _ = 1 to 20 do
    Updates.step d
  done;
  match Axis_inc.verify inc with
  | Ok () -> Alcotest.fail "detached index still tracked the document"
  | Error _ -> ()

(* The index on a document that spans hundreds of leaves, under a storm
   that splits and merges them and exhausts rank gaps: mixed inserts and
   deletes, a run of inserts behind one anchor (each halves the same gap
   until a window is renumbered), whole-fragment bursts, then deletion of
   all but 150 nodes one at a time, which
   merges leaves and collapses the trees' inner levels. *)
let storm_on_a_large_document () =
  let doc = Docgen.generate ~seed:5 { Docgen.default_shape with target_nodes = 3000 } in
  let session = Core.Session.make (module Repro_schemes.Qed : Core.Scheme.S) doc in
  let inc = Axis_inc.create doc in
  let ops = ref 0 in
  let verify () =
    match Axis_inc.verify inc with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "diverged after op %d: %s" !ops msg
  in
  verify ();
  List.iter
    (fun (pattern, n, seed) ->
      let d = Updates.start pattern ~seed session in
      for _ = 1 to n do
        Updates.step d;
        incr ops;
        if !ops mod 25 = 0 then verify ()
      done;
      verify ())
    [
      (Updates.Mixed_with_deletes, 600, 1);
      (Updates.Skewed_after_anchor, 300, 2);
      (Updates.Subtree_bursts, 100, 3);
      (Updates.Skewed_before_first, 200, 4);
      (Updates.Mixed_with_deletes, 600, 5);
    ];
  let peak = Axis_inc.size (Axis_inc.snapshot inc) in
  Alcotest.(check bool) (Printf.sprintf "the storm kept %d nodes indexed" peak) true (peak >= 3000);
  Alcotest.(check bool) "rank gaps ran out and windows were renumbered" true
    ((Axis_inc.stats inc).Axis_inc.renumbered > 0);
  (* in reverse document order each deletion removes one childless node;
     the document element comes last and is never reached *)
  List.iter
    (fun (n : Repro_xml.Tree.node) ->
      if Repro_xml.Tree.size doc > 150 then begin
        session.Core.Session.delete n;
        incr ops;
        if !ops mod 25 = 0 then verify ()
      end)
    (List.rev (Repro_xml.Tree.preorder doc));
  verify ();
  Alcotest.(check bool) "the document shrank to a few nodes" true
    (Axis_inc.size (Axis_inc.snapshot inc) = 150);
  Axis_inc.detach inc

(* What the served index costs on the benchmark's 8,000-node document,
   counted as the words a snapshot adds to the tree it indexes (names and
   values are the tree's own strings), and what one insert adds to the
   old and new snapshots together: only the copied root-to-leaf paths. *)
let footprint () =
  let doc = Docgen.generate ~seed:7920 { Docgen.default_shape with target_nodes = 8000 } in
  let inc = Axis_inc.create doc in
  let old_snap = Axis_inc.snapshot inc in
  let anchor =
    List.find
      (fun (n : Repro_xml.Tree.node) ->
        n.Repro_xml.Tree.kind = Repro_xml.Tree.Element && Repro_xml.Tree.level n = 3)
      (List.filteri (fun i _ -> i >= 4000) (Repro_xml.Tree.preorder doc))
  in
  ignore (Repro_xml.Tree.insert_after doc anchor (Repro_xml.Tree.elt "probe" []));
  let new_snap = Axis_inc.snapshot inc in
  (* the observer would make the tree reach the index *)
  Axis_inc.detach inc;
  let words x = Obj.reachable_words (Obj.repr x) in
  let nodes = Axis_inc.size old_snap in
  let bytes_per_node =
    float_of_int ((words (doc, old_snap) - words doc) * (Sys.word_size / 8))
    /. float_of_int nodes
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d-node snapshot costs %.1f B/node (at most 160)" nodes bytes_per_node)
    true (bytes_per_node <= 160.);
  (* five indexes plus a name set and a child set, each copying at most
     three levels (an 8,000-entry tree with nodes at least half full is
     at most two inner levels deep), each level at most two nodes of two
     arrays of [width + 1] words when it splits *)
  let bound = 7 * 3 * 2 * ((2 * (Btree.width + 1)) + 3) in
  let added = words (doc, old_snap, new_snap) - words (doc, old_snap) in
  Alcotest.(check bool)
    (Printf.sprintf "one insert adds %d words (at most %d)" added bound)
    true (added <= bound)

let suite =
  [
    ( "incremental index equals full rebuild after every op (all schemes)",
      `Slow,
      incremental_matches_rebuild );
    ("snapshot queries agree with scan and dense engines", `Slow, snapshot_queries_agree);
    ("snapshots are immutable under further mutation", `Quick, snapshots_are_immutable);
    ("detach stops maintenance", `Quick, detach_stops_maintenance);
    ("storm on a 3,000-node document", `Slow, storm_on_a_large_document);
    ("snapshot footprint on an 8,000-node document", `Quick, footprint);
  ]
