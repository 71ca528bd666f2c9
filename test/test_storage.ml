(* Tests for the store: labels survive a save/load cycle byte for byte,
   for every scheme, and corruption is detected. *)

open Repro_xml

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let updated_session pack seed =
  let doc =
    Repro_workload.Docgen.generate ~seed
      { Repro_workload.Docgen.default_shape with target_nodes = 40 }
  in
  let session = Core.Session.make pack doc in
  Repro_workload.Updates.run Repro_workload.Updates.Uniform_random ~seed ~ops:25 session;
  Repro_workload.Updates.run Repro_workload.Updates.Skewed_before_first ~seed:(seed + 1)
    ~ops:10 session;
  session

let flat session =
  List.map
    (fun (n : Tree.node) ->
      (n.name, n.value, Tree.level n, session.Core.Session.label_string n))
    (Tree.preorder session.Core.Session.doc)

let roundtrip_all_schemes =
  QCheck.Test.make ~name:"save/load preserves structure and every label" ~count:8
    (QCheck.int_bound 10_000) (fun seed ->
      List.for_all
        (fun pack ->
          let original = updated_session pack seed in
          let reloaded = Repro_storage.Store.load (Repro_storage.Store.save original) in
          flat original = flat reloaded
          && (reloaded.Core.Session.stats ()).Core.Stats.s_relabelled = 0)
        Repro_schemes.Registry.well_behaved)

let reload_continues_updating () =
  (* A reloaded QED store keeps absorbing updates without relabelling,
     and references recorded before the save still resolve. *)
  let original = updated_session (module Repro_schemes.Qed : Core.Scheme.S) 5 in
  let remembered =
    List.map original.Core.Session.label_string
      (Tree.preorder original.Core.Session.doc)
  in
  let reloaded = Repro_storage.Store.load (Repro_storage.Store.save original) in
  Repro_workload.Updates.run Repro_workload.Updates.Uniform_random ~seed:6 ~ops:30 reloaded;
  let live =
    List.map reloaded.Core.Session.label_string (Tree.preorder reloaded.Core.Session.doc)
  in
  List.iter
    (fun l ->
      check Alcotest.bool (Printf.sprintf "label %s survived" l) true (List.mem l live))
    remembered;
  check Alcotest.int "no relabelling after reload" 0
    (reloaded.Core.Session.stats ()).Core.Stats.s_relabelled;
  check Alcotest.bool "order consistent" true
    (Core.Session.order_consistent ~all_pairs:true reloaded)

let scheme_name_recorded () =
  let session = Core.Session.make (module Repro_schemes.Cdqs : Core.Scheme.S) (Samples.book ()) in
  let data = Repro_storage.Store.save session in
  check Alcotest.string "recorded scheme" "CDQS" (Repro_storage.Store.scheme_of data);
  (* explicit scheme must match *)
  match
    Repro_storage.Store.load ~scheme:(module Repro_schemes.Qed : Core.Scheme.S) data
  with
  | exception Repro_storage.Store.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected a scheme mismatch error"

let corruption_detected () =
  let session = Core.Session.make (module Repro_schemes.Qed : Core.Scheme.S) (Samples.book ()) in
  let data = Repro_storage.Store.save session in
  let expect_corrupt what mutated =
    match Repro_storage.Store.load mutated with
    | exception Repro_storage.Store.Corrupt _ -> ()
    | _ -> Alcotest.fail ("corruption not detected: " ^ what)
  in
  expect_corrupt "flipped byte"
    (String.mapi (fun i c -> if i = String.length data / 2 then Char.chr (Char.code c lxor 0x40) else c) data);
  expect_corrupt "truncation" (String.sub data 0 (String.length data - 7));
  expect_corrupt "bad magic" ("YYYY" ^ String.sub data 4 (String.length data - 4));
  expect_corrupt "empty" ""

let file_roundtrip () =
  let session = updated_session (module Repro_schemes.Ordpath : Core.Scheme.S) 11 in
  let path = Filename.temp_file "xlstore" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Repro_storage.Store.save_file session path;
      let reloaded = Repro_storage.Store.load_file path in
      check Alcotest.bool "file roundtrip" true (flat session = flat reloaded))

let suite =
  [
    ("reload continues updating", `Quick, reload_continues_updating);
    ("scheme name recorded", `Quick, scheme_name_recorded);
    ("corruption detected", `Quick, corruption_detected);
    ("file roundtrip", `Quick, file_roundtrip);
    qcheck roundtrip_all_schemes;
  ]

(* Fuzz the loader: arbitrary byte corruption must surface as [Corrupt]
   (or load successfully if it missed everything that matters) — never as
   any other exception. *)
let loader_never_crashes =
  QCheck.Test.make ~name:"corrupted stores fail cleanly" ~count:300
    (QCheck.triple (QCheck.int_bound 1000) (QCheck.int_bound 10_000) (QCheck.int_bound 255))
    (fun (seed, pos_seed, byte) ->
      let session = updated_session (module Repro_schemes.Qed : Core.Scheme.S) seed in
      let data = Repro_storage.Store.save session in
      let pos = pos_seed mod String.length data in
      let mutated =
        String.mapi (fun i c -> if i = pos then Char.chr byte else c) data
      in
      match Repro_storage.Store.load mutated with
      | _ -> true
      | exception Repro_storage.Store.Corrupt _ -> true
      | exception _ -> false)

(* Truncations at every length must also fail cleanly. *)
let truncations_fail_cleanly =
  QCheck.Test.make ~name:"truncated stores fail cleanly" ~count:200
    (QCheck.int_bound 10_000) (fun cut_seed ->
      let session = Core.Session.make (module Repro_schemes.Ordpath : Core.Scheme.S)
          (Repro_xml.Samples.book ()) in
      let data = Repro_storage.Store.save session in
      let cut = cut_seed mod String.length data in
      match Repro_storage.Store.load (String.sub data 0 cut) with
      | _ -> false (* a strict prefix can never carry a valid checksum *)
      | exception Repro_storage.Store.Corrupt _ -> true
      | exception _ -> false)

(* Corruption diagnostics must name what broke: a wrong checksum says so
   (with both sums), and a truncated store says which section the data ran
   out under — at any cut point. *)
let sections =
  [ "scheme name"; "node count"; "name dictionary"; "node tag"; "child count"; "node value";
    "node label" ]

let corruption_messages () =
  let session = updated_session (module Repro_schemes.Qed : Core.Scheme.S) 7 in
  let data = Repro_storage.Store.save session in
  let message what mutated =
    match Repro_storage.Store.load mutated with
    | _ -> Alcotest.failf "%s loaded successfully" what
    | exception Repro_storage.Store.Corrupt msg -> msg
  in
  (* a damaged checksum names the mismatch, not a phantom truncation *)
  let bad_crc =
    String.mapi
      (fun i c -> if i = String.length data - 1 then Char.chr (Char.code c lxor 0xFF) else c)
      data
  in
  let msg = message "bad crc" bad_crc in
  check Alcotest.bool
    (Printf.sprintf "checksum message names the mismatch: %S" msg)
    true
    (String.length msg >= 17 && String.sub msg 0 17 = "checksum mismatch");
  (* short header truncations *)
  let msg = message "cut inside the magic" (String.sub data 0 2) in
  check Alcotest.bool
    (Printf.sprintf "header truncation reported: %S" msg)
    true
    (String.sub msg 0 9 = "truncated");
  (* every deeper cut raises [Corrupt]; most are diagnosed as truncation,
     and each truncation message names a real section *)
  let truncated = ref 0 and named = ref 0 and total = ref 0 in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  for cut = 8 to String.length data - 1 do
    incr total;
    let msg = message (Printf.sprintf "cut at %d" cut) (String.sub data 0 cut) in
    if String.length msg >= 9 && String.sub msg 0 9 = "truncated" then begin
      incr truncated;
      if List.exists (contains msg) sections then incr named
    end
  done;
  check Alcotest.bool "most cuts are diagnosed as truncation" true
    (!truncated * 2 > !total);
  check Alcotest.int "every truncation message names its section" !truncated !named

(* Satellite: the save/load round trip over *every* registered scheme (the
   qcheck above samples only the well-behaved set), with the codec checked
   node by node and document order compared after reload. *)
let roundtrip_every_registered_scheme () =
  List.iter
    (fun pack ->
      let name = Core.Scheme.name pack in
      let original = updated_session pack 13 in
      let reloaded = Repro_storage.Store.load (Repro_storage.Store.save original) in
      check Alcotest.bool
        (name ^ ": structure, values and labels survive the round trip")
        true
        (flat original = flat reloaded);
      check Alcotest.int (name ^ ": no relabelling on load") 0
        (reloaded.Core.Session.stats ()).Core.Stats.s_relabelled;
      List.iter
        (fun (n : Tree.node) ->
          check Alcotest.bool
            (Printf.sprintf "%s: codec round-trips at %s" name n.name)
            true
            (reloaded.Core.Session.codec_roundtrips n))
        (Tree.preorder reloaded.Core.Session.doc))
    Repro_schemes.Registry.all

(* The store's footprint on the benchmark's 8,000-node documents: names
   go through the dictionary, framing is LEB128 and labels share their
   prefix with the previous label, so a node costs at most 15 bytes. *)
let compact_on_large_documents () =
  let doc () =
    Repro_workload.Docgen.generate ~seed:7920
      { Repro_workload.Docgen.default_shape with target_nodes = 8000 }
  in
  List.iter
    (fun pack ->
      let session = Core.Session.make pack (doc ()) in
      let nodes = Tree.size session.Core.Session.doc in
      let bytes = String.length (Repro_storage.Store.save session) in
      check Alcotest.int "document size" 8000 nodes;
      check Alcotest.bool
        (Printf.sprintf "%s: %d bytes for %d nodes is at most 15 B/node"
           (Core.Scheme.name pack) bytes nodes)
        true
        (bytes <= 15 * nodes))
    [ (module Repro_schemes.Qed : Core.Scheme.S); (module Repro_schemes.Ordpath : Core.Scheme.S) ]

(* Hostile stores whose checksum is valid, so the decoder's own bounds
   must reject them: one single-byte field of a saved store is replaced
   and the store re-sealed with a fresh CRC. *)
let hostile_inputs () =
  let doc =
    Tree.create
      (Tree.elt "r"
         [ Tree.attr "id" "1"; Tree.elt "a" [ Tree.elt ~value:"x" "b" [] ]; Tree.elt "a" [] ])
  in
  let session = Core.Session.make (module Repro_schemes.Qed : Core.Scheme.S) doc in
  let data = Repro_storage.Store.save session in
  let body = Bytes.of_string (String.sub data 0 (String.length data - 4)) in
  let seal body =
    let n = Bytes.length body in
    let sealed = Bytes.extend body 0 4 in
    Bytes.set_int32_le sealed n (Repro_codes.Crc32.bytes body 0 n);
    Bytes.to_string sealed
  in
  check Alcotest.string "re-sealing the untouched body gives the saved store" data (seal body);
  (* Header: magic, scheme name "QED", node count 5, then the dictionary
     r, id, a, b; the root record follows. All fields here are one byte. *)
  let root = 4 + 1 + 3 + 1 + 1 + 2 + 3 + 2 + 2 in
  check Alcotest.int "root tag: name 0, element, no value" 0 (Char.code (Bytes.get body root));
  check Alcotest.int "root child count" 3 (Char.code (Bytes.get body (root + 1)));
  check Alcotest.bool "root label bit count is one byte" true
    (Char.code (Bytes.get body (root + 2)) < 0x80);
  let expect_corrupt what ~at byte =
    let b = Bytes.copy body in
    Bytes.set b at (Char.chr byte);
    match Repro_storage.Store.load (seal b) with
    | _ -> Alcotest.failf "%s loaded successfully" what
    | exception Repro_storage.Store.Corrupt msg ->
      check Alcotest.bool
        (Printf.sprintf "%s is not a checksum failure: %S" what msg)
        false
        (String.length msg >= 8 && String.sub msg 0 8 = "checksum")
  in
  expect_corrupt "child count above the nodes remaining" ~at:(root + 1) 5;
  expect_corrupt "name index outside the dictionary" ~at:root (4 lsl 2);
  (* the root's label is the first, so it can share nothing *)
  expect_corrupt "shared prefix longer than the previous label" ~at:(root + 3) 9

(* The on-disk format, pinned: every registered scheme saves a fixed
   document after a fixed seeded update sequence, and the CRC-32 of the
   stored bytes must not move. Snapshots and journals written earlier
   then keep loading, whatever the in-memory label representation. *)
let pinned_store_crcs =
  [
    ("XPath Accelerator", "9f8111bc");
    ("XRel", "2db603fe");
    ("Sector", "7dd7b6d5");
    ("QRS", "1991ae26");
    ("DeweyID", "ed7cdd2b");
    ("ORDPATH", "11c73409");
    ("DLN", "d2e834ad");
    ("LSDX", "45d51bd5");
    ("ImprovedBinary", "8599ee2b");
    ("QED", "198915c4");
    ("CDQS", "722040cf");
    ("Vector", "f47afe78");
    ("Pre/Post", "6135df11");
    ("Interval+gaps", "b321163e");
    ("CDBS", "6a5f8724");
    ("Com-D", "11788391");
    ("Prime", "511f82c0");
    ("DDE", "c7330511");
    ("V-Prefix", "ad1c0b21");
    ("QED-Containment", "321c85fc");
    ("Dietz-OM", "242831c5");
  ]

let store_bytes_pinned () =
  check Alcotest.int "one pin per registered scheme"
    (List.length Repro_schemes.Registry.all)
    (List.length pinned_store_crcs);
  List.iter
    (fun pack ->
      let name = Core.Scheme.name pack in
      let doc =
        Repro_workload.Docgen.generate ~seed:4711
          { Repro_workload.Docgen.default_shape with target_nodes = 150 }
      in
      let session = Core.Session.make pack doc in
      Repro_workload.Updates.run Repro_workload.Updates.Uniform_random ~seed:4712 ~ops:30
        session;
      Repro_workload.Updates.run Repro_workload.Updates.Mixed_with_deletes ~seed:4713 ~ops:20
        session;
      let data = Repro_storage.Store.save session in
      (* the body without its trailing checksum: a CRC over a message
         followed by its own CRC is a constant *)
      let crc =
        Printf.sprintf "%08lx"
          (Repro_codes.Crc32.string (String.sub data 0 (String.length data - 4)))
      in
      check Alcotest.string (name ^ ": CRC-32 of the saved store")
        (Option.value (List.assoc_opt name pinned_store_crcs) ~default:"unpinned")
        crc)
    Repro_schemes.Registry.all

let suite =
  suite
  @ [
      ("corruption messages name the failure", `Quick, corruption_messages);
      ("round trip over every registered scheme", `Quick, roundtrip_every_registered_scheme);
      qcheck loader_never_crashes;
      qcheck truncations_fail_cleanly;
      ("compact on large documents", `Quick, compact_on_large_documents);
      ("hostile inputs with a valid checksum", `Quick, hostile_inputs);
      ("store bytes pinned for every scheme", `Quick, store_bytes_pinned);
    ]
