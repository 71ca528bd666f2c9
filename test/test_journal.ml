(* Tests for the durable update journal: write-ahead logging through the
   session view, checkpointing, and — the core contract — crash recovery.
   The crash-injection tests truncate the log at every byte and bit-flip
   every byte of its last record: [Journal.recover] must always come back
   with exactly the longest prefix of whole valid records applied, never
   an exception and never a partially applied record. *)

open Repro_xml
open Repro_journal

let check = Alcotest.check

(* Every on-disk artefact lives under one throwaway base path. *)
let with_base f =
  let base = Filename.temp_file "xjournal" "" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        (base
        :: List.concat_map
             (fun e ->
               [ Journal.snapshot_path ~base ~epoch:e; Journal.log_path ~base ~epoch:e ])
             (List.init 40 (fun i -> i + 1))))
    (fun () -> f base)

let flat (session : Core.Session.t) =
  List.map
    (fun (n : Tree.node) ->
      (n.name, n.value, Tree.level n, session.Core.Session.label_string n))
    (Tree.preorder session.Core.Session.doc)

let make_session pack seed =
  let doc =
    Repro_workload.Docgen.generate ~seed
      { Repro_workload.Docgen.default_shape with target_nodes = 30 }
  in
  Core.Session.make pack doc

let qed = (module Repro_schemes.Qed : Core.Scheme.S)
let vector = (module Repro_schemes.Vector_scheme : Core.Scheme.S)

(* ---- oplog codec -------------------------------------------------- *)

let oplog_roundtrip () =
  let label = { Oplog.l_bytes = "\x12\x34\xff"; l_bits = 23 } in
  let frag = Tree.elt ~value:"v" "a" [ Tree.attr "id" "7"; Tree.elt "b" [] ] in
  let ops =
    [
      Oplog.Insert_first (label, frag);
      Insert_last (label, frag);
      Insert_before (label, frag);
      Insert_after (label, frag);
      Delete label;
      Replace_value (label, Some "new");
      Replace_value (label, None);
      Rename (label, "renamed");
    ]
  in
  let encoded = String.concat "" (List.map Oplog.encode_record ops) in
  let decoded, consumed, torn = Oplog.read_all encoded ~pos:0 in
  check Alcotest.int "all bytes consumed" (String.length encoded) consumed;
  check Alcotest.bool "no torn tail" true (torn = None);
  check
    (Alcotest.list Alcotest.string)
    "ops round-trip"
    (List.map Oplog.op_to_string ops)
    (List.map Oplog.op_to_string decoded)

(* ---- durable sessions --------------------------------------------- *)

let journal_then_recover () =
  with_base (fun base ->
      let live = make_session qed 3 in
      let d = Durable_session.create ~base live in
      let view = Durable_session.session d in
      Repro_workload.Updates.run Repro_workload.Updates.Uniform_random ~seed:7 ~ops:40 view;
      let appended = Journal.appended (Durable_session.journal d) in
      check Alcotest.bool "operations were journaled" true (appended >= 40);
      Durable_session.close d;
      let recovered, r = Durable_session.recover ~base () in
      check Alcotest.int "all records replayed" appended r.Journal.r_records;
      check Alcotest.bool "no torn tail" true (r.Journal.r_torn = None);
      check Alcotest.bool "recovered state equals the live session" true
        (flat live = flat (Durable_session.session recovered));
      Durable_session.close recovered)

let update_lang_is_durable () =
  (* Every statement class of the update language — including the content
     updates and [move], which becomes delete+insert — reaches the log. *)
  with_base (fun base ->
      let live = Core.Session.make qed (Samples.book ()) in
      let d = Durable_session.create ~base live in
      let report =
        Repro_encoding.Update_lang.run (Durable_session.session d)
          {|insert <clause n="1"/> as first into /book;
            replace value of //author with "Anonymous";
            rename //publisher as press;
            move //clause after //author;
            delete //edition|}
      in
      check Alcotest.int "statements executed" 5 report.Repro_encoding.Update_lang.executed;
      Durable_session.close d;
      let recovered, r = Durable_session.recover ~base () in
      (* first-into, replace, rename, move (= delete + insert), delete *)
      check Alcotest.int "records replayed" 6 r.Journal.r_records;
      check Alcotest.bool "recovered state equals the live session" true
        (flat live = flat (Durable_session.session recovered));
      Durable_session.close recovered)

let checkpoint_resets_log () =
  with_base (fun base ->
      let live = make_session vector 5 in
      let d = Durable_session.create ~base live in
      let view = Durable_session.session d in
      Repro_workload.Updates.run Repro_workload.Updates.Uniform_random ~seed:1 ~ops:25 view;
      Durable_session.checkpoint d;
      Repro_workload.Updates.run Repro_workload.Updates.Append_only ~seed:2 ~ops:5 view;
      Durable_session.close d;
      let recovered, r = Durable_session.recover ~base () in
      check Alcotest.int "epoch advanced" 2 r.Journal.r_epoch;
      check Alcotest.int "only the post-checkpoint tail replays" 5 r.Journal.r_records;
      check Alcotest.bool "recovered state equals the live session" true
        (flat live = flat (Durable_session.session recovered));
      Durable_session.close recovered)

let auto_checkpoint () =
  with_base (fun base ->
      let live = make_session qed 8 in
      let d = Durable_session.create ~checkpoint_every:10 ~base live in
      let view = Durable_session.session d in
      Repro_workload.Updates.run Repro_workload.Updates.Uniform_random ~seed:4 ~ops:34 view;
      Durable_session.close d;
      let recovered, r = Durable_session.recover ~base () in
      check Alcotest.int "three checkpoints happened" 4 r.Journal.r_epoch;
      check Alcotest.int "short tail" 4 r.Journal.r_records;
      check Alcotest.bool "recovered state equals the live session" true
        (flat live = flat (Durable_session.session recovered));
      Durable_session.close recovered)

(* ---- crash injection ---------------------------------------------- *)

(* Builds a ≥50-operation epoch-1 journal and hands the test body: the log
   file path, its bytes, the per-prefix expected states ([expected.(k)] is
   the snapshot plus the first [k] records) and the live final state. *)
let with_crash_rig pack seed body =
  with_base (fun base ->
      let live = make_session pack seed in
      let d = Durable_session.create ~base live in
      let view = Durable_session.session d in
      Repro_workload.Updates.run Repro_workload.Updates.Uniform_random ~seed ~ops:35 view;
      Repro_workload.Updates.run Repro_workload.Updates.Mixed_with_deletes
        ~seed:(seed + 1) ~ops:15 view;
      ignore
        (Repro_encoding.Update_lang.run view
           {|replace value of /*[1] with "crash rig"; rename /*[1] as survivor|});
      Durable_session.close d;
      let log_file = Journal.log_path ~base ~epoch:1 in
      let log = In_channel.with_open_bin log_file In_channel.input_all in
      let _, ops, torn = Journal.inspect ~base () in
      check Alcotest.bool "rig log is whole" true (torn = None);
      check Alcotest.bool "rig holds at least 50 records" true (List.length ops >= 50);
      let reference =
        Repro_storage.Store.load_file (Journal.snapshot_path ~base ~epoch:1)
      in
      let expected = Array.make (List.length ops + 1) [] in
      expected.(0) <- flat reference;
      List.iteri
        (fun i op ->
          Journal.apply reference op;
          expected.(i + 1) <- flat reference)
        ops;
      check Alcotest.bool "full replay reaches the live state" true
        (expected.(List.length ops) = flat live);
      body base log_file log expected)

let write_log log_file bytes =
  Out_channel.with_open_bin log_file (fun oc -> Out_channel.output_string oc bytes)

(* Recover from whatever is on disk and demand exactly [k] records. *)
let recover_expecting base expected ~what k =
  match Journal.recover ~base () with
  | t, session, r ->
    Journal.close t;
    check Alcotest.int (what ^ ": records replayed") k r.Journal.r_records;
    check Alcotest.bool (what ^ ": state is the longest whole-record prefix") true
      (flat session = expected.(k));
    r
  | exception e -> Alcotest.failf "%s: recover raised %s" what (Printexc.to_string e)

let scheme_label pack =
  let (module S : Core.Scheme.S) = pack in
  S.name

let exhaustive_truncation pack seed () =
  with_crash_rig pack seed (fun base log_file log expected ->
      let name = scheme_label pack in
      for cut = 0 to String.length log - 1 do
        write_log log_file (String.sub log 0 cut);
        let _, ops, _ = Journal.inspect ~base () in
        let r =
          recover_expecting base expected
            ~what:(Printf.sprintf "%s cut at %d" name cut)
            (List.length ops)
        in
        (* a strict prefix must be seen as torn unless it ends exactly on a
           record boundary *)
        ignore r
      done;
      (* the loop's last recover truncated the file; restore and verify the
         whole log still replays *)
      write_log log_file log;
      ignore (recover_expecting base expected ~what:(name ^ " whole log")
                (Array.length expected - 1)))

let bitflip_last_record pack seed () =
  with_crash_rig pack seed (fun base log_file log expected ->
      let name = scheme_label pack in
      let records = Array.length expected - 1 in
      (* find where the last record's frame begins: walk the frames *)
      let header_len =
        match Journal.inspect ~base () with
        | scheme, _, _ ->
          String.length "XJL1"
          + String.length (Repro_codes.Varint.encode (String.length scheme))
          + String.length scheme
      in
      let last_start = ref header_len in
      let pos = ref header_len in
      let continue = ref true in
      while !continue do
        match Oplog.read_record log !pos with
        | Record (_, next) ->
          last_start := !pos;
          pos := next
        | End_of_log | Torn _ -> continue := false
      done;
      for p = !last_start to String.length log - 1 do
        List.iter
          (fun mask ->
            let damaged =
              String.mapi
                (fun i c -> if i = p then Char.chr (Char.code c lxor mask) else c)
                log
            in
            write_log log_file damaged;
            let r =
              recover_expecting base expected
                ~what:(Printf.sprintf "%s flip 0x%02x at %d" name mask p)
                (records - 1)
            in
            check Alcotest.bool "the damage is reported as a torn tail" true
              (r.Journal.r_torn <> None))
          [ 0x01; 0x80 ]
      done)

(* After a torn-tail recovery the journal must keep absorbing updates and
   recover cleanly again — the torn bytes are really gone. *)
let recover_then_continue () =
  with_base (fun base ->
      let live = make_session qed 12 in
      let d = Durable_session.create ~base live in
      Repro_workload.Updates.run Repro_workload.Updates.Uniform_random ~seed:9 ~ops:20
        (Durable_session.session d);
      Durable_session.close d;
      let log_file = Journal.log_path ~base ~epoch:1 in
      let log = In_channel.with_open_bin log_file In_channel.input_all in
      write_log log_file (String.sub log 0 (String.length log - 3));
      let d, r = Durable_session.recover ~base () in
      check Alcotest.bool "tail detected" true (r.Journal.r_torn <> None);
      check Alcotest.int "one record lost" 19 r.Journal.r_records;
      Repro_workload.Updates.run Repro_workload.Updates.Append_only ~seed:10 ~ops:7
        (Durable_session.session d);
      let resumed = flat (Durable_session.session d) in
      Durable_session.close d;
      let d, r = Durable_session.recover ~base () in
      check Alcotest.bool "second recovery is clean" true (r.Journal.r_torn = None);
      check Alcotest.int "tail plus appended records" 26 r.Journal.r_records;
      check Alcotest.bool "state carried across both recoveries" true
        (resumed = flat (Durable_session.session d));
      Durable_session.close d)

(* A name of 64 KiB or more is journalled like any other rename, and the
   next checkpoint must carry it into the snapshot. *)
let checkpoint_keeps_long_names () =
  with_base (fun base ->
      let live = make_session qed 6 in
      let d = Durable_session.create ~base live in
      let view = Durable_session.session d in
      let target = List.nth (Tree.preorder view.Core.Session.doc) 3 in
      view.Core.Session.rename target (String.make 70_000 'n');
      Durable_session.checkpoint d;
      Durable_session.close d;
      let recovered, r = Durable_session.recover ~base () in
      check Alcotest.int "epoch advanced" 2 r.Journal.r_epoch;
      check Alcotest.int "the rename lives in the snapshot" 0 r.Journal.r_records;
      check Alcotest.bool "recovered state equals the live session" true
        (flat live = flat (Durable_session.session recovered));
      Durable_session.close recovered)

let suite =
  [
    ("oplog codec round-trip", `Quick, oplog_roundtrip);
    ("journal then recover", `Quick, journal_then_recover);
    ("update language is durable", `Quick, update_lang_is_durable);
    ("checkpoint resets the log", `Quick, checkpoint_resets_log);
    ("auto checkpoint", `Quick, auto_checkpoint);
    ("exhaustive truncation (QED)", `Slow, exhaustive_truncation qed 21);
    ("exhaustive truncation (Vector)", `Slow, exhaustive_truncation vector 22);
    ("bit flips in the last record (QED)", `Quick, bitflip_last_record qed 23);
    ("bit flips in the last record (Vector)", `Quick, bitflip_last_record vector 24);
    ("recover then continue", `Quick, recover_then_continue);
    ("checkpoint keeps a 70,000-byte name", `Quick, checkpoint_keeps_long_names);
  ]
