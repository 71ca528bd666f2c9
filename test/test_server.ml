(* End-to-end tests over a real loopback socket: the happy path for every
   request, every typed error reply, concurrent clients hammering shared
   and private documents, a mini load-generator run across three schemes,
   graceful shutdown checkpointing what it drained, and the acceptance
   crash test — kill the server mid-load, recover the journal it wrote,
   and demand the durable prefix match a locally replayed twin. *)

open Repro_xml
open Repro_journal
module P = Repro_server.Protocol
module Server = Repro_server.Server
module Client = Repro_server.Server_client
module Loadgen = Repro_server.Loadgen

let check = Alcotest.check

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let fresh_root =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xsrv-test-%d-%d" (Unix.getpid ()) !n)

let with_server ?(fsync_every = 1) ?root f =
  let root = match root with Some r -> r | None -> fresh_root () in
  let t = Server.start { (Server.default_config ~root) with fsync_every } in
  Fun.protect
    ~finally:(fun () ->
      ignore (Server.stop t);
      rm_rf root)
    (fun () -> f t root)

let with_client t f =
  let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port t) () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let ok = function
  | Ok r -> r
  | Error e -> Alcotest.fail ("transport error: " ^ e)

let expect_err want = function
  | Ok (P.Err (got, _)) ->
    check Alcotest.string "error kind" (P.err_name want) (P.err_name got)
  | Ok _ -> Alcotest.fail ("expected " ^ P.err_name want ^ ", got a success")
  | Error e -> Alcotest.fail ("transport error: " ^ e)

type opened = { o_scheme : string; o_root : P.label; o_nodes : int; o_fresh : bool }

let open_doc ?(nodes = 40) ?(seed = 11) c ~doc ~scheme =
  match ok (Client.open_doc c ~doc ~scheme ~nodes ~seed) with
  | P.Opened { ok_scheme; ok_root; ok_nodes; ok_fresh } ->
    { o_scheme = ok_scheme; o_root = ok_root; o_nodes = ok_nodes; o_fresh = ok_fresh }
  | _ -> Alcotest.fail "open did not answer Opened"

(* ---- the happy path ------------------------------------------------- *)

let happy_path () =
  with_server (fun t _root ->
      with_client t (fun c ->
          check Alcotest.bool "ping" true (Client.ping c = Ok ());
          let o = open_doc c ~doc:"book" ~scheme:"QED" in
          check Alcotest.bool "fresh document" true o.o_fresh;
          check Alcotest.string "scheme" "QED" o.o_scheme;
          check Alcotest.bool "has nodes" true (o.o_nodes > 1);
          (* insert under the root, then mutate the fresh node *)
          let fresh =
            match
              ok
                (Client.update c ~doc:"book"
                   [
                     Oplog.Insert_last
                       ( { Oplog.l_bytes = o.o_root.P.l_bytes; l_bits = o.o_root.P.l_bits },
                         Tree.elt ~value:"v" "fresh" [] );
                   ])
            with
            | P.Updated { up_applied = 1; up_fresh = [ l ]; _ } -> l
            | _ -> Alcotest.fail "insert did not confirm one fresh label"
          in
          (match
             ok
               (Client.update c ~doc:"book"
                  [
                    Oplog.Rename
                      ({ Oplog.l_bytes = fresh.P.l_bytes; l_bits = fresh.P.l_bits }, "renamed");
                    Oplog.Replace_value
                      ( { Oplog.l_bytes = fresh.P.l_bytes; l_bits = fresh.P.l_bits },
                        Some "w" );
                  ])
           with
          | P.Updated { up_applied = 2; up_fresh = []; _ } -> ()
          | _ -> Alcotest.fail "batch of two did not confirm");
          (* label-only structural reads *)
          (match ok (Client.query c ~doc:"book" (P.Order (o.o_root, fresh))) with
          | P.Answer (P.Int s) -> check Alcotest.int "root before child" (-1) s
          | _ -> Alcotest.fail "order query");
          (match ok (Client.query c ~doc:"book" (P.Level o.o_root)) with
          | P.Answer (P.Int _) | P.Answer P.Unsupported -> ()
          | _ -> Alcotest.fail "level query");
          (match ok (Client.stats c ~doc:"book") with
          | P.Stats_r st ->
            check Alcotest.int "one insert counted" 1 st.st_inserts;
            check Alcotest.bool "journaled three records" true (st.st_records = 3);
            check Alcotest.bool "nodes grew" true (st.st_nodes = o.o_nodes + 1)
          | _ -> Alcotest.fail "stats");
          (match ok (Client.labels c ~doc:"book" ~limit:1000) with
          | P.Labels_r entries ->
            check Alcotest.int "labels lists every node" (o.o_nodes + 1)
              (List.length entries);
            check Alcotest.bool "the rename is visible" true
              (List.exists (fun (_, _, name) -> name = "renamed") entries)
          | _ -> Alcotest.fail "labels");
          (match ok (Client.checkpoint c ~doc:"book") with
          | P.Checkpointed epoch -> check Alcotest.bool "epoch advanced" true (epoch >= 1)
          | _ -> Alcotest.fail "checkpoint");
          (* reopening is idempotent and not fresh *)
          let o2 = open_doc c ~doc:"book" ~scheme:"QED" in
          check Alcotest.bool "second open joins" false o2.o_fresh;
          match ok (Client.metrics c) with
          | P.Metrics_r ms ->
            let count key =
              match List.find_opt (fun m -> m.P.m_key = key) ms with
              | Some m -> m.P.m_count
              | None -> 0
            in
            check Alcotest.int "two opens metered" 2 (count "req/open");
            check Alcotest.int "two updates metered" 2 (count "req/update");
            check Alcotest.bool "per-document key present" true
              (count "doc/book/update" = 2)
          | _ -> Alcotest.fail "metrics"))

(* ---- typed errors ---------------------------------------------------- *)

let typed_errors () =
  with_server (fun t _root ->
      with_client t (fun c ->
          expect_err P.Unknown_doc (Client.stats c ~doc:"never-opened");
          expect_err P.Unknown_scheme
            (Client.open_doc c ~doc:"d" ~scheme:"NoSuchScheme" ~nodes:10 ~seed:1);
          expect_err P.Bad_request
            (Client.open_doc c ~doc:"bad name!" ~scheme:"QED" ~nodes:10 ~seed:1);
          let o = open_doc c ~doc:"d" ~scheme:"QED" in
          let root = { Oplog.l_bytes = o.o_root.P.l_bytes; l_bits = o.o_root.P.l_bits } in
          expect_err P.Bad_request (Client.update c ~doc:"d" [ Oplog.Delete root ]);
          expect_err P.Bad_request
            (Client.update c ~doc:"d"
               [ Oplog.Insert_before (root, Tree.elt "sibling-of-root" []) ]);
          expect_err P.Unknown_label
            (Client.update c ~doc:"d"
               [ Oplog.Delete { Oplog.l_bytes = "\xff\xff\xff\xff"; l_bits = 32 } ]);
          expect_err P.Unknown_label
            (Client.update c ~doc:"d"
               [ Oplog.Rename ({ Oplog.l_bytes = "\xff\xff\xff\xff"; l_bits = 32 }, "x") ]);
          (* a failed batch reports how much of its prefix went through *)
          (match
             Client.update c ~doc:"d"
               [
                 Oplog.Insert_last (root, Tree.elt "landed" []);
                 Oplog.Delete { Oplog.l_bytes = "\xff\xff\xff\xff"; l_bits = 32 };
               ]
           with
          | Ok (P.Err (P.Unknown_label, msg)) ->
            check Alcotest.bool "prefix position is named" true
              (String.length msg > 0)
          | _ -> Alcotest.fail "mixed batch should fail on its second op");
          (* the insert before the failure is applied and journaled *)
          match ok (Client.stats c ~doc:"d") with
          | P.Stats_r st ->
            check Alcotest.int "prefix applied" 1 st.st_inserts;
            check Alcotest.int "prefix journaled" 1 st.st_records
          | _ -> Alcotest.fail "stats after failed batch"))

(* A payload that does not decode answers Bad_frame but keeps the stream
   usable; a corrupted frame answers Bad_frame and hangs up. *)
let bad_frames () =
  with_server (fun t _root ->
      let connect_raw () =
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port t));
        (fd, Repro_server.Wire.reader Repro_io.Io.real_sock fd)
      in
      let send_raw fd data =
        let b = Bytes.of_string data in
        ignore (Unix.write fd b 0 (Bytes.length b))
      in
      let expect_bad_frame reader what =
        match Repro_server.Wire.recv_frame reader with
        | Repro_server.Wire.Frame payload -> (
          match P.decode_resp payload with
          | Ok (P.Err (P.Bad_frame, _)) -> ()
          | _ -> Alcotest.fail (what ^ ": expected a Bad_frame reply"))
        | _ -> Alcotest.fail (what ^ ": no reply")
      in
      (* a clean frame whose payload is not a request: typed error, and
         the stream stays in sync for the next request *)
      let fd, reader = connect_raw () in
      send_raw fd (Repro_server.Wire.frame (P.encode_resp (P.Pong "not a request")));
      expect_bad_frame reader "undecodable payload";
      send_raw fd (Repro_server.Wire.frame (P.encode_req P.Ping));
      (match Repro_server.Wire.recv_frame reader with
      | Repro_server.Wire.Frame payload -> (
        match P.decode_resp payload with
        | Ok (P.Pong _) -> ()
        | _ -> Alcotest.fail "stream should still be usable")
      | _ -> Alcotest.fail "stream should still be usable");
      Unix.close fd;
      (* a corrupted frame (flipped CRC bit): typed error, then hang up —
         framing can no longer be trusted *)
      let fd, reader = connect_raw () in
      let f = Bytes.of_string (Repro_server.Wire.frame (P.encode_req P.Ping)) in
      let last = Bytes.length f - 1 in
      Bytes.set f last (Char.chr (Char.code (Bytes.get f last) lxor 1));
      send_raw fd (Bytes.to_string f);
      expect_bad_frame reader "corrupt frame";
      (match Repro_server.Wire.recv_frame reader with
      | Repro_server.Wire.Eof -> ()
      | _ -> Alcotest.fail "server should hang up after a corrupt frame");
      Unix.close fd)

(* ---- concurrency ----------------------------------------------------- *)

(* Several clients hammer one shared document (updates serialized by its
   actor) while each also owns a private one; every request must succeed
   and the shared document must end up with exactly the sum of inserts. *)
let concurrent_clients () =
  with_server (fun t _root ->
      let clients = 6 and per_client = 40 in
      let errors = Atomic.make 0 in
      with_client t (fun c0 ->
          let o = open_doc c0 ~doc:"shared" ~scheme:"Vector" in
          let root =
            { Oplog.l_bytes = o.o_root.P.l_bytes; l_bits = o.o_root.P.l_bits }
          in
          let worker i () =
            with_client t (fun c ->
                let mine = Printf.sprintf "private-%d" i in
                ignore (open_doc c ~doc:mine ~scheme:"QED");
                for k = 1 to per_client do
                  (match
                     Client.update c ~doc:"shared"
                       [ Oplog.Insert_last (root, Tree.elt (Printf.sprintf "n%d_%d" i k) []) ]
                   with
                  | Ok (P.Updated _) -> ()
                  | _ -> Atomic.incr errors);
                  (match Client.query c ~doc:"shared" (P.Level o.o_root) with
                  | Ok (P.Answer _) -> ()
                  | _ -> Atomic.incr errors);
                  match Client.stats c ~doc:mine with
                  | Ok (P.Stats_r _) -> ()
                  | _ -> Atomic.incr errors
                done)
          in
          let threads = List.init clients (fun i -> Thread.create (worker i) ()) in
          List.iter Thread.join threads;
          check Alcotest.int "no request failed" 0 (Atomic.get errors);
          match ok (Client.stats c0 ~doc:"shared") with
          | P.Stats_r st ->
            check Alcotest.int "every insert landed exactly once"
              (o.o_nodes + (clients * per_client))
              st.st_nodes
          | _ -> Alcotest.fail "stats"))

(* The acceptance workload in miniature: the load generator's own mixed
   traffic, three schemes, zero errors. *)
let loadgen_mixed () =
  with_server ~fsync_every:8 (fun t _root ->
      let report =
        Loadgen.run
          {
            (Loadgen.default_config ~port:(Server.port t)) with
            Loadgen.g_clients = 4;
            g_ops = 600;
            g_seed = 5;
            g_nodes = 60;
          }
      in
      check Alcotest.int "every op sent" 600 report.Loadgen.r_ops;
      check Alcotest.int "zero errors" 0 report.Loadgen.r_errors;
      check Alcotest.bool "per-class breakdown present" true
        (List.length report.Loadgen.r_classes >= 5))

(* ---- durability ------------------------------------------------------ *)

let flat (session : Core.Session.t) =
  List.map
    (fun (n : Tree.node) ->
      (n.Tree.name, n.Tree.value, Tree.level n, session.Core.Session.label_string n))
    (Tree.preorder session.Core.Session.doc)

(* Kill the server mid-load (abort: no checkpoint, flush or close) and
   recover the journal it wrote. With fsync_every=1 every confirmed op is
   durable, so the recovered document must equal a twin built by replaying
   exactly the confirmed ops over the same generated base document. *)
let abort_then_recover_matches_twin () =
  let root = fresh_root () in
  let t = Server.start { (Server.default_config ~root) with fsync_every = 1 } in
  let nodes = 30 and seed = 21 in
  let confirmed = ref [] in
  let o =
    with_client t (fun c ->
        let o = open_doc ~nodes ~seed c ~doc:"crashy" ~scheme:"QED" in
        let anchor = ref { Oplog.l_bytes = o.o_root.P.l_bytes; l_bits = o.o_root.P.l_bits } in
        for k = 1 to 25 do
          let op =
            if k mod 5 = 0 then Oplog.Rename (!anchor, Printf.sprintf "r%d" k)
            else Oplog.Insert_last (!anchor, Tree.elt (Printf.sprintf "n%d" k) [])
          in
          match Client.update c ~doc:"crashy" [ op ] with
          | Ok (P.Updated { up_fresh; _ }) ->
            confirmed := op :: !confirmed;
            (match up_fresh with
            | [ l ] when k mod 3 = 0 ->
              anchor := { Oplog.l_bytes = l.P.l_bytes; l_bits = l.P.l_bits }
            | _ -> ())
          | _ -> Alcotest.fail "update did not confirm"
        done;
        o)
  in
  Server.abort t;
  (* the simulated kill: now rebuild from disk alone *)
  let j, recovered, r = Journal.recover ~base:(Filename.concat root "crashy.journal") () in
  Journal.close j;
  check Alcotest.int "every confirmed op is durable" (List.length !confirmed)
    r.Journal.r_records;
  let twin_doc =
    Repro_workload.Docgen.generate ~seed
      { Repro_workload.Docgen.default_shape with target_nodes = nodes }
  in
  let twin =
    Core.Session.make (module Repro_schemes.Qed : Core.Scheme.S) twin_doc
  in
  check Alcotest.int "twin starts from the same base document" o.o_nodes
    (Tree.size twin_doc);
  List.iter (fun op -> Journal.apply twin op) (List.rev !confirmed);
  check Alcotest.bool "recovered state equals the replayed twin" true
    (flat recovered = flat twin);
  rm_rf root

(* Graceful stop checkpoints every document: a second server over the same
   root recovers them with an advanced epoch and an empty log tail. *)
let graceful_stop_checkpoints () =
  let root = fresh_root () in
  let t = Server.start { (Server.default_config ~root) with fsync_every = 4 } in
  let n_before =
    with_client t (fun c ->
        let o = open_doc c ~doc:"persisted" ~scheme:"ORDPATH" in
        let root_l = { Oplog.l_bytes = o.o_root.P.l_bytes; l_bits = o.o_root.P.l_bits } in
        for k = 1 to 10 do
          ignore
            (ok
               (Client.update c ~doc:"persisted"
                  [ Oplog.Insert_last (root_l, Tree.elt (Printf.sprintf "k%d" k) []) ]))
        done;
        o.o_nodes + 10)
  in
  let s = Server.stop t in
  check Alcotest.bool "one document drained" true (s.Server.s_docs >= 1);
  let j, recovered, r = Journal.recover ~base:(Filename.concat root "persisted.journal") () in
  Journal.close j;
  check Alcotest.int "checkpoint absorbed the log" 0 r.Journal.r_records;
  check Alcotest.bool "epoch advanced past the initial one" true (r.Journal.r_epoch > 1);
  check Alcotest.int "no update was lost" n_before
    (Tree.size recovered.Core.Session.doc);
  (* a second server joins the same root and serves the recovered state *)
  let t2 = Server.start { (Server.default_config ~root) with fsync_every = 1 } in
  Fun.protect
    ~finally:(fun () ->
      ignore (Server.stop t2);
      rm_rf root)
    (fun () ->
      with_client t2 (fun c ->
          let o = open_doc c ~doc:"persisted" ~scheme:"ORDPATH" in
          check Alcotest.bool "recovered, not regenerated" false o.o_fresh;
          check Alcotest.int "same node count" n_before o.o_nodes;
          check Alcotest.string "scheme remembered" "ORDPATH" o.o_scheme))

(* New opens are refused once draining begins, with a typed reply. *)
let draining_refuses_opens () =
  with_server (fun t _root ->
      with_client t (fun c ->
          ignore (open_doc c ~doc:"early" ~scheme:"QED");
          Server.trigger t;
          expect_err P.Shutting_down
            (Client.open_doc c ~doc:"late" ~scheme:"QED" ~nodes:10 ~seed:1)))

(* ---- group commit ---------------------------------------------------- *)

(* An Io backend that counts fsyncs — aimed at the group-commit claim
   itself: many concurrent durable updates must cost far fewer fsyncs
   than updates, because one flusher cycle retires a whole batch. *)
let counting_fsync_io () =
  let fsyncs = Atomic.make 0 in
  let module Raw = (val Repro_io.Io.unix_syscalls : Repro_io.Io.S) in
  let module Counted = struct
    type fd = Raw.fd

    let openfile = Raw.openfile
    let write = Raw.write

    let fsync fd =
      Atomic.incr fsyncs;
      Raw.fsync fd

    let ftruncate = Raw.ftruncate
    let close = Raw.close
    let rename = Raw.rename
    let fsync_dir = Raw.fsync_dir
    let remove = Raw.remove
    let read_file = Raw.read_file
    let file_exists = Raw.file_exists
  end in
  (fsyncs, Repro_io.Io.pack (module Counted : Repro_io.Io.S))

let group_commit_batches_fsyncs () =
  let root = fresh_root () in
  let fsyncs, io = counting_fsync_io () in
  let t =
    Server.start
      {
        (Server.default_config ~root) with
        fsync_every = 0;
        commit_interval_us = 1_500;
        commit_max = 64;
        io;
      }
  in
  let clients = 8 and per_client = 30 in
  let failures = Atomic.make 0 in
  let o =
    with_client t (fun c -> open_doc c ~doc:"batched" ~scheme:"QED")
  in
  let root_l = { Oplog.l_bytes = o.o_root.P.l_bytes; l_bits = o.o_root.P.l_bits } in
  let worker i () =
    with_client t (fun c ->
        for k = 1 to per_client do
          match
            Client.update c ~doc:"batched"
              [ Oplog.Insert_last (root_l, Tree.elt (Printf.sprintf "b%d_%d" i k) []) ]
          with
          | Ok (P.Updated _) -> ()
          | _ -> Atomic.incr failures
        done)
  in
  let before = Atomic.get fsyncs in
  let threads = List.init clients (fun i -> Thread.create (worker i) ()) in
  List.iter Thread.join threads;
  let spent = Atomic.get fsyncs - before in
  let updates = clients * per_client in
  check Alcotest.int "every durable update confirmed" 0 (Atomic.get failures);
  (* fsync-per-append would cost one fsync per update; group commit must
     amortize. Half is a deliberately loose bound — in practice a cycle
     retires several replies and the count is far lower. *)
  check Alcotest.bool
    (Printf.sprintf "%d acked updates cost %d fsyncs (expected < %d)" updates spent
       (updates / 2))
    true
    (spent < updates / 2);
  (match with_client t (fun c -> ok (Client.metrics c)) with
  | P.Metrics_r ms ->
    let gauge key =
      match List.find_opt (fun m -> m.P.m_key = key) ms with
      | Some m -> m.P.m_total_ns
      | None -> -1
    in
    check Alcotest.bool "batch p50 gauge published" true (gauge "commit/batch_p50" >= 1);
    check Alcotest.int "effective fsync_every echoed" 0 (gauge "cfg/fsync_every");
    check Alcotest.int "effective commit_interval echoed" 1_500
      (gauge "cfg/commit_interval_us")
  | _ -> Alcotest.fail "metrics");
  ignore (Server.stop t);
  rm_rf root

(* Abort with a commit cycle mid-batch: pipeline updates so some replies
   are parked and unflushed at the kill, then demand that *every* crash
   image the simulated file system can surface recovers to a state
   containing the full acked prefix — acks never outrun the fsync. *)
let abort_mid_batch_serves_acked_prefix () =
  let root = fresh_root () in
  let sim = Repro_io.Crashsim.create () in
  let io = Repro_io.Io.serialized (Repro_io.Crashsim.io sim) in
  let t =
    Server.start
      {
        (Server.default_config ~root) with
        fsync_every = 0;
        commit_interval_us = 200_000;
        (* only the commit-max overflow can trigger a flush in test time *)
        commit_max = 3;
        io;
      }
  in
  let o =
    with_client t (fun c -> open_doc ~nodes:20 ~seed:7 c ~doc:"pipelined" ~scheme:"QED")
  in
  let root_l = { Oplog.l_bytes = o.o_root.P.l_bytes; l_bits = o.o_root.P.l_bits } in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port t));
  let reader = Repro_server.Wire.reader Repro_io.Io.real_sock fd in
  let send_update k =
    let payload =
      P.encode_req
        (P.Update
           {
             u_doc = "pipelined";
             u_client = "";
             u_seq = 0;
             u_ops = [ Oplog.Insert_last (root_l, Tree.elt (Printf.sprintf "a%d" k) []) ];
           })
    in
    let f = Repro_server.Wire.frame payload in
    let b = Bytes.of_string f in
    ignore (Unix.write fd b 0 (Bytes.length b))
  in
  let recv_updated what =
    match Repro_server.Wire.recv_frame reader with
    | Repro_server.Wire.Frame payload -> (
      match P.decode_resp payload with
      | Ok (P.Updated _) -> ()
      | _ -> Alcotest.fail (what ^ ": expected Updated"))
    | _ -> Alcotest.fail (what ^ ": no reply")
  in
  (* three pipelined updates overflow commit_max and come back acked... *)
  send_update 1;
  send_update 2;
  send_update 3;
  recv_updated "first";
  recv_updated "second";
  recv_updated "third";
  (* ...two more are appended and parked, but their cycle (200ms away)
     never runs: the server dies first *)
  send_update 4;
  send_update 5;
  Thread.delay 0.02;
  Server.abort t;
  Unix.close fd;
  let boundary = Repro_io.Crashsim.syscalls sim in
  let images = Repro_io.Crashsim.images sim ~boundary in
  check Alcotest.bool "the sim surfaced crash images" true (images <> []);
  List.iter
    (fun image ->
      let sim' = Repro_io.Crashsim.restore image in
      let j, recovered, r =
        Journal.recover ~io:(Repro_io.Crashsim.io sim')
          ~base:(Filename.concat root "pipelined.journal") ()
      in
      Journal.close j;
      check Alcotest.bool "at least the acked records survive" true (r.Journal.r_records >= 3);
      check Alcotest.bool "no phantom records" true (r.Journal.r_records <= 5);
      let names =
        List.map (fun (n : Tree.node) -> n.Tree.name)
          (Tree.preorder recovered.Core.Session.doc)
      in
      List.iter
        (fun k ->
          let want = Printf.sprintf "a%d" k in
          check Alcotest.bool ("acked insert " ^ want ^ " survives the crash") true
            (List.mem want names))
        [ 1; 2; 3 ])
    images;
  rm_rf root

(* Replies to mutations pipelined on one connection come back in the
   order they were sent. Each is the reply an offline replay of the same
   operations through Journal.Resolver predicts: the fresh label of its
   own insert, or a refusal. A durable mutation, or one that journaled
   nothing, may be answered at once only when its connection owes no
   earlier reply; one that checked the document's parked queue instead
   could overtake a reply the flusher had popped but not yet sent. *)
let pipelined_mutation_replies_in_order () =
  let root = fresh_root () in
  let t = Server.start (Server.default_config ~root) in
  Fun.protect
    ~finally:(fun () ->
      ignore (Server.stop t);
      rm_rf root)
    (fun () ->
      let nodes = 40 and seed = 11 in
      let o = with_client t (fun c -> open_doc ~nodes ~seed c ~doc:"ordered" ~scheme:"QED") in
      let root_l = { Oplog.l_bytes = o.o_root.P.l_bytes; l_bits = o.o_root.P.l_bits } in
      let count = 2_000 in
      (* every 10th op names no node: refused, it journals nothing *)
      let stray = { Oplog.l_bytes = "\255\255\255\255"; l_bits = 32 } in
      let ops =
        Array.init count (fun k ->
            if k mod 10 = 9 then Oplog.Rename (stray, "never")
            else Oplog.Insert_last (root_l, Tree.elt (Printf.sprintf "p%d" k) []))
      in
      let session =
        Core.Session.make
          (Option.get (Repro_schemes.Registry.find "QED"))
          (Repro_workload.Docgen.generate ~seed
             { Repro_workload.Docgen.default_shape with target_nodes = nodes })
      in
      let resolver = Journal.Resolver.create session in
      (* the fresh label of each insert, None for each refused op *)
      let expected =
        Array.map
          (function
            | Oplog.Rename _ -> None
            | op -> (
              match Journal.Resolver.apply resolver op with
              | Some n ->
                let l_bytes, l_bits = session.Core.Session.label_encoded n in
                Some { P.l_bytes; l_bits }
              | None -> Alcotest.fail "replayed insert returned no node"))
          ops
      in
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port t));
          let reader = Repro_server.Wire.reader Repro_io.Io.real_sock fd in
          let frame op =
            Bytes.of_string
              (Repro_server.Wire.frame
                 (P.encode_req
                    (P.Update { u_doc = "ordered"; u_client = ""; u_seq = 0; u_ops = [ op ] })))
          in
          let rec send b off =
            if off < Bytes.length b then send b (off + Unix.write fd b off (Bytes.length b - off))
          in
          let writer = Thread.create (fun () -> Array.iter (fun op -> send (frame op) 0) ops) () in
          Array.iteri
            (fun i want ->
              match Repro_server.Wire.recv_frame reader with
              | Repro_server.Wire.Frame payload -> (
                match (P.decode_resp payload, want) with
                | Ok (P.Updated { up_fresh = [ got ]; _ }), Some want ->
                  if got <> want then
                    Alcotest.failf "reply %d of %d answers request %d" i count
                      (Option.value (Array.find_index (( = ) (Some got)) expected) ~default:(-1))
                | Ok (P.Err _), None -> ()
                | Ok (P.Err _), Some _ -> Alcotest.failf "reply %d: a refusal overtook an insert" i
                | _, None -> Alcotest.failf "reply %d: expected the refusal of a stray label" i
                | _, Some _ -> Alcotest.failf "reply %d: expected one fresh label" i)
              | _ -> Alcotest.failf "reply %d: connection ended" i)
            expected;
          Thread.join writer))

(* The contended mix: several clients share a small set of documents, so
   one flusher cycle commits appends from many connections at once. A
   seeded end-to-end soak — zero errors, and the group-commit gauges are
   scrapeable afterwards. *)
let shared_docs_soak () =
  let root = fresh_root () in
  let t =
    Server.start
      { (Server.default_config ~root) with commit_interval_us = 800; commit_max = 32 }
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Server.stop t);
      rm_rf root)
    (fun () ->
      let report =
        Loadgen.run
          {
            (Loadgen.default_config ~port:(Server.port t)) with
            Loadgen.g_clients = 6;
            g_ops = 900;
            g_seed = 77;
            g_nodes = 50;
            g_docs = 2;
          }
      in
      check Alcotest.int "every op sent" 900 report.Loadgen.r_ops;
      check Alcotest.int "zero errors" 0 report.Loadgen.r_errors;
      check Alcotest.bool "group-commit gauges scraped" true
        (List.mem_assoc "cfg/fsync_every" report.Loadgen.r_server
        && List.mem_assoc "commit/batch_p50" report.Loadgen.r_server))

(* ---- served queries under --paranoid, every registered scheme -------- *)

(* Every wire answer is re-derived through the scan evaluator over the
   same snapshot rows by the server itself; a divergence comes back as
   Err (Internal, "paranoid divergence: ..."), so a clean soak plus a
   zero-error [query/paranoid] metric is a byte-identical guarantee for
   each answer served here. *)
let paranoid_query_soak ~legacy () =
  let root = fresh_root () in
  let t =
    Server.start
      { (Server.default_config ~root) with fsync_every = 1; paranoid = true;
        legacy_core = legacy }
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Server.stop t);
      rm_rf root)
    (fun () ->
      with_client t (fun c ->
          let xpaths =
            [ "//item"; "//section//field"; "//entry[field]"; "/*/*"; "//record[2]";
              "//item/parent::*" ]
          in
          let twigs = [ "item"; "section[//field]"; "entry[field]" ] in
          let queries = ref 0 in
          List.iter
            (fun pack ->
              let scheme = Core.Scheme.name pack in
              let doc =
                "q-"
                ^ String.map
                    (fun ch ->
                      match ch with
                      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> ch
                      | _ -> '-')
                    scheme
              in
              for round = 1 to 3 do
                (* re-open each round: schemes that relabel on insert
                   invalidate the previous root label *)
                let o = open_doc c ~doc ~scheme ~nodes:60 ~seed:7 in
                (match
                   ok
                     (Client.request c
                        (P.Update
                           { u_doc = doc; u_client = ""; u_seq = 0;
                             u_ops =
                               [ Oplog.Insert_last
                                   (o.o_root, Tree.elt (Printf.sprintf "item%d" round) []) ] }))
                 with
                | P.Updated _ -> ()
                | P.Err (e, m) -> Alcotest.failf "%s update: %s %s" scheme (P.err_name e) m
                | _ -> Alcotest.fail "update did not answer Updated");
                List.iter
                  (fun q ->
                    incr queries;
                    match ok (Client.xpath c ~doc ~limit:50 q) with
                    | P.Query_r _ -> ()
                    | P.Err (e, m) ->
                      Alcotest.failf "%s xpath %s: %s %s" scheme q (P.err_name e) m
                    | _ -> Alcotest.fail "xpath did not answer Query_r")
                  xpaths;
                List.iter
                  (fun q ->
                    incr queries;
                    match ok (Client.twig c ~doc ~limit:50 q) with
                    | P.Query_r _ -> ()
                    | P.Err (e, m) ->
                      Alcotest.failf "%s twig %s: %s %s" scheme q (P.err_name e) m
                    | _ -> Alcotest.fail "twig did not answer Query_r")
                  twigs
              done)
            Repro_schemes.Registry.all;
          match ok (Client.metrics c) with
          | P.Metrics_r ms ->
            let m =
              List.find_opt (fun (m : P.metric) -> m.P.m_key = "query/paranoid") ms
            in
            (match m with
            | Some m ->
              check Alcotest.int "every served answer re-verified" !queries m.P.m_count;
              check Alcotest.int "no paranoid divergence" 0 m.P.m_errors
            | None -> Alcotest.fail "query/paranoid metric missing")
          | _ -> Alcotest.fail "metrics fetch failed"))

(* A 70,000-byte name is journalled, checkpointed into the snapshot, and
   the flusher that ran the checkpoint goes on acking mutations. *)
let checkpoint_of_long_name () =
  let root = fresh_root () in
  let t = Server.start { (Server.default_config ~root) with checkpoint_min_records = 0 } in
  Fun.protect
    ~finally:(fun () ->
      ignore (Server.stop t);
      rm_rf root)
    (fun () ->
      with_client t (fun c ->
          let o = open_doc c ~doc:"long" ~scheme:"QED" in
          let root_label = { Oplog.l_bytes = o.o_root.P.l_bytes; l_bits = o.o_root.P.l_bits } in
          (match
             ok (Client.update c ~doc:"long" [ Oplog.Rename (root_label, String.make 70_000 'n') ])
           with
          | P.Updated { up_applied = 1; _ } -> ()
          | _ -> Alcotest.fail "rename was not acked");
          (match ok (Client.checkpoint c ~doc:"long") with
          | P.Checkpointed epoch -> check Alcotest.bool "epoch advanced" true (epoch >= 2)
          | _ -> Alcotest.fail "checkpoint did not answer Checkpointed");
          match
            ok
              (Client.update c ~doc:"long"
                 [ Oplog.Insert_last (root_label, Tree.elt ~value:"v" "after" []) ])
          with
          | P.Updated { up_applied = 1; _ } -> ()
          | _ -> Alcotest.fail "update after the checkpoint was not acked"))

let suite =
  [
    Alcotest.test_case "happy path over loopback" `Quick happy_path;
    Alcotest.test_case "typed error replies" `Quick typed_errors;
    Alcotest.test_case "bad frames" `Quick bad_frames;
    Alcotest.test_case "concurrent clients" `Slow concurrent_clients;
    Alcotest.test_case "loadgen mixed workload, zero errors" `Slow loadgen_mixed;
    Alcotest.test_case "abort mid-load, recovery matches twin" `Quick
      abort_then_recover_matches_twin;
    Alcotest.test_case "graceful stop checkpoints" `Quick graceful_stop_checkpoints;
    Alcotest.test_case "draining refuses opens" `Quick draining_refuses_opens;
    Alcotest.test_case "group commit batches fsyncs" `Slow group_commit_batches_fsyncs;
    Alcotest.test_case "abort mid-batch serves the acked prefix" `Quick
      abort_mid_batch_serves_acked_prefix;
    Alcotest.test_case "shared-document soak, zero errors" `Slow shared_docs_soak;
    Alcotest.test_case "pipelined mutation replies in order" `Quick
      pipelined_mutation_replies_in_order;
    Alcotest.test_case "paranoid query soak, event core" `Slow
      (paranoid_query_soak ~legacy:false);
    Alcotest.test_case "paranoid query soak, legacy core" `Slow
      (paranoid_query_soak ~legacy:true);
    Alcotest.test_case "checkpoint of a 70,000-byte name" `Quick checkpoint_of_long_name;
  ]
