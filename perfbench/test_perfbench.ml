(* Self-tests for the benchmark's own logic: the open-loop clock and
   mutation hold, the percentile rule, the rate ladder, backlog
   detection, span self time, and the twin check's negative control
   against a live server. *)

open Perfbench
module P = Repro_server.Protocol
module W = Repro_server.Wire

(* ---- open-loop lateness ------------------------------------------------ *)

(* A fake server that answers pings, but sleeps [stall] seconds before
   answering ping number [at]. The stall's start and end, on the
   {!Span.now} clock, are set once it is over. *)
let stalled_peer fd ~at ~stall =
  let stalled = ref (0, 0) in
  let th =
    Thread.create
      (fun () ->
        let dec = W.Decoder.create () and buf = Bytes.create 4096 in
        let pong = W.frame (P.encode_resp (P.Pong P.magic)) in
        let n = ref 0 in
        let rec loop () =
          match W.Decoder.next dec with
          | `Frame _ ->
            if !n = at then begin
              let t = Span.now () in
              Thread.delay stall;
              stalled := (t, Span.now ())
            end;
            incr n;
            ignore (Unix.write_substring fd pong 0 (String.length pong));
            loop ()
          | `Bad _ -> ()
          | `More -> (
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> ()
            | k ->
              W.Decoder.feed dec buf 0 k;
              loop ()
            | exception Unix.Unix_error _ -> ())
        in
        loop ())
      ()
  in
  (th, stalled)

(* Checked against the stall as the peer measured it, so a slow host
   lengthens the stall but cannot fail the test. *)
let test_open_loop_lateness () =
  let mine, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let count = 100 and at = 10 and rate = 200. in
  let th, stalled = stalled_peer theirs ~at ~stall:0.2 in
  let ping = W.frame (P.encode_req P.Ping) in
  let peer =
    Openloop.peer mine ~frames:(Array.make count ping) ~groups:(Array.make count Twin.q_read)
  in
  let st =
    Openloop.run_step [| peer |] ~rate ~count ~on_reply:(fun ~peer:_ ~item:_ ~lo:_ _ _ -> true)
  in
  Unix.close mine;
  Thread.join th;
  Unix.close theirs;
  let stall_start, stall_end = !stalled in
  let due = Openloop.due st in
  Alcotest.(check int) "all answered" count st.Openloop.sent;
  (* every request queued behind the stall waits out what was left of it,
     counted from its own due time *)
  let queued = List.filter (fun k -> due k < stall_end) (List.init (count - at) (( + ) at)) in
  Alcotest.(check bool) "the stall queued requests" true
    (List.length (List.filter (fun k -> due k >= stall_start) queued) >= 30);
  List.iter
    (fun k ->
      if st.Openloop.lat_ns.(k) < stall_end - due k then
        Alcotest.failf "request %d: latency %d ns, but the stall ended %d ns after it was due" k
          st.Openloop.lat_ns.(k) (stall_end - due k))
    queued;
  (* open loop: the sender kept its schedule while the peer stalled *)
  let during = List.filter (fun k -> due k > stall_start) queued in
  let written = List.filter (fun k -> due k + st.Openloop.late_ns.(k) < stall_end) during in
  Alcotest.(check bool) "most requests due in the stall were sent in it" true
    (2 * List.length written >= List.length during);
  Alcotest.(check bool) "requests after the stall are fast again" true
    (st.Openloop.lat_ns.(count - 1) < st.Openloop.lat_ns.(at))

(* A fake server that answers every request [service] seconds after it
   takes it up, one at a time, and records the most requests it ever held
   at once: the one it serves and those already queued behind it. *)
let slow_peer fd ~service =
  let most = ref 0 in
  let th =
    Thread.create
      (fun () ->
        let dec = W.Decoder.create () and buf = Bytes.create 4096 in
        let pong = W.frame (P.encode_resp (P.Pong P.magic)) in
        let got = Queue.create () in
        let rec pull () =
          match W.Decoder.next dec with
          | `Frame f ->
            Queue.push f got;
            pull ()
          | `Bad _ -> raise Exit
          | `More ->
            let ready, _, _ = Unix.select [ fd ] [] [] (if Queue.is_empty got then -1. else 0.) in
            if ready <> [] then begin
              let k = Unix.read fd buf 0 (Bytes.length buf) in
              if k = 0 then raise Exit;
              W.Decoder.feed dec buf 0 k;
              pull ()
            end
        in
        let rec serve () =
          pull ();
          Thread.delay service;
          pull ();
          most := max !most (Queue.length got);
          ignore (Queue.pop got);
          ignore (Unix.write_substring fd pong 0 (String.length pong));
          serve ()
        in
        try serve () with Exit | Unix.Unix_error _ -> ())
      ()
  in
  (th, most)

(* Mutations are not pipelined on a connection unless asked: a server
   slower than the schedule never holds two at once. Asked, it does. *)
let test_mutation_hold () =
  let held ~pipeline_mutations =
    let mine, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let th, most = slow_peer theirs ~service:0.003 in
    let count = 40 in
    let ping = W.frame (P.encode_req P.Ping) in
    let peer =
      Openloop.peer mine ~frames:(Array.make count ping) ~groups:(Array.make count Twin.q_mut)
    in
    let st =
      Openloop.run_step ~pipeline_mutations [| peer |] ~rate:1000. ~count
        ~on_reply:(fun ~peer:_ ~item:_ ~lo:_ _ _ -> true)
    in
    Unix.close mine;
    Thread.join th;
    Unix.close theirs;
    Alcotest.(check int) "all answered" count st.Openloop.sent;
    !most
  in
  Alcotest.(check int) "one mutation in flight" 1 (held ~pipeline_mutations:false);
  Alcotest.(check bool) "pipelined when asked" true (held ~pipeline_mutations:true > 1)

(* ---- the percentile rule --------------------------------------------------- *)

let test_percentile_rule () =
  let open Alcotest in
  check int "p99 of 1000 has ten beyond" 10 (Pstat.beyond ~n:1000 0.99);
  check (float 0.) "p99 kept at 1000 samples" 0.99 (Pstat.tail_q ~n:1000 0.99);
  check (float 0.) "p90 below 1000" 0.9 (Pstat.tail_q ~n:999 0.99);
  check (float 0.) "p90 at 100" 0.9 (Pstat.tail_q ~n:100 0.99);
  check (float 0.) "p50 below 100" 0.5 (Pstat.tail_q ~n:99 0.99);
  let a = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  check (float 0.) "nearest rank" 990. (Pstat.quantile a 0.99);
  check (float 0.) "median" 500. (Pstat.median a);
  (* windowed: the median of 1000-sample windows' p99, so one stall moves
     one window; below two windows, the plain tail under the rule *)
  let stalled = Array.init 3000 (fun i -> if i >= 2000 && i < 2100 then 1e6 else float_of_int (i mod 1000)) in
  check (pair (float 0.) (float 0.)) "a stall moves one window" (0.99, 989.)
    (Pstat.windowed_tail stalled 0.99);
  check (pair (float 0.) (float 0.)) "plain tail below two windows" (0.9, 900.)
    (Pstat.windowed_tail (Array.sub a 0 999) 0.99)

(* ---- the ladder and backlog detection ------------------------------------- *)

let test_ladder_search () =
  let open Alcotest in
  let search capacity =
    fst
      (Pstat.search ~lo:(-16) ~hi:64 ~start:0 ~gallop:16 ~max_probes:8 (fun j -> j <= capacity))
  in
  check int "bisects to the capacity rung" 23 (search 23);
  check int "capacity above the start" 41 (search 41);
  check int "capacity below the start" (-5) (search (-5));
  check int "nothing passes" (-17) (search (-40));
  check int "everything passes" 64 (search 100);
  check (float 1e-9) "rungs double every 16 steps" 400. (Pstat.rung_rate ~base:100. ~steps:16 32)

let test_backlog () =
  let rate = 1000. in
  let steady = Array.init 200 (fun i -> (float_of_int i *. 0.005, 10. +. float_of_int (i mod 7))) in
  let growing = Array.init 200 (fun i -> (float_of_int i *. 0.005, 0.2 *. rate *. float_of_int i *. 0.005)) in
  (* a ramp at the start settles: not growth *)
  let ramp = Array.init 200 (fun i -> (float_of_int i *. 0.005, float_of_int (min i 20))) in
  Alcotest.(check bool) "steady backlog" false (Pstat.backlog_grows ~rate steady);
  Alcotest.(check bool) "growing backlog" true (Pstat.backlog_grows ~rate growing);
  Alcotest.(check bool) "start-up ramp" false (Pstat.backlog_grows ~rate ramp)

(* ---- span self time ---------------------------------------------------------- *)

let test_self_time () =
  let open Alcotest in
  (* overlapping children are merged, and clipped to the parent *)
  check int "self time" 60 (Pstat.self_time ~start:0 ~stop:100 [ (10, 30); (20, 40); (90, 120) ]);
  check int "no children" 7 (Pstat.self_time ~start:3 ~stop:10 []);
  (* the recorder: self times of a nest add up to the outer span *)
  let spans = Span.create ~enabled:true in
  Span.request spans "update";
  let t0 = Span.now () in
  Span.span spans "outer" (fun () ->
      Unix.sleepf 0.001;
      Span.account spans "reported" ~ns:500_000;
      Span.span spans "inner" (fun () -> Unix.sleepf 0.002));
  let total = Span.now () - t0 in
  let by = Span.by_name spans in
  let self name = (Hashtbl.find by name).Span.self_ns in
  check bool "nest adds up" true (self "outer" + self "inner" + self "reported" <= total);
  check bool "outer is net of its children" true
    (self "outer" < total - self "inner" && self "reported" = 500_000);
  check int "class kept" 1 (Hashtbl.find (Span.by_class spans) ("update", "inner")).Span.count;
  (* a disabled recorder runs the call and keeps nothing *)
  let off = Span.create ~enabled:false in
  check int "disabled runs the call" 3 (Span.span off "x" (fun () -> 3));
  check int "disabled records nothing" 0 (Hashtbl.length (Span.by_name off))

(* ---- the twin against a live server, with a negative control ------------- *)

(* Runs one stream per document against an in-process server and returns
   every reply the twin did not accept, with its verdict. [pipelined]
   sends on the benchmark's schedule; otherwise each connection has one
   request in flight at a time. *)
let against_server ~corrupt ~pipelined =
  let root = Filename.concat (Sys.getcwd ()) "twin-test-server" in
  Child.rm_rf root;
  let server = Repro_server.Server.start (Repro_server.Server.default_config ~root) in
  Fun.protect
    ~finally:(fun () ->
      ignore (Repro_server.Server.stop server);
      Child.rm_rf root)
  @@ fun () ->
  let count = 300 in
  let docs =
    Array.of_list
      (List.mapi
         (fun i scheme ->
           Twin.build Twin.Update_mix ~name:(Printf.sprintf "t%d" i) ~scheme ~nodes:60
             ~doc_seed:(11 + i) ~rng_seed:(17 + i) ~count)
         [ "QED"; "ORDPATH" ])
  in
  (* the negative control: one expected mutation reply altered *)
  let victim =
    let rec first i = if docs.(0).Twin.items.(i).Twin.mut then i else first (i + 1) in
    first 5
  in
  if corrupt then
    docs.(0).Twin.items.(victim) <- { (docs.(0).Twin.items.(victim)) with Twin.expect = Twin.Exact "corrupt" };
  let port = Repro_server.Server.port server in
  let fds = Array.map (fun _ -> Openloop.connect port) docs in
  Fun.protect ~finally:(fun () -> Array.iter Unix.close fds) @@ fun () ->
  Array.iteri
    (fun i d ->
      match Openloop.call fds.(i) (Twin.open_req d) with
      | P.Opened { ok_nodes; _ } when ok_nodes = d.Twin.counts.(0) -> ()
      | _ -> Alcotest.fail "open")
    docs;
  let failed = ref [] in
  let peers =
    Array.mapi
      (fun i fd ->
        let items = docs.(i).Twin.items in
        Openloop.peer fd
          ~frames:(Array.map (fun it -> it.Twin.frame) items)
          ~groups:(Array.map (fun it -> it.Twin.queue) items))
      fds
  in
  let on_reply ~peer ~item ~lo payload resp =
    match Twin.verify docs.(peer) item ~lo payload resp with
    | Twin.Match | Twin.Stale -> true
    | (Twin.Reordered | Twin.Mismatch) as v ->
      failed := (peer, item, v) :: !failed;
      false
  in
  let step count = ignore (Openloop.run_step peers ~rate:2000. ~count ~on_reply) in
  (* a step waits for all its replies: steps of one request per
     connection keep one in flight on each *)
  if pipelined then step (2 * count) else for _ = 1 to count do step 2 done;
  (!failed, victim)

(* One request in flight per connection: this checks the twin's
   predictions, not the server's reply order under pipelining, which the
   benchmark itself counts. *)
let test_twin_matches () =
  let failed, _ = against_server ~corrupt:false ~pipelined:false in
  Alcotest.(check int) "every reply matches the twin" 0 (List.length failed)

(* Pipelined, as the benchmark sends: other failures may show beside the
   corrupted one, but that one must be among them, as a mismatch. *)
let test_negative_control () =
  let failed, victim = against_server ~corrupt:true ~pipelined:true in
  Alcotest.(check bool) "the corrupted expectation is caught as a mismatch" true
    (List.mem (0, victim, Twin.Mismatch) failed)

let () =
  Alcotest.run "perfbench"
    [
      ( "open loop",
        [
          Alcotest.test_case "lateness from due time" `Quick test_open_loop_lateness;
          Alcotest.test_case "one mutation in flight" `Quick test_mutation_hold;
        ] );
      ( "statistics",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "ladder search" `Quick test_ladder_search;
          Alcotest.test_case "backlog growth" `Quick test_backlog;
          Alcotest.test_case "span self time" `Quick test_self_time;
        ] );
      ( "twin",
        [
          Alcotest.test_case "live server matches" `Quick test_twin_matches;
          Alcotest.test_case "negative control" `Quick test_negative_control;
        ] );
    ]
