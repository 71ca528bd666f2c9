(* perfbench: the served system end to end, and each layer's share.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics against a server child
   process: set-up time, the highest rate on a fixed ladder that meets the
   workload's latency limit, latencies at a fixed reference rate, peak
   memory and journal bytes per mutation. --trace 1 runs one step at the
   ladder's lowest rate against the server, scrapes its own accounting,
   then replays the same requests in-process with spans around every
   layer (see {!Replay}) and reconciles the two. Both check every reply
   against the offline twin ({!Twin}). The last line of standard output is
   one JSON object: correct, attempted, failed, metrics. *)

open Perfbench
module P = Repro_server.Protocol

type workload = {
  name : string;
  kind : Twin.workload;
  schemes : string list;  (** one document, and one connection, each *)
  nodes : int;
  ref_rate : float;
      (** requests/s over both connections, well below the workload's
          max_rate, so its p50s measure service more than queueing *)
  limit_us : float;  (** all-request p99 limit on a ladder rung *)
}

let workloads =
  [
    {
      name = "update-mix";
      kind = Twin.Update_mix;
      schemes = [ "QED"; "ORDPATH" ];
      nodes = 120;
      ref_rate = 500.;
      limit_us = 50_000.;
    };
    {
      name = "query-heavy";
      kind = Twin.Query_heavy;
      schemes = [ "QED"; "ORDPATH" ];
      nodes = 8_000;
      ref_rate = 200.;
      limit_us = 200_000.;
    };
  ]

(* The ladder: ref_rate * 2^(j/16), j in [-16, 80]; the search starts at
   twice the reference rate and doubles up (or halves down) before it
   bisects. *)
let steps = 16
let rung_lo = -16
let rung_hi = 80
let rung_start = 16
(* chunks per run: each runs one ladder probe, so also the probe budget *)
let chunks = 6
let classes = [ "update"; "migrate"; "checkpoint"; "query"; "stats"; "labels"; "xpath"; "twig" ]

let rung wl j = Pstat.rung_rate ~base:wl.ref_rate ~steps j

(* see {!Openloop.run_step}: off by default, as the server can reorder
   pipelined mutation replies *)
let pipeline_mutations = ref false

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* ---- JSON output ---------------------------------------------------- *)

let num v = if Float.is_finite v then Printf.sprintf "%.12g" v else "0"

let metric (name, unit, v) = Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit

let result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

(* ---- host and configuration ------------------------------------------ *)

let command_line prog args =
  match Unix.open_process_args_in prog (Array.of_list (prog :: args)) with
  | ic ->
    let out = try String.trim (In_channel.input_all ic) with Sys_error _ -> "" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 when out <> "" -> out
    | _ -> "unknown")
  | exception Unix.Unix_error _ -> "unknown"

let fs_type dir =
  let path = try Unix.realpath dir with Unix.Unix_error _ -> dir in
  let mounts = try In_channel.with_open_text "/proc/mounts" In_channel.input_lines with Sys_error _ -> [] in
  let best =
    List.fold_left
      (fun (len, ty) line ->
        match String.split_on_char ' ' line with
        | _ :: mnt :: ty' :: _
          when String.starts_with ~prefix:mnt path
               && (mnt = "/" || path = mnt || String.starts_with ~prefix:(mnt ^ "/") path)
               && String.length mnt > len ->
          (String.length mnt, ty')
        | _ -> (len, ty))
      (-1, "unknown") mounts
  in
  snd best

(* (steal, total) CPU ticks of the machine so far, from /proc/stat. On a
   shared virtual machine, time other guests steal stretches every
   latency, so a run states how much was stolen while it ran. *)
let cpu_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
    match List.filter_map int_of_string_opt (String.split_on_char ' ' line) with
    | user :: nice :: system :: idle :: iowait :: irq :: softirq :: steal :: _ ->
      (steal, user + nice + system + idle + iowait + irq + softirq + steal)
    | _ -> (0, 0))
  | None | (exception Sys_error _) -> (0, 0)

let host_block wl ~seed ~root ~cfg ~ticks0 =
  let fs = fs_type root in
  let steal =
    let s0, t0 = ticks0 and s1, t1 = cpu_ticks () in
    if t1 > t0 then Printf.sprintf "%.1f" (100. *. float_of_int (s1 - s0) /. float_of_int (t1 - t0))
    else "unknown"
  in
  let fields =
    [
      ("nproc", command_line "nproc" []);
      ("journal_fs", fs);
      ("ocaml", Sys.ocaml_version);
      ("git_rev", command_line "sh" [ "-c"; "git rev-parse --short HEAD 2>/dev/null" ]);
      ("workload", wl.name);
      ("seed", string_of_int seed);
      ("reference_rps", num wl.ref_rate);
      ("ladder_rps", Printf.sprintf "%s*2^(j/%d), j=%d..%d" (num wl.ref_rate) steps rung_lo rung_hi);
      ("p99_limit_us", num wl.limit_us);
      ("cpu_steal_pct", steal);
    ]
    @ cfg
    @
    if fs = "tmpfs" then [ ("note", "journal on tmpfs: latencies are the sandbox's, not a device's") ]
    else []
  in
  say "host: {%s}"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) fields))

(* ---- documents and the server ----------------------------------------- *)

(* Open carries the document seed as a varint of at most 21 bits; the
   headroom above this range is for {!Twin.build} stepping past seeds
   whose documents come out too small. *)
let doc_seeds = 2_000_000

let build_docs wl ~seed ~per_doc =
  Array.of_list
    (List.mapi
       (fun i scheme ->
         Twin.build wl.kind
           ~name:(Printf.sprintf "%s-%d" wl.name i)
           ~scheme ~nodes:wl.nodes
           ~doc_seed:((((seed * 7919) + i) land max_int) mod doc_seeds)
           ~rng_seed:((seed * 1_000_003) + i)
           ~count:per_doc)
       wl.schemes)

let open_docs docs fds =
  Array.iteri
    (fun i d ->
      match Openloop.call fds.(i) (Twin.open_req d) with
      | P.Opened { ok_fresh = true; ok_nodes; _ } when ok_nodes = d.Twin.counts.(0) -> ()
      | P.Opened { ok_nodes; _ } ->
        failwith (Printf.sprintf "%s opened with %d nodes, twin has %d" d.Twin.d_name ok_nodes d.Twin.counts.(0))
      | P.Err (e, msg) -> failwith (Printf.sprintf "open %s: %s %s" d.Twin.d_name (P.err_name e) msg)
      | _ -> failwith ("unexpected reply to the open of " ^ d.Twin.d_name))
    docs

(* Spawn the server and open every document; the elapsed time is set-up. *)
let setup ~exe ~root docs =
  let t0 = Unix.gettimeofday () in
  let child = Child.spawn ~exe ~root in
  let fds = Array.map (fun _ -> Openloop.connect child.Child.port) docs in
  open_docs docs fds;
  (child, fds, Unix.gettimeofday () -. t0)

let metrics_of fd =
  match Openloop.call fd P.Metrics with
  | P.Metrics_r ms -> ms
  | _ -> failwith "metrics request refused"

let gauge ms key =
  match List.find_opt (fun (m : P.metric) -> m.P.m_key = key) ms with
  | Some m -> float_of_int m.P.m_total_ns
  | None -> 0.

let cfg_of ms =
  List.filter_map
    (fun (m : P.metric) ->
      if String.starts_with ~prefix:"cfg/" m.P.m_key then Some (m.P.m_key, string_of_int m.P.m_total_ns)
      else None)
    ms

(* ---- checking replies ---------------------------------------------------- *)

type tally = {
  mutable mismatched : int;
  mutable reordered : int;
  mutable stale : int;
  mutable errors : int;
}

let on_reply docs tally ~peer ~item ~lo payload resp =
  let d = docs.(peer) in
  match resp with
  | P.Err (e, msg) ->
    tally.errors <- tally.errors + 1;
    if tally.errors <= 3 then say "error reply on %s: %s %s" d.Twin.d_name (P.err_name e) msg;
    false
  | _ -> (
    match Twin.verify d item ~lo payload resp with
    | Twin.Match -> true
    | Twin.Stale ->
      tally.stale <- tally.stale + 1;
      true
    | Twin.Reordered ->
      tally.reordered <- tally.reordered + 1;
      false
    | Twin.Mismatch ->
      tally.mismatched <- tally.mismatched + 1;
      if tally.mismatched <= 3 then
        say "reply differs from the twin: %s request %d (%s)" d.Twin.d_name item
          d.Twin.items.(item).Twin.cls;
      false)

(* ---- one step's figures --------------------------------------------------- *)

let failures (st : Openloop.step) =
  let f = ref 0 in
  for k = 0 to st.sent - 1 do
    if not st.ok.(k) then incr f
  done;
  !f

let lat_us (st : Openloop.step) pred =
  let acc = ref [] in
  for k = st.sent - 1 downto 0 do
    if st.lat_ns.(k) >= 0 && pred k then acc := (float_of_int st.lat_ns.(k) /. 1e3) :: !acc
  done;
  Array.of_list !acc

let late_us (st : Openloop.step) = Array.init st.sent (fun k -> float_of_int st.late_ns.(k) /. 1e3)
let late_p99_us st = Pstat.quantile (Pstat.sorted_of (late_us st)) 0.99

let passes wl (st : Openloop.step) =
  let all = lat_us st (fun _ -> true) in
  let q, p = Pstat.windowed_tail all 0.99 in
  let _, late = Pstat.windowed_tail (late_us st) 0.99 in
  let grows = Pstat.backlog_grows ~rate:st.rate st.backlog in
  let ok =
    (not st.aborted) && failures st = 0 && st.sent = st.planned && p <= wl.limit_us
    && (not grows) && late <= wl.limit_us /. 2.
  in
  say "  rung %8.1f rps: p%g %.0f us over %d, late p99 %.0f us, backlog %s, failed %d%s -> %s" st.rate
    (q *. 100.) p (Array.length all) late
    (if grows then "grows" else "steady")
    (failures st)
    (if st.aborted then ", cut short" else "")
    (if ok then "pass" else "fail");
  ok

let is_mut docs (st : Openloop.step) k = docs.(st.who.(k)).Twin.items.(st.item.(k)).Twin.mut

(* ---- --trace 0 ------------------------------------------------------------ *)

let peers_of docs fds =
  Array.mapi
    (fun i fd ->
      let items = docs.(i).Twin.items in
      Openloop.peer fd
        ~frames:(Array.map (fun it -> it.Twin.frame) items)
        ~groups:(Array.map (fun it -> it.Twin.queue) items))
    fds

let run_e2e wl ~seed ~seconds ~exe ~work =
  let ticks0 = cpu_ticks () in
  let even x = 2 * max 1 (int_of_float (x /. 2.)) in
  let per_chunk share = wl.ref_rate *. share *. float_of_int seconds /. float_of_int chunks in
  let n_warm = even (per_chunk 0.05) and n_ref = even (per_chunk 0.6) in
  let n_probe = even (2. *. per_chunk 0.35) in
  let docs = build_docs wl ~seed ~per_doc:((max (n_warm + n_ref) n_probe / 2) + 1) in
  let root = Filename.concat work "server" in
  let tally = { mismatched = 0; reordered = 0; stale = 0; errors = 0 } in
  let attempted = ref 0 and failed = ref 0 in
  let step ?limit_ns docs peers rate count =
    let st =
      Openloop.run_step ?limit_ns ~pipeline_mutations:!pipeline_mutations peers ~rate ~count
        ~on_reply:(on_reply docs tally)
    in
    attempted := !attempted + st.sent;
    failed := !failed + failures st;
    st
  in
  (* One chunk: a fresh server and fresh documents, set up (timed), warmed,
     measured at the reference rate, then optionally one ladder probe on
     another fresh copy of the documents. Every chunk replays the start of
     the same streams, so each figure is taken from the same state whatever
     the search did before. Every reported figure is a median over
     chunks (a p50 the median of the chunks' p50s), so one unlucky server
     process or slow spell of the host moves one chunk, not the result;
     only the printed tails pool the chunks' samples. *)
  let setups = ref [] and refs = ref [] and rss = ref [] and bytes_per_mut = ref [] in
  let cfg = ref [] in
  let chunk k probe_rate =
    let rename tag count =
      Array.map (fun d -> Twin.renamed d (Printf.sprintf "%s-%s%d" d.Twin.d_name tag k) ~count) docs
    in
    let cd = rename "c" (((n_warm + n_ref) / 2) + 1) in
    let child, fds, dt = setup ~exe ~root cd in
    Fun.protect ~finally:(fun () ->
        Array.iter Unix.close fds;
        Child.kill child)
    @@ fun () ->
    setups := dt :: !setups;
    let peers = peers_of cd fds in
    ignore (step cd peers wl.ref_rate n_warm);
    let st = step cd peers wl.ref_rate n_ref in
    refs := st :: !refs;
    rss := Child.peak_rss_mb child :: !rss;
    let mut_ops = Array.fold_left (fun acc d -> acc + d.Twin.records.(d.Twin.items.((n_warm + n_ref) / 2).Twin.state)) 0 docs in
    bytes_per_mut := (float_of_int (Child.dir_bytes root) /. float_of_int (max 1 mut_ops)) :: !bytes_per_mut;
    cfg := cfg_of (metrics_of fds.(0));
    Option.map
      (fun rate ->
        let pd = rename "p" ((n_probe / 2) + 1) in
        open_docs pd fds;
        passes wl (step ~limit_ns:(int_of_float (wl.limit_us *. 1e3)) pd (peers_of pd fds) rate n_probe))
      probe_rate
  in
  let chunks_run = ref 0 in
  let next_chunk probe_rate =
    incr chunks_run;
    chunk !chunks_run probe_rate
  in
  let best, probes =
    Pstat.search ~lo:rung_lo ~hi:rung_hi ~start:rung_start ~gallop:steps ~max_probes:chunks (fun j ->
        Option.get (next_chunk (Some (rung wl j))))
  in
  while !chunks_run < chunks do
    ignore (next_chunk None)
  done;
  host_block wl ~seed ~root ~cfg:!cfg ~ticks0;
  let refs = List.rev !refs in
  let by_chunk pred = List.map (fun (st : Openloop.step) -> lat_us st (pred st)) refs in
  let is_read st k = not (is_mut docs st k) in
  let mut_chunks = by_chunk (is_mut docs) and read_chunks = by_chunk is_read in
  (* a p50 is the median of the chunks' medians; a tail pools the chunks *)
  let p50 chunks = Pstat.median (Array.of_list (List.map Pstat.median chunks)) in
  let mut = Array.concat mut_chunks and read = Array.concat read_chunks in
  let mq, mtail = Pstat.windowed_tail mut 0.99 and rq, rtail = Pstat.windowed_tail read 0.99 in
  let max_rate = rung wl best in
  let setup_times = Array.of_list !setups in
  say "setup: %s s" (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.3f") setup_times)));
  say "ladder: %s -> %.1f rps"
    (String.concat " " (List.map (fun (j, ok) -> Printf.sprintf "%d%s" j (if ok then "+" else "-")) probes))
    max_rate;
  let medians chunks =
    String.concat " " (List.map (fun a -> Printf.sprintf "%.0f" (Pstat.median a)) chunks)
  in
  say "reference %.0f rps (%.0f%% of max_rate) over %d chunks: mutations p50 %.0f us, p%g %.0f us (%d samples); reads p50 %.0f us, p%g %.0f us (%d samples)"
    wl.ref_rate (100. *. wl.ref_rate /. max_rate) chunks (p50 mut_chunks) (mq *. 100.) mtail
    (Array.length mut) (p50 read_chunks) (rq *. 100.) rtail (Array.length read);
  say "chunk p50s: mutations %s us; reads %s us" (medians mut_chunks) (medians read_chunks);
  say "replies: %d attempted, %d failed (%d differ from the twin, %d out of order, %d errors), %d stale snapshots; failed_frac %g"
    !attempted !failed tally.mismatched tally.reordered tally.errors tally.stale
    (float_of_int !failed /. float_of_int (max 1 !attempted));
  let med l = Pstat.median (Array.of_list l) in
  say "server: peak rss %.1f MB, %.1f journal bytes per mutation op" (med !rss) (med !bytes_per_mut);
  result ~correct:(!failed = 0) ~attempted:!attempted ~failed:!failed
    [
      ("setup_s", "s", Pstat.median setup_times);
      ("server_rss_mb", "MB", med !rss);
      ("journal_bytes_per_mut", "B", med !bytes_per_mut);
    ]

(* ---- --trace 1 ------------------------------------------------------------ *)

let in_window =
  [
    "protocol.decode_req";
    "resolver.resolve";
    "journal.append";
    "session.apply";
    "axis_inc.maint";
    "axis_inc.snapshot";
    "migrate.compile";
    "migrate.survival";
    "scheme.pred";
    "session.labels";
    "xpath.eval";
    "twig.eval";
  ]

let replay_pairs = 3

let run_trace wl ~seed ~seconds ~exe ~work =
  let ticks0 = cpu_ticks () in
  let rate = rung wl rung_lo in
  let count = 2 * max 1 (int_of_float (rate *. 0.4 *. float_of_int seconds /. 2.)) in
  let docs = build_docs wl ~seed ~per_doc:((count / 2) + 1) in
  let root = Filename.concat work "server" in
  let child, fds, _ = setup ~exe ~root docs in
  let peers = peers_of docs fds in
  let tally = { mismatched = 0; reordered = 0; stale = 0; errors = 0 } in
  let st =
    Openloop.run_step ~pipeline_mutations:!pipeline_mutations peers ~rate ~count
      ~on_reply:(on_reply docs tally)
  in
  let sent = Array.map (fun (p : Openloop.peer) -> p.Openloop.next) peers in
  (* the server's own accounting of exactly this step *)
  let ms = metrics_of fds.(0) in
  let server_docs =
    Array.mapi
      (fun i fd ->
        let stats =
          match Openloop.call fd (P.Stats docs.(i).Twin.d_name) with
          | P.Stats_r s -> s
          | _ -> failwith "stats refused"
        in
        ignore (Openloop.call fd (P.Xpath { xq_doc = docs.(i).Twin.d_name; xq_src = "/*"; xq_limit = 0 }));
        (stats, int_of_float (gauge (metrics_of fd) "query/maint_ops")))
      fds
  in
  Array.iter Unix.close fds;
  Child.stop child;
  host_block wl ~seed ~root ~cfg:(cfg_of ms) ~ticks0;
  (* replays: untraced and traced in alternation, [replay_pairs] of each,
     every one from the same compacted heap; the overhead compares their
     medians, and the spans and counts come from the last pair *)
  let replay enabled =
    let spans = Span.create ~enabled in
    Child.rm_rf work;
    Child.mkdir_p work;
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let out =
      Array.mapi
        (fun i d ->
          Replay.run spans d ~base:(Filename.concat work (Printf.sprintf "replay-%d" i)) ~n:sent.(i))
        docs
    in
    (spans, out, Unix.gettimeofday () -. t0)
  in
  let pairs = List.init replay_pairs (fun _ -> let p = replay false in (p, replay true)) in
  let (_, plain, _), (spans, traced, _) = List.nth pairs (replay_pairs - 1) in
  let median_time side =
    Pstat.median (Array.of_list (List.map (fun pair -> let _, _, t = side pair in t) pairs))
  in
  let t_plain = median_time fst and t_traced = median_time snd in
  Child.rm_rf work;
  (* work counts: both replays and the server must agree exactly *)
  let problems = ref [] in
  let check what ok = if not ok then problems := what :: !problems in
  Array.iteri
    (fun i ((c : Replay.counts), log_start) ->
      let (p : Replay.counts), _ = plain.(i) in
      let (s : P.stats_reply), maint = server_docs.(i) in
      let name = docs.(i).Twin.d_name in
      check (name ^ ": replays disagree")
        (c.records = p.records && c.sizes = p.sizes && c.relabelled = p.relabelled
       && c.axis_ops = p.axis_ops && c.axis_renumbered = p.axis_renumbered
       && c.query_rows = p.query_rows);
      check (name ^ ": replay replies differ from the twin") (c.mismatches = 0);
      check (Printf.sprintf "%s: journal records %d, server %d" name c.records s.P.st_records)
        (c.records = s.P.st_records);
      (* the server's live log holds the records since its last checkpoint:
         some suffix of the replay's records *)
      let live = s.P.st_log_bytes - log_start in
      let rec suffix acc = function
        | _ when acc = live -> true
        | [] -> false
        | x :: rest -> acc < live && suffix (acc + x) rest
      in
      check (Printf.sprintf "%s: live log %d bytes is no suffix of the replay's" name live)
        (suffix 0 c.sizes);
      check (name ^ ": relabel counts differ")
        (c.relabelled = s.P.st_relabelled && c.overflow = s.P.st_overflow);
      check (Printf.sprintf "%s: index ops %d, server %d" name c.axis_ops maint) (c.axis_ops = maint))
    traced;
  List.iter (fun p -> say "work count mismatch: %s" p) !problems;
  let sum f = Array.fold_left (fun acc (c, _) -> acc + f c) 0 traced in
  let sumf f = Array.fold_left (fun acc (c, _) -> acc +. f c) 0. traced in
  let by_name = Span.by_name spans in
  let by_class = Span.by_class spans in
  let per name =
    match Hashtbl.find_opt by_name name with
    | Some a when a.Span.count > 0 -> float_of_int a.Span.self_ns /. float_of_int a.Span.count
    | _ -> 0.
  in
  let records = sum (fun c -> c.Replay.records) in
  let sent_items = Array.concat (Array.to_list (Array.mapi (fun i d -> Array.sub d.Twin.items 0 sent.(i)) docs)) in
  let count_items p = Array.fold_left (fun a it -> if p it then a + 1 else a) 0 sent_items in
  let mut_reqs = count_items (fun it -> it.Twin.mut) in
  let requests = sum (fun c -> c.Replay.requests) in
  let axis_ns = match Hashtbl.find_opt by_name "axis_inc.maint" with Some a -> a.Span.self_ns | None -> 0 in
  (* per request class: server time, the traced in-window layers, client time *)
  let class_count cls = count_items (fun it -> it.Twin.cls = cls) in
  let req_us cls =
    match List.find_opt (fun (m : P.metric) -> m.P.m_key = "req/" ^ cls) ms with
    | Some m when m.P.m_count > 0 -> float_of_int m.P.m_total_ns /. float_of_int m.P.m_count /. 1e3
    | _ -> 0.
  in
  let layers_us cls =
    let n = class_count cls in
    if n = 0 then 0.
    else
      List.fold_left
        (fun acc name ->
          match Hashtbl.find_opt by_class (cls, name) with
          | Some a -> acc +. float_of_int a.Span.self_ns
          | None -> acc)
        0. in_window
      /. float_of_int n /. 1e3
  in
  let client_us cls =
    let a = lat_us st (fun k -> docs.(st.who.(k)).Twin.items.(st.item.(k)).Twin.cls = cls) in
    if Array.length a = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)
  in
  let rtt =
    let num, den =
      List.fold_left
        (fun (num, den) cls ->
          let n = float_of_int (class_count cls) in
          if n = 0. then (num, den) else (num +. (n *. (client_us cls -. req_us cls)), den +. n))
        (0., 0.) classes
    in
    if den = 0. then 0. else num /. den
  in
  let loops = List.filter (fun (m : P.metric) -> String.ends_with ~suffix:"/util_pct" m.P.m_key) ms in
  let util =
    if loops = [] then 0.
    else
      List.fold_left (fun acc (m : P.metric) -> acc +. float_of_int m.P.m_total_ns) 0. loops
      /. float_of_int (List.length loops)
  in
  let overhead = 100. *. (t_traced -. t_plain) /. t_plain in
  say "trace: %d requests at %.1f rps; replay %.3f s untraced, %.3f s traced (overhead %.1f%%)" count
    rate t_plain t_traced overhead;
  List.iter
    (fun cls ->
      if class_count cls > 0 then
        say "  %-10s server %8.1f us, traced layers %8.1f us (%.0f%%), unattributed %8.1f us, client %8.1f us"
          cls (req_us cls) (layers_us cls)
          (if req_us cls > 0. then 100. *. layers_us cls /. req_us cls else 0.)
          (req_us cls -. layers_us cls) (client_us cls))
    classes;
  say "work: %d records (%d bytes), %d relabelled, %d index ops, %d renumbered, %d query rows"
    records
    (sum (fun c -> List.fold_left ( + ) 0 c.Replay.sizes))
    (sum (fun c -> c.Replay.relabelled))
    (sum (fun c -> c.Replay.axis_ops))
    (sum (fun c -> c.Replay.axis_renumbered))
    (sum (fun c -> c.Replay.query_rows));
  let failed = failures st in
  let per_class name unit f = List.map (fun cls -> (Printf.sprintf "%s.%s" name cls, unit, f cls)) classes in
  let queries = sum (fun c -> c.Replay.queries) in
  result
    ~correct:(failed = 0 && !problems = [])
    ~attempted:st.sent ~failed
    ([
       ("loadgen.late_p99_us", "us", late_p99_us st);
       ("loadgen.backlog", "count", Array.fold_left (fun acc (_, b) -> Float.max acc b) 0. st.backlog);
       ("wire.unframe_ns", "ns", per "wire.unframe");
       ("protocol.decode_req_ns", "ns", per "protocol.decode_req");
       ("protocol.encode_resp_ns", "ns", per "protocol.encode_resp");
       ("wire.frame_ns", "ns", per "wire.frame");
       ("wire.resp_bytes", "B", float_of_int (sum (fun c -> c.Replay.resp_bytes)) /. float_of_int (max 1 requests));
       ("resolver.resolve_ns", "ns", per "resolver.resolve");
       ("session.apply_ns", "ns", per "session.apply");
       ("session.relabelled_per_op", "count", float_of_int (sum (fun c -> c.Replay.relabelled)) /. float_of_int (max 1 records));
       ("session.overflow", "count", float_of_int (sum (fun c -> c.Replay.overflow)));
       ("session.avg_bits", "bit", sumf (fun c -> c.Replay.avg_bits) /. float_of_int (Array.length traced));
       ("session.max_bits", "bit", float_of_int (Array.fold_left (fun acc (c, _) -> max acc c.Replay.max_bits) 0 traced));
       ("session.labels_ns", "ns", per "session.labels");
       ("scheme.pred_ns", "ns", per "scheme.pred");
       ("axis_inc.maint_ns", "ns", float_of_int axis_ns /. float_of_int (max 1 (sum (fun c -> c.Replay.axis_ops))));
       ("axis_inc.renumbered", "count", float_of_int (sum (fun c -> c.Replay.axis_renumbered)));
       ("axis_inc.snapshot_ns", "ns", per "axis_inc.snapshot");
       ("oplog.encode_ns", "ns", per "oplog.encode");
       ("oplog.record_bytes", "B", float_of_int (sum (fun c -> List.fold_left ( + ) 0 c.Replay.sizes)) /. float_of_int (max 1 records));
       ("journal.append_ns", "ns", per "journal.append");
       ("journal.flush_ns", "ns", per "journal.flush");
       ("journal.checkpoint_ns", "ns", per "journal.checkpoint");
       ("xpath.eval_ns", "ns", per "xpath.eval");
       ("twig.eval_ns", "ns", per "twig.eval");
       ("query.total_rows", "count", float_of_int (sum (fun c -> c.Replay.query_rows)) /. float_of_int (max 1 queries));
       ("migrate.compile_ns", "ns", per "migrate.compile");
       ("migrate.survival_ns", "ns", per "migrate.survival");
       ("commit.batch_p50", "count", gauge ms "commit/batch_p50");
       ("commit.flush_us_p50", "us", gauge ms "commit/flush_us_p50");
       ("loop.util_pct", "%", util);
       ("client.rtt_us", "us", rtt);
       ("trace.overhead_pct", "%", overhead);
       ("work.journal_records", "count", float_of_int records);
       ("work.mutation_requests", "count", float_of_int mut_reqs);
       ("work.axis_ops", "count", float_of_int (sum (fun c -> c.Replay.axis_ops)));
       ("work.query_rows", "count", float_of_int (sum (fun c -> c.Replay.query_rows)));
     ]
    @ per_class "server.req_us" "us" req_us
    @ per_class "server.unattributed_us" "us" (fun cls -> if class_count cls = 0 then 0. else req_us cls -. layers_us cls)
    @ per_class "trace.explained_pct" "%" (fun cls ->
          if req_us cls > 0. then 100. *. layers_us cls /. req_us cls else 0.))

(* ---- command line --------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let exe = ref "_build/default/bin/xmlrepro.exe" and work = ref "perfbench/_run" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME update-mix or query-heavy");
      ("--seed", Arg.Set_int seed, "N seed for the documents and request streams");
      ("--seconds", Arg.Set_int seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
      ("--server", Arg.Set_string exe, "PATH the xmlrepro executable to serve with");
      ("--work-dir", Arg.Set_string work, "DIR scratch directory for journals");
      ( "--pipeline-mutations",
        Arg.Set pipeline_mutations,
        " pipeline mutations on a connection too (shows the server's reply-order defect)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  | Some wl -> (
    Child.mkdir_p !work;
    let run = if !trace = 1 then run_trace else run_e2e in
    match run wl ~seed:!seed ~seconds:!seconds ~exe:!exe ~work:!work with
    | () -> Child.rm_rf !work
    | exception e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 1)
