(* The offline twin: the request streams and every reply the server must
   give to them, computed before anything is sent.

   Each connection owns one document. The twin rebuilds that document the
   way the server's Open does (Docgen, then Session.make) and applies each
   operation through Journal.Resolver.apply, so every label a request
   names, every fresh label, relabel flag, query answer and node count a
   reply carries is known in advance. Requests are chosen from the twin's
   own state, which is why no request can fail on a correct server.

   A pipelined connection keeps request order only within four reply
   groups: a read is answered at once while the mutation before it waits
   for its fsync. Replies are therefore matched per group, and a read may
   legitimately see a state before mutations it was pipelined behind (the
   server defers them while a checkpoint holds the document). The twin
   keeps the history of states so such a reply is checked against the
   state it names: Stats by its record count, XPath/twig by revision. *)

module P = Repro_server.Protocol
module W = Repro_server.Wire
module Query_eval = Repro_server.Query_eval
module Oplog = Repro_journal.Oplog
module Journal = Repro_journal.Journal
module Tree = Repro_xml.Tree
module Axis_inc = Repro_encoding.Axis_inc
module Prng = Repro_codes.Prng
module Migrate = Repro_migrate.Migrate

(* ---- reply groups ---------------------------------------------------- *)

let q_mut = 0
let q_read = 1
let q_labels = 2
let q_ckpt = 3
let n_queues = 4

let queue_of_resp = function
  | P.Updated _ -> Some q_mut
  | P.Answer _ | P.Stats_r _ | P.Query_r _ | P.Query_error _ | P.Pong _ -> Some q_read
  | P.Labels_r _ -> Some q_labels
  | P.Checkpointed _ -> Some q_ckpt
  | _ -> None

(* ---- streams ------------------------------------------------------- *)

type expect =
  | Exact of string  (** the reply payload, byte for byte *)
  | Stats  (** node count at the state its record count names *)
  | At_rev of { rev : int; payload : string }
      (** exact at [rev]; an older revision is a stale but legal snapshot *)
  | Checkpointed  (** the epoch depends on flusher timing: type only *)

type item = {
  req : P.req;
  frame : string;
  queue : int;
  mut : bool;
  cls : string;
  state : int;  (** mutation requests the server has applied before this one *)
  expect : expect;
}

type doc = {
  d_name : string;
  d_scheme : string;
  d_nodes : int;
  d_seed : int;
  items : item array;
  records : int array;  (** state m -> journal records after m mutation requests *)
  revs : int array;  (** state m -> document revision *)
  counts : int array;  (** state m -> node count *)
}

type workload = Update_mix | Query_heavy

(* ---- growable arrays --------------------------------------------------- *)

type 'a vec = { mutable a : 'a array; mutable len : int }

let vec_create x = { a = Array.make 64 x; len = 0 }

let vec_push v x =
  if v.len = Array.length v.a then v.a <- Array.append v.a (Array.make v.len x);
  v.a.(v.len) <- x;
  v.len <- v.len + 1

let vec_to_array v = Array.sub v.a 0 v.len

let pick rng v = v.a.(Prng.int rng v.len)

let take rng v =
  let i = Prng.int rng v.len in
  let x = v.a.(i) in
  v.a.(i) <- v.a.(v.len - 1);
  v.len <- v.len - 1;
  x

(* ---- twin state ------------------------------------------------------- *)

type st = {
  name : string;
  session : Core.Session.t;
  resolver : Journal.Resolver.t;
  inc : Axis_inc.t option;  (** the query index, kept only where queries are served *)
  metrics : Repro_server.Metrics.t;
  rng : Prng.t;
  anchors : Tree.node vec;  (** elements never deleted (index 0 is the root) *)
  victims : Tree.node vec;  (** childless inserted elements, each deleted once *)
  mutable counter : int;
  mutable m : int;
  mutable nrec : int;
  h_records : int vec;
  h_revs : int vec;
  h_counts : int vec;
  out : item vec;
  qcache : (string, string) Hashtbl.t;  (** query -> reply payload at the current state *)
}

let label st n =
  let l_bytes, l_bits = st.session.Core.Session.label_encoded n in
  { P.l_bytes; l_bits }

let fresh_name st pfx =
  st.counter <- st.counter + 1;
  Printf.sprintf "%s%d" pfx st.counter

let record_state st =
  vec_push st.h_records st.nrec;
  vec_push st.h_revs (Tree.revision st.session.Core.Session.doc);
  vec_push st.h_counts (Core.Session.node_count st.session)

let emit st req ~queue ~mut expect =
  vec_push st.out
    {
      req;
      frame = W.frame (P.encode_req req);
      queue;
      mut;
      cls = P.req_class req;
      state = st.m;
      expect;
    }

let relabels st =
  let s = st.session.Core.Session.stats () in
  s.Core.Stats.s_relabelled + s.Core.Stats.s_overflow

(* A mutation request: [build] makes each operation from the current
   state and applies it, returning how many journal records it wrote and
   the fresh labels, exactly as the server will. *)
let mutation st req_of build =
  let before = relabels st in
  let applied, fresh, body = build () in
  let resp =
    P.Updated
      { up_applied = applied; up_fresh = fresh; up_relabelled = relabels st > before; up_dedup = false }
  in
  emit st (req_of body) ~queue:q_mut ~mut:true (Exact (P.encode_resp resp));
  st.m <- st.m + 1;
  st.nrec <- st.nrec + applied;
  Hashtbl.reset st.qcache;
  record_state st

let apply st op = Journal.Resolver.apply st.resolver op

let update st ops_of =
  mutation st
    (fun ops -> P.Update { u_doc = st.name; u_client = ""; u_seq = 0; u_ops = ops })
    (fun () ->
      let ops, fresh = ops_of () in
      (List.length ops, fresh, ops))

(* ---- operations ------------------------------------------------------ *)

(* An insert at a pooled anchor, applied to the twin at once; the new
   leaf joins the anchors or the victims. *)
let insert_op st =
  let payload = Tree.elt (fresh_name st "u") [] in
  let op =
    match Prng.int st.rng 4 with
    | 0 -> Oplog.Insert_first (label st (pick st.rng st.anchors), payload)
    | 1 -> Oplog.Insert_last (label st (pick st.rng st.anchors), payload)
    | k ->
      if st.anchors.len < 2 then Oplog.Insert_last (label st st.anchors.a.(0), payload)
      else
        (* never a sibling of the root: index 0 is the root *)
        let anchor = label st st.anchors.a.(1 + Prng.int st.rng (st.anchors.len - 1)) in
        if k = 2 then Oplog.Insert_before (anchor, payload) else Oplog.Insert_after (anchor, payload)
  in
  let n = Option.get (apply st op) in
  vec_push (if Prng.bool st.rng then st.anchors else st.victims) n;
  (op, label st n)

let delete_op st =
  let v = take st.rng st.victims in
  let op = Oplog.Delete (label st v) in
  ignore (apply st op);
  op

let insert1 st = update st (fun () -> let op, l = insert_op st in ([ op ], [ l ]))

let delete1 st =
  if st.victims.len = 0 then insert1 st else update st (fun () -> ([ delete_op st ], []))

let rename1 st =
  update st (fun () ->
      let op = Oplog.Rename (label st (pick st.rng st.anchors), fresh_name st "r") in
      ignore (apply st op);
      ([ op ], []))

let set_value1 st =
  update st (fun () ->
      let v = if Prng.bool st.rng then Some (fresh_name st "v") else None in
      let op = Oplog.Replace_value (label st (pick st.rng st.anchors), v) in
      ignore (apply st op);
      ([ op ], []))

(* ---- reads ----------------------------------------------------------- *)

(* The server's label-only predicate evaluation: decode, compare. *)
let eval_pred pack (pred : P.pred) =
  let module S = (val pack : Core.Scheme.S) in
  let dec (l : P.label) = S.decode_label l.P.l_bytes l.P.l_bits in
  let binary f a b = match f with None -> P.Unsupported | Some f -> P.Bool (f (dec a) (dec b)) in
  match pred with
  | P.Order (a, b) -> P.Int (compare (S.compare_order (dec a) (dec b)) 0)
  | P.Ancestor (a, b) -> binary S.is_ancestor a b
  | P.Parent (a, b) -> binary S.is_parent a b
  | P.Sibling (a, b) -> binary S.is_sibling a b
  | P.Level a -> ( match S.level_of with None -> P.Unsupported | Some f -> P.Int (f (dec a)))

let pack_of scheme =
  match Repro_schemes.Registry.find scheme with
  | Some p -> p
  | None -> invalid_arg ("unknown scheme " ^ scheme)

let pred_query st =
  let any () =
    if st.victims.len > 0 && Prng.bool st.rng then pick st.rng st.victims
    else pick st.rng st.anchors
  in
  let a = label st (any ()) in
  let pred =
    match Prng.int st.rng 5 with
    | 0 -> P.Order (a, label st (any ()))
    | 1 -> P.Ancestor (a, label st (any ()))
    | 2 -> P.Parent (a, label st (any ()))
    | 3 -> P.Sibling (a, label st (any ()))
    | _ -> P.Level a
  in
  let answer = eval_pred (pack_of st.session.Core.Session.scheme_name) pred in
  emit st (P.Query { q_doc = st.name; q_pred = pred }) ~queue:q_read ~mut:false
    (Exact (P.encode_resp (P.Answer answer)))

let stats st = emit st (P.Stats st.name) ~queue:q_read ~mut:false Stats

let labels_limit = 200

let labels st =
  let acc = ref [] and count = ref 0 in
  (try
     Tree.iter_preorder
       (fun n ->
         if !count >= labels_limit then raise Exit;
         acc := (label st n, n.Tree.kind, n.Tree.name) :: !acc;
         incr count)
       st.session.Core.Session.doc
   with Exit -> ());
  emit st
    (P.Labels { lb_doc = st.name; lb_limit = labels_limit })
    ~queue:q_labels ~mut:false
    (Exact (P.encode_resp (P.Labels_r (List.rev !acc))))

let checkpoint st = emit st (P.Checkpoint st.name) ~queue:q_ckpt ~mut:false Checkpointed

(* the loadgen read-heavy query set *)
let xpath_queries =
  [|
    "//item";
    "//section//field";
    "//entry[field]";
    "//group/@*";
    "/*/*";
    "//record[2]";
    "//item/following-sibling::*";
    "//list[count(item) > 0]";
  |]

let twig_queries = [| "item[field]"; "section[//field]"; "entry[field][//meta]" |]

let query_limit = 32

let served st q =
  let inc = Option.get st.inc in
  Query_eval.serve st.metrics ~paranoid:false
    ~doc_rev:(Tree.revision st.session.Core.Session.doc)
    ~inc ~pub_time:0. ~snap:(Axis_inc.snapshot inc) q ~limit:query_limit

let wire_query st =
  let twig = Prng.int st.rng 4 = 0 in
  let src =
    if twig then twig_queries.(Prng.int st.rng (Array.length twig_queries))
    else xpath_queries.(Prng.int st.rng (Array.length xpath_queries))
  in
  let key = (if twig then "t:" else "x:") ^ src in
  let payload =
    match Hashtbl.find_opt st.qcache key with
    | Some p -> p
    | None ->
      let p = P.encode_resp (served st (if twig then Query_eval.Q_twig src else Query_eval.Q_xpath src)) in
      Hashtbl.add st.qcache key p;
      p
  in
  let req =
    if twig then P.Twig { tq_doc = st.name; tq_src = src; tq_limit = query_limit }
    else P.Xpath { xq_doc = st.name; xq_src = src; xq_limit = query_limit }
  in
  emit st req ~queue:q_read ~mut:false
    (At_rev { rev = Tree.revision st.session.Core.Session.doc; payload })

(* ---- the workloads' request mixes ------------------------------------ *)

(* the classic loadgen mix of single-op requests *)
let update_mix_step st =
  let r = Prng.int st.rng 100 in
  if r < 46 then insert1 st
  else if r < 56 then delete1 st
  else if r < 64 then rename1 st
  else if r < 72 then set_value1 st
  else if r < 87 then pred_query st
  else if r < 93 then stats st
  else if r < 97 then labels st
  else checkpoint st

(* A Migrate batch wrapping one inserted leaf: it relocates only that
   leaf, so no pooled label goes stale. *)
let migrate_wrap st =
  mutation st
    (fun specs -> P.Migrate { mg_doc = st.name; mg_client = ""; mg_seq = 0; mg_specs = specs })
    (fun () ->
      let v = take st.rng st.victims in
      let spec = Migrate.S_wrap ([ label st v ], fresh_name st "w") in
      let applier = { Migrate.ap_session = st.session; ap_run = apply st } in
      let prims =
        Migrate.apply applier
          (Migrate.op_of_spec ~resolve:(Journal.Resolver.resolve st.resolver) spec)
      in
      (prims, [], [ spec ]))

let migrate_every = 4

(* 95% served XPath/twig beside the loadgen read-heavy mutation mix, every
   fourth mutation a Migrate wrap; every twentieth request is the
   mutation, so each run has the same number of them to take
   percentiles over *)
let query_heavy_step st =
  if st.out.len mod 20 <> 19 then wire_query st
  else if st.m mod migrate_every = migrate_every - 1 && st.victims.len > 0 then migrate_wrap st
  else
    let r = Prng.int st.rng 100 in
    if r < 60 then insert1 st
    else if r < 75 then delete1 st
    else if r < 90 then rename1 st
    else set_value1 st

(* ---- documents -------------------------------------------------------- *)

let generate_doc ~seed ~nodes =
  Repro_workload.Docgen.generate ~seed
    { Repro_workload.Docgen.default_shape with target_nodes = nodes }

(* Docgen stops early when the root draws no children, leaving a
   document of a node or two; take the first seed from [seed] on whose
   document reaches the target size, so every run's documents are of the
   size the workload names. *)
let rec sized_seed ~seed ~nodes =
  if Tree.size (generate_doc ~seed ~nodes) >= nodes then seed else sized_seed ~seed:(seed + 1) ~nodes

(* The Open the server receives for this document. *)
let open_req d =
  P.Open { o_doc = d.d_name; o_scheme = d.d_scheme; o_nodes = d.d_nodes; o_seed = d.d_seed }

(* Build one document's stream of [count] requests. *)
let build workload ~name ~scheme ~nodes ~doc_seed ~rng_seed ~count =
  let doc_seed = sized_seed ~seed:doc_seed ~nodes in
  let doc = generate_doc ~seed:doc_seed ~nodes in
  let session = Core.Session.make (pack_of scheme) doc in
  let st =
    {
      name;
      session;
      resolver = Journal.Resolver.create session;
      inc = (if workload = Query_heavy then Some (Axis_inc.create doc) else None);
      metrics = Repro_server.Metrics.create ();
      rng = Prng.create rng_seed;
      anchors = vec_create (Tree.root doc);
      victims = vec_create (Tree.root doc);
      counter = 0;
      m = 0;
      nrec = 0;
      h_records = vec_create 0;
      h_revs = vec_create 0;
      h_counts = vec_create 0;
      out =
        vec_create
          { req = P.Ping; frame = ""; queue = 0; mut = false; cls = ""; state = 0; expect = Checkpointed };
      qcache = Hashtbl.create 16;
    }
  in
  vec_push st.anchors (Tree.root doc);
  record_state st;
  let step = match workload with Update_mix -> update_mix_step | Query_heavy -> query_heavy_step in
  while st.out.len < count do
    step st
  done;
  Option.iter Axis_inc.detach st.inc;
  {
    d_name = name;
    d_scheme = scheme;
    d_nodes = nodes;
    d_seed = doc_seed;
    items = Array.sub st.out.a 0 count;
    records = vec_to_array st.h_records;
    revs = vec_to_array st.h_revs;
    counts = vec_to_array st.h_counts;
  }

(* The first [count] requests of [d] addressed to a document called
   [name]: the same stream, opened afresh under another name. *)
let renamed d name ~count =
  let rename = function
    | P.Update u -> P.Update { u with u_doc = name }
    | P.Migrate m -> P.Migrate { m with mg_doc = name }
    | P.Query q -> P.Query { q with q_doc = name }
    | P.Stats _ -> P.Stats name
    | P.Labels l -> P.Labels { l with lb_doc = name }
    | P.Checkpoint _ -> P.Checkpoint name
    | P.Xpath x -> P.Xpath { x with xq_doc = name }
    | P.Twig t -> P.Twig { t with tq_doc = name }
    | r -> r
  in
  let items =
    Array.map
      (fun it ->
        let req = rename it.req in
        { it with req; frame = W.frame (P.encode_req req) })
      (Array.sub d.items 0 count)
  in
  { d with d_name = name; items }

(* ---- verification ------------------------------------------------------ *)

type verdict =
  | Match
  | Stale  (** an older state the request may legally see *)
  | Reordered
      (** a mutation reply only one nearby mutation request expects:
          replies out of order *)
  | Mismatch

let reorder_window = 16

(* [lo]: mutation requests whose replies had arrived when [item] was sent
   — the oldest state its reply may show. *)
let verify d item_ix ~lo payload resp =
  let item = d.items.(item_ix) in
  let lo = max 0 (min lo item.state) in
  let rec state_where f m = m >= lo && (f m || state_where f (m - 1)) in
  match item.expect with
  | Exact p ->
    (* Only a payload no other request in the window expects (an insert's
       fresh label) tells which request it answers; a common one, such
       as a rename's or a read's, says nothing about order. *)
    let expecting () =
      List.filter
        (fun j -> j >= 0 && j < Array.length d.items && d.items.(j).expect = Exact payload)
        (List.init ((2 * reorder_window) + 1) (fun k -> item_ix - reorder_window + k))
    in
    if payload = p then Match
    else (
      match expecting () with
      | [ j ] when item.queue = q_mut && d.items.(j).queue = q_mut -> Reordered
      | _ -> Mismatch)
  | Checkpointed -> ( match resp with P.Checkpointed _ -> Match | _ -> Mismatch)
  | Stats -> (
    match resp with
    | P.Stats_r st ->
      let at m = d.records.(m) = st.P.st_records && d.counts.(m) = st.P.st_nodes in
      if at item.state then Match else if state_where at (item.state - 1) then Stale else Mismatch
    | _ -> Mismatch)
  | At_rev { rev; payload = p } -> (
    if payload = p then Match
    else
      match resp with
      | P.Query_r q when q.P.qy_rev < rev && state_where (fun m -> d.revs.(m) = q.P.qy_rev) item.state
        ->
        Stale
      | _ -> Mismatch)
