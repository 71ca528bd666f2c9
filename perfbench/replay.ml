(* The traced replay: the same request streams pushed in-process through
   each layer's public functions, in the order the server calls them, with
   a span around every call. Nothing inside the library is instrumented;
   where a layer times itself (the index's maintenance clock) its own
   figure becomes a child span.

   Layers and the server functions they stand for:
   - wire.unframe / protocol.decode_req: the loop's frame cut and decode;
   - resolver.resolve: the label lookup in check_op;
   - oplog.encode (a separate call, contained in journal.append) and
     journal.append: the durable view's write-ahead append;
   - session.apply: Resolver.apply, net of axis_inc.maint (the incremental
     index folding the mutation in through its tree observer);
   - axis_inc.snapshot: publishing the index after a mutation;
   - migrate.compile (net of the primitives it runs) and migrate.survival
     (the standing-query blast radius);
   - scheme.pred, session.labels, xpath.eval, twig.eval: the reads;
   - protocol.encode_resp / wire.frame: the reply;
   - journal.flush and journal.checkpoint: the group-commit flusher's work,
     one flush per mutation request. *)

module P = Repro_server.Protocol
module W = Repro_server.Wire
module Query_eval = Repro_server.Query_eval
module Oplog = Repro_journal.Oplog
module Journal = Repro_journal.Journal
module Tree = Repro_xml.Tree
module Axis_inc = Repro_encoding.Axis_inc
module Migrate = Repro_migrate.Migrate
module Mig_survival = Repro_migrate.Mig_survival

type counts = {
  mutable records : int;  (** journal records appended *)
  mutable sizes : int list;  (** each record's framed size, newest first *)
  mutable relabelled : int;
  mutable overflow : int;
  mutable axis_ops : int;
  mutable axis_renumbered : int;
  mutable query_rows : int;
  mutable queries : int;
  mutable resp_bytes : int;
  mutable requests : int;
  mutable mismatches : int;  (** replies that differ from the twin's *)
  mutable avg_bits : float;
  mutable max_bits : int;
}

let counts () =
  {
    records = 0;
    sizes = [];
    relabelled = 0;
    overflow = 0;
    axis_ops = 0;
    axis_renumbered = 0;
    query_rows = 0;
    queries = 0;
    resp_bytes = 0;
    requests = 0;
    mismatches = 0;
    avg_bits = 0.;
    max_bits = 0;
  }

let target = function
  | Oplog.Insert_first (l, _)
  | Oplog.Insert_last (l, _)
  | Oplog.Insert_before (l, _)
  | Oplog.Insert_after (l, _)
  | Oplog.Delete l
  | Oplog.Replace_value (l, _)
  | Oplog.Rename (l, _) ->
    Some l
  | Oplog.Mark _ -> None

let server_defaults = Repro_server.Server.default_config ~root:""

(* Replay the first [n] requests of [d] against a fresh copy of its
   document, journalling under [base]. *)
let run spans (d : Twin.doc) ~base ~n =
  let c = counts () in
  let sp name f = Span.span spans name f in
  let doc = Twin.generate_doc ~seed:d.d_seed ~nodes:d.d_nodes in
  let pack = Twin.pack_of d.d_scheme in
  let session = Core.Session.make pack doc in
  let journal = Journal.create ~fsync_every:max_int ~base session in
  let inc = Axis_inc.create ~clock:Monotonic_clock.now doc in
  let resolver = Journal.Resolver.create session in
  let snap = ref (Axis_inc.snapshot inc) in
  let since_ckpt = ref 0 in
  let mpool = ref None in
  let checkpoint () =
    sp "journal.checkpoint" (fun () -> Journal.checkpoint journal session);
    since_ckpt := 0
  in
  let run_op op =
    Option.iter (fun l -> ignore (sp "resolver.resolve" (fun () -> Journal.Resolver.resolve resolver l))) (target op);
    let r = sp "oplog.encode" (fun () -> Oplog.encode_record op) in
    sp "journal.append" (fun () -> Journal.append journal op);
    c.records <- c.records + 1;
    c.sizes <- String.length r :: c.sizes;
    let ns0 = (Axis_inc.stats inc).Axis_inc.ns in
    sp "session.apply" (fun () ->
        let n = Journal.Resolver.apply resolver op in
        Span.account spans "axis_inc.maint"
          ~ns:(Int64.to_int (Int64.sub (Axis_inc.stats inc).Axis_inc.ns ns0));
        n)
  in
  let relabels () =
    let s = session.Core.Session.stats () in
    s.Core.Stats.s_relabelled + s.Core.Stats.s_overflow
  in
  let mutation f =
    let before = relabels () in
    let applied, fresh = f () in
    snap := sp "axis_inc.snapshot" (fun () -> Axis_inc.snapshot inc);
    P.Updated
      { up_applied = applied; up_fresh = List.rev fresh; up_relabelled = relabels () > before; up_dedup = false }
  in
  let label n =
    let l_bytes, l_bits = session.Core.Session.label_encoded n in
    { P.l_bytes; l_bits }
  in
  let wire_query name q limit =
    let resp =
      sp name (fun () ->
          Query_eval.serve (Repro_server.Metrics.create ()) ~paranoid:false
            ~doc_rev:(Tree.revision doc) ~inc ~pub_time:0. ~snap:!snap q ~limit)
    in
    (match resp with
    | P.Query_r q ->
      c.queries <- c.queries + 1;
      c.query_rows <- c.query_rows + q.P.qy_total
    | _ -> ());
    resp
  in
  let dispatch = function
    | P.Update { u_ops; _ } ->
      mutation (fun () ->
          List.fold_left
            (fun (k, fresh) op ->
              match run_op op with Some n -> (k + 1, label n :: fresh) | None -> (k + 1, fresh))
            (0, []) u_ops)
    | P.Migrate { mg_specs; _ } ->
      mutation (fun () ->
          (* the standing-query pool is built from the document as the
             first migration finds it, before that migration runs *)
          let tracked =
            sp "migrate.survival" (fun () ->
                match !mpool with
                | Some t -> t
                | None ->
                  let t =
                    Mig_survival.track
                      (Axis_inc.source (Axis_inc.snapshot inc))
                      (Mig_survival.pool ~seed:(Hashtbl.hash d.d_name) ~count:16 doc)
                  in
                  mpool := Some t;
                  t)
          in
          let prims =
            sp "migrate.compile" (fun () ->
                let applier = { Migrate.ap_session = session; ap_run = run_op } in
                List.fold_left
                  (fun acc spec ->
                    acc
                    + Migrate.apply applier
                        (Migrate.op_of_spec ~resolve:(Journal.Resolver.resolve resolver) spec))
                  0 mg_specs)
          in
          sp "migrate.survival" (fun () ->
              ignore (Mig_survival.step (Axis_inc.source (Axis_inc.snapshot inc)) tracked));
          (prims, []))
    | P.Query { q_pred; _ } -> P.Answer (sp "scheme.pred" (fun () -> Twin.eval_pred pack q_pred))
    | P.Stats _ ->
      let st = session.Core.Session.stats () in
      P.Stats_r
        {
          P.st_nodes = Core.Session.node_count session;
          st_total_bits = Core.Session.total_bits session;
          st_max_bits = Core.Session.max_bits session;
          st_inserts = st.Core.Stats.s_inserts;
          st_deletes = st.Core.Stats.s_deletes;
          st_relabelled = st.Core.Stats.s_relabelled;
          st_overflow = st.Core.Stats.s_overflow;
          st_epoch = Journal.epoch journal;
          st_records = Journal.appended journal;
          st_log_bytes = Journal.log_size journal;
          st_offset = (Journal.durable_position journal).Journal.p_offset;
          st_lag = [];
        }
    | P.Labels { lb_limit; _ } ->
      sp "session.labels" (fun () ->
          let acc = ref [] and k = ref 0 in
          (try
             Tree.iter_preorder
               (fun n ->
                 if !k >= lb_limit then raise Exit;
                 acc := (label n, n.Tree.kind, n.Tree.name) :: !acc;
                 incr k)
               doc
           with Exit -> ());
          P.Labels_r (List.rev !acc))
    | P.Checkpoint _ ->
      if !since_ckpt >= server_defaults.Repro_server.Server.checkpoint_min_records then checkpoint ();
      P.Checkpointed (Journal.epoch journal)
    | P.Xpath { xq_src; xq_limit; _ } -> wire_query "xpath.eval" (Query_eval.Q_xpath xq_src) xq_limit
    | P.Twig { tq_src; tq_limit; _ } -> wire_query "twig.eval" (Query_eval.Q_twig tq_src) tq_limit
    | req -> invalid_arg ("replay: unexpected request " ^ P.req_class req)
  in
  for i = 0 to n - 1 do
    let it = d.items.(i) in
    Span.request spans it.Twin.cls;
    let records0 = c.records in
    let resp, payload =
      sp "req" (fun () ->
          let payload =
            sp "wire.unframe" (fun () ->
                match W.unframe it.Twin.frame 0 with
                | `Frame (p, _) -> p
                | `End | `Bad _ -> invalid_arg "replay: bad frame")
          in
          let req = sp "protocol.decode_req" (fun () -> Result.get_ok (P.decode_req payload)) in
          let resp = dispatch req in
          let out = sp "protocol.encode_resp" (fun () -> P.encode_resp resp) in
          c.resp_bytes <- c.resp_bytes + String.length (sp "wire.frame" (fun () -> W.frame out));
          (resp, out))
    in
    c.requests <- c.requests + 1;
    if Twin.verify d i ~lo:it.Twin.state payload resp <> Twin.Match then
      c.mismatches <- c.mismatches + 1;
    if c.records > records0 then begin
      sp "journal.flush" (fun () -> Journal.flush journal);
      since_ckpt := !since_ckpt + (c.records - records0);
      match server_defaults.Repro_server.Server.checkpoint_every with
      | Some k when !since_ckpt >= k -> checkpoint ()
      | _ -> ()
    end
  done;
  let st = session.Core.Session.stats () in
  c.relabelled <- st.Core.Stats.s_relabelled;
  c.overflow <- st.Core.Stats.s_overflow;
  let ax = Axis_inc.stats inc in
  c.axis_ops <- ax.Axis_inc.ops;
  c.axis_renumbered <- ax.Axis_inc.renumbered;
  c.avg_bits <- Core.Session.avg_bits session;
  c.max_bits <- Core.Session.max_bits session;
  Journal.close journal;
  Axis_inc.detach inc;
  (c, Journal.log_start journal)
